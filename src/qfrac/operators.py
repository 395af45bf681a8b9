"""The generalized q-fractional integral, the Riemann-Liouville-type
q-fractional derivative (the integral of negative order), and the
Caputo-type derivative in both its definitional and simplified forms, plus
the closed-form beta-integral lemma and the boundedness constant.

All integrals are Jackson sums over geometric lattices; the kernel
(x**p - (wq)**p)^(beta) at node w = x q**i reduces to a pure power of
q**p, so kernel weights for a whole sum are one q-product ratio pass in
O(N + product length). At the nodes of a QLattice every
operator value comes from one LatticeKernel pass over f tabulated once; a
point x is the one-node lattice QLattice(x, q, 1). A family of k functions
(see qcalc) shares that pass, its values along the last axis and one row
per function out; so do an ndarray of orders, one result per order on a
leading axis, and an ndarray of points, their values on a last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .qcalc import QLattice, ScalarFunction, _FromTable, _nodes, _tabulate
from .qcore import (
    _SUM_ABS_TOL,
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
    _checked_product,
    _kernel_weights,
    _power,
    _sum_length,
    q_gamma,
    q_number,
    q_power_general,
)

__all__ = [
    "FracOrder",
    "OperatorContext",
    "LatticeKernel",
    "frac_integral",
    "lemma_beta_integral",
    "frac_derivative_rl",
    "caputo_derivative",
    "caputo_derivative_simplified",
    "caputo_rl_relation_residual",
    "bound_constant",
    "inversion_residuals",
]


@dataclass(frozen=True)
class FracOrder:
    """Fractional order alpha, restricted to (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class OperatorContext:
    """Operator configuration: deformation pair, lower limit, term budget."""

    params: QParams
    a: float = 0.0
    ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL

    def __post_init__(self):
        if not self.a >= 0.0:
            raise DomainError(f"lower limit a must be nonnegative, got {self.a}")


def _alpha_of(order, test=lambda a: True, domain=""):
    """Accept a FracOrder or a bare float order (the operators also serve
    auxiliary orders like 1 - alpha and sums alpha + beta <= 1), or an
    ndarray of orders, for one result per order on a leading axis. The
    first order that fails test raises DomainError: "<domain>, got <it>"."""
    alpha = order.alpha if isinstance(order, FracOrder) else order
    array = isinstance(alpha, np.ndarray)
    alpha = alpha if array else float(alpha)
    for a in alpha.ravel().tolist() if array else (alpha,):
        if not test(a):
            raise DomainError(f"{domain}, got {a}")
    return alpha


def _each(fn, orders, *tables):
    """fn(orders, *tables) for one order; for an ndarray of orders, fn at
    each order and its rows of the tables, stacked on a leading axis. An
    order's scalars stay Python floats, as in its own pass: numpy's power
    can round apart from Python's."""
    if not isinstance(orders, np.ndarray):
        return fn(orders, *tables)
    return np.array([fn(*args) for args in zip(orders.tolist(), *tables)])


def _convolve(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """np.convolve(x, table, "valid") along the last axis, the leading axes
    broadcast: one np.vecdot of the windows of the longer with the shorter
    reversed. Each value is one dot of its own row, alone or in a stack,
    the BLAS dot np.convolve takes past 11 terms."""
    if x.shape[-1] < table.shape[-1]:
        x, table = table, x
    n = table.shape[-1]
    x = np.ascontiguousarray(x)
    windows = np.ndarray(x.shape[:-1] + (x.shape[-1] - n + 1, n), float, x,
                         0, x.strides + x.strides[-1:])
    return np.vecdot(windows, np.ascontiguousarray(table[..., None, ::-1]))


class LatticeKernel:
    """The Jackson kernel sum int_a^t w**(e-1) f(w) (t**p - (wq)**p)^(beta)
    d_q w, e = p + tilt, at every row node t_m = t_0 q**m of a geometric
    node table, in one pass over f tabulated once. Tilt 0 is the weight
    w**(p-1) of J (and of D, J of negative order); the simplified Caputo
    form is J^(1-alpha) of w**(1-p) D_q f, tilt 1 - p (e = 1).

    Each row has one power of its node, the head; every other factor lies
    in [0, 1]. At w = t_m q**i the kernel is t_m**(p beta) k_i with one
    weight table k (c = q**p), and the Jackson weight w times w**(e - 1) is
    t_m**e (q**e)**i, so the sums of all rows are one correlation,
    head[m] * sum_{i<n} w_i f(t_0 q**(m+i)) with w_i = k_i (q**e)**i;
    head[m] = (1 - q) t_m**((1 + p beta) + (e - 1)) is past float range
    only where the value is. For a > 0 the subtracted sums over [0, a] read
    f at the lower nodes w = a q**i, whose weight t_m**e (a/t_m)**e
    (q**e)**i is the same table under the same head, times the row scale
    (a/t_m)**e <= 1: a row is head[m] * (upper sum - (a/t_m)**e lower sum).
    Row m weighs the lower sum with k at c = (aq/t_m)**p, and since c Q**i
    steps down the rows by Q, every row reads one table K of rows + n - 1
    weights built from the deepest row's c: row m's weights are
    K[rows-1-m+i], a Toeplitz matrix applied as a second convolution. This
    is the matrix view of discrete fractional calculus (Podlubny, FCAA
    2000). upper and lower hold w and K reversed, and jackson the geometric
    table (q**e)**i: at a small p, q**i underflows long before q**(ip) is
    negligible. Each sum is a direct dot per row (_convolve), whose rows
    keep their own digits (an FFT's error follows the largest). A sum
    whose table reaches its n-th term adds its geometric tail (_with_tail).

    Its first weight is (Q; Q)_inf / (Q**(1+beta); Q)_inf, so gamma = k_0
    (1 - Q)**(-beta) is Gamma_Q(1 + beta), the coefficients' own (< 0 at
    D's beta in (-2, -1), whose q-products have signs).

    An ndarray of betas (one per order) and a stack of node tables (one
    per point) build every order's and point's tables in one q-ratio pass
    per table. gamma, power, head and the lower table lead with the axis
    of orders, then that of points; f and f_low lead with an axis of
    orders too (of length 1 to serve every order), and hold a grid per
    point on their second-last axis, after a family's axes.
    """

    def __init__(self, params: QParams, beta: float, a: float,
                 ctrl: SeriesControl, nodes: np.ndarray, tilt: float = 0.0):
        self.params = params
        q, p = params.q, params.p
        e = p + tilt
        log_Q = p * math.log(q)
        self.nodes = nodes = np.asarray(nodes, dtype=float)
        rows = nodes.shape[-1]
        self.n = n = _sum_length(q, p, ctrl)
        self.max_terms = ctrl.max_terms
        self.jackson = _nodes(1.0, q ** e, n)  # q**i itself at e = 1
        weights = _kernel_weights(log_Q, beta, log_Q, n, ctrl)
        self.gamma = _each(lambda b, w: float(w) * (1.0 - params.qp) ** -b,
                           beta, weights[..., 0])
        self.upper = (weights * self.jackson)[..., ::-1]
        self.power = _each(lambda b: (1.0 + p * b) + (e - 1.0), beta)
        self.head = (1.0 - q) * _each(lambda power: _power(nodes, power, p),
                                      self.power)
        self.lower = None
        if a > 0.0:  # one table per order and point
            self.low_scale = (a / nodes) ** e
            log_c = np.reshape([p * math.log(a * q / t) for t in np.ravel(
                nodes[..., -1]).tolist()], nodes.shape[:-1])
            if nodes.ndim > 1:  # the points' axis after the orders'
                beta = np.expand_dims(beta, -1)
            self.lower = _kernel_weights(log_Q, beta, log_c, rows + n - 1,
                                         ctrl)[..., ::-1]

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def apply(self, f: np.ndarray, f_low: np.ndarray | None = None,
              value=lambda rows: rows) -> np.ndarray:
        """Kernel sums at every row node, from f itself at t_0 q**j, j <
        rows + n - 1 (a shorter table: f = 0 past its end, and no tails),
        and f_low at _nodes(a, q, n) (None: f = 0 on [0, a]), mapped by
        value (an operator's coefficients times them). A (k, len) stack
        gives (k, rows); past float range raises, as _checked_product."""
        rows, n = self.nodes.shape[-1], self.n
        f = np.asarray(f, dtype=float)[..., :rows + n - 1]
        full = f.shape[-1] == rows + n - 1
        if not full:
            pad = np.zeros(f.shape[:-1] + (rows + n - 1 - f.shape[-1],))
            f = np.concatenate((f, pad), axis=-1)
        orders = np.ndim(self.power)  # a table's orders, then f's functions
        lead = lambda t: t if t.ndim == f.ndim else t.reshape(
            t.shape[:orders] + (1,) * (f.ndim - t.ndim) + t.shape[orders:])
        # row m's terms i = n-2, n-1: w_i f[m+i] and K[rows-1-m+i] f_low[i]
        upper = lead(self.upper)
        parts = [(_convolve(f, upper), upper[..., 1:2] * f[..., n - 2:-1],
                  upper[..., :1] * f[..., n - 1:])]
        if f_low is not None and self.lower is not None:
            lower, f_low = lead(self.lower), self.jackson * f_low
            parts.append((_convolve(f_low, lower),
                          lower[..., 1:rows + 1] * f_low[..., -2:-1],
                          lower[..., :rows] * f_low[..., -1:]))
        sums = [self._with_tail(*s) if full else s[0] for s in parts]
        row = sums[0] - self.low_scale * sums[1] if sums[1:] else sums[0]
        power = lead(np.asarray(self.power))  # one per order
        return _checked_product(value(lead(self.head) * row), self.nodes,
                                power, self.params.p, "kernel row factor",
                                *sums)

    def _with_tail(self, total, a0, a1):
        """total plus the geometric tail a1 r / (1 - r), r = a1 / a0, where
        a1 > _SUM_ABS_TOL |total| and 0 < r <= 1 - 1/max_terms (exact for a
        power law). A slower r (1/w: r = 1) raises where max_terms a1 >
        |total|, above the rounding a differenced f leaves at deep nodes."""
        live = abs(a1) > _SUM_ABS_TOL * abs(total)
        if not live.any():  # bounded integrands: every row as summed
            return total
        r = a1 / a0
        live &= (r > 0.0) & (r < np.inf)
        fast = self.max_terms * (1.0 - r) >= 1.0
        slow = live & ~fast & (self.max_terms * abs(a1) > abs(total))
        if slow.any():
            t = np.broadcast_to(self.nodes, slow.shape)[slow][0]
            raise ConvergenceError(
                f"Jackson sum at node t={float(t)!r} decays too slowly: its "
                f"last two terms have ratio {float(r[slow][0])!r}, more than "
                f"max_terms={self.max_terms} terms can sum")
        return np.where(live & fast, total + a1 * r / (1.0 - r), total)


def _grid(x, ctx: OperatorContext, extra: int = 0):
    """The grid b q**j one kernel pass over x reads, plus `extra` rows, and
    x's row count: x is a QLattice with ratio q, a point x > a (the
    one-node lattice) or an ndarray of points, one grid each. x > a is
    every operator's domain."""
    q, a = ctx.params.q, ctx.a
    if isinstance(x, QLattice):
        if x.q != q:
            raise DomainError(f"lattice ratio {x.q} differs from q={q}")
        xs, b = x.nodes, x.b
    else:
        xs, b = np.ravel(x).tolist(), x
    for t in xs:
        if not t > a:
            raise DomainError(f"evaluation point must exceed the lower "
                              f"limit, got s={t}, a={a}")
    rows = len(xs) if isinstance(x, QLattice) else 1
    n = _sum_length(q, ctx.params.p, ctx.ctrl)
    return _nodes(b, q, rows + n - 1 + extra), rows, n


def _table(f, nodes) -> np.ndarray:
    """f at an array of nodes in one tabulation, a family's axes first."""
    table = _tabulate(f, nodes.ravel())
    return table.reshape(table.shape[:-1] + nodes.shape)


def _on_lattice(f: ScalarFunction, x, ctx: OperatorContext, extra: int = 0,
                alpha=0.0):
    """f tabulated for one kernel pass over x (see _grid) on the grid, and
    on the lower nodes (None for a = 0) for every point; the grid, and the
    row count. An ndarray alpha of orders adds a unit leading axis."""
    grid, rows, n = _grid(x, ctx, extra)
    lead = (None,) * isinstance(alpha, np.ndarray)
    low = None if ctx.a == 0.0 else _table(f, _nodes(
        ctx.a, ctx.params.q, n)[(None,) * (grid.ndim - 1)])[lead]
    return _table(f, grid)[lead], low, grid, rows


def _value(v):
    """A Python float for one function, the array of k for a family."""
    return float(v) if v.ndim == 0 else v


def _at(x, rows):
    """One pass's rows over x: the array for a lattice, the value at a
    point (a Python float for one function), and one per ndarray point."""
    return rows if isinstance(x, QLattice) else _value(rows[..., 0])


def _integral_rows(f_grid, f_low, grid, rows, alpha, ctx, tilt=0.0):
    """J^alpha f at grid[..., :rows], its weight w**(p-1) times w**tilt
    (see LatticeKernel); f_grid must cover rows + n - 1 nodes. An ndarray
    alpha of orders is one kernel pass. A negative alpha gives D^(-alpha)
    f, the q-integral of negative order."""
    kernel = LatticeKernel(ctx.params, alpha - 1.0, ctx.a, ctx.ctrl,
                           grid[..., :rows], tilt)
    coef = q_number(ctx.params.p, ctx.params.q)
    return kernel.apply(f_grid, f_low, lambda table: _each(
        lambda a, sums, gamma: coef ** (1.0 - a) * (sums / gamma), alpha,
        table, kernel.gamma))


def frac_integral(f: ScalarFunction, x, order,
                  ctx: OperatorContext):
    """q-fractional integral J^alpha f at x:

    ([p]_q)**(1-alpha) / Gamma_{q**p}(alpha) *
    int_a^x w**(p-1) f(w) (x**p - (wq)**p)^(alpha-1) d_q w.

    x is a QLattice with ratio q, for the array of values at its nodes from
    one lattice-kernel pass, or a point x > a, the one-node lattice, for
    its value as a float. A family of k functions gives k rows (k values
    at a point), and an ndarray of m orders m such results from one pass,
    each the bits of its own order's call.
    """
    alpha = _alpha_of(order, lambda a: a > 0.0,
                      "integral order must be positive")
    return _at(x, _integral_rows(*_on_lattice(f, x, ctx, 0, alpha), alpha,
                                 ctx))


def lemma_beta_integral(a: float, x, order_alpha, lam, params: QParams,
                        ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL):
    """Closed form of the beta-type q-integral
    int_a^x t**(p-1) (x**p - (qt)**p)^(alpha-1) (t**p - a**p)^(lambda) d_q t
    = (1/[p]_q) * Gamma_Q(alpha) Gamma_Q(lambda+1) / Gamma_Q(alpha+lambda+1)
      * (x**p - a**p)^(alpha+lambda),  Q = q**p.

    ndarrays of x, alpha and lambda broadcast to the array of values, from
    one q-Gamma pass and one q-power call; both are elementwise, so each
    value is the bits of its own call.
    """
    order_alpha = _alpha_of(order_alpha, lambda v: v > 0.0,
                            "alpha must be positive")
    lam = _alpha_of(lam, lambda v: v > -1.0, "lambda must exceed -1")
    for v in np.ravel(x).tolist():
        if not (v > a and a >= 0.0):
            raise DomainError(f"need x > a >= 0, got x={v}, a={a}")
    g_alpha, g_lam, g_sum = q_gamma(np.array(np.broadcast_arrays(
        order_alpha, lam + 1.0, order_alpha + lam + 1.0)), params.qp, ctrl)
    return (_value(g_alpha * g_lam / g_sum / q_number(params.p, params.q))
            * q_power_general(x, a, order_alpha + lam, params, ctrl))


def frac_derivative_rl(f: ScalarFunction, x, order,
                       ctx: OperatorContext):
    """Riemann-Liouville-type q-fractional derivative D^alpha f at x.

    x**(1-p) D_q J^(1-alpha) f is frac_integral's formula at order -alpha
    (Annaby and Mansour, LNM 2056, 2012) at every x > a: J^(1-alpha) f(qx)
    is int_0^qx - int_0^a, also where qx <= a. Order 0 is the identity. x
    and order are as for frac_integral.
    """
    alpha = _alpha_of(order, lambda a: 0.0 <= a < 1.0,
                      "derivative order must lie in [0, 1)")
    if not (alpha.any() if isinstance(alpha, np.ndarray) else alpha):
        grid, rows, _ = _grid(x, ctx)
        return _at(x, _each(lambda _: _table(f, grid[..., :rows]), alpha))
    _alpha_of(alpha, lambda a: a > 0.0, "derivative order must lie in (0, 1)")
    return _at(x, _integral_rows(*_on_lattice(f, x, ctx, 0, alpha), -alpha,
                                 ctx))


def caputo_derivative(f: ScalarFunction, x, order, ctx: OperatorContext):
    """Caputo-type derivative: the RL derivative of w -> f(w) - f(a), at a
    point or at the nodes of a QLattice."""
    fa = np.expand_dims(f(ctx.a), -1)  # one per row of a family
    return frac_derivative_rl(_FromTable(lambda w: _tabulate(f, w) - fa),
                              x, order, ctx)


def caputo_derivative_simplified(f: ScalarFunction, dqf: ScalarFunction,
                                 x, order, ctx: OperatorContext):
    """Caputo derivative through the q-derivative of f:

    ([p]_q)**alpha / Gamma_Q(1-alpha) *
    int_a^x (D_q f)(w) (x**p - (wq)**p)^(-alpha) d_q w,

    J^(1-alpha) of w**(1-p) D_q f, at tilt 1 - p. dqf must be the
    q-derivative of f (analytic or via q_derivative). The kernel argument
    is wq: integrating by parts and differentiating under the Jackson sum
    produces the shifted kernel, and only that form reproduces the
    definitional Caputo derivative. x and order are as for frac_integral.
    """
    alpha = _alpha_of(order, lambda a: 0.0 < a < 1.0,
                      "derivative order must lie in (0, 1)")
    return _at(x, _integral_rows(*_on_lattice(dqf, x, ctx, 0, alpha),
                                 1.0 - alpha, ctx, 1.0 - ctx.params.p))


def caputo_rl_relation_residual(f: ScalarFunction, x, order,
                                ctx: OperatorContext):
    """Diagnostic residual of the RL/Caputo relation:

    D^alpha f(x) - cD^alpha f(x)
      - f(a) ([p]_q)**alpha / Gamma_Q(1-alpha) * (x**p - a**p)^(-alpha).

    Approximately zero whenever both derivative types exist. x and order
    are as for frac_integral: a lattice or an ndarray of points gives its
    residuals on a last axis, and an ndarray of orders one row per order.
    """
    alpha = _alpha_of(order)
    fa = f(ctx.a)
    xs = np.array(x.nodes) if isinstance(x, QLattice) else x
    fa_col, exponent = np.expand_dims(fa, -1), -alpha  # fa_col: one per row
    if isinstance(xs, np.ndarray):  # the points' axis is last
        fa, exponent = fa_col, np.expand_dims(exponent, -1)
    coef = q_number(ctx.params.p, ctx.params.q)
    shift = _each(lambda a, gamma, power: fa * (coef ** a / gamma) * power,
                  alpha, q_gamma(1.0 - alpha, ctx.params.qp, ctx.ctrl),
                  q_power_general(xs, ctx.a, exponent, ctx.params, ctx.ctrl))

    def table(w):
        t = _tabulate(f, w)
        return np.vstack((t, t - fa_col))

    # D f and cD f (the RL derivative of f - f(a)) as one family pass over
    # [f, f - f(a)], f tabulated once: each row keeps its own pass's bits
    d, cd = np.split(frac_derivative_rl(_FromTable(table), x, alpha, ctx), 2,
                     axis=-1 - np.ndim(xs))
    return _value(np.reshape(d - cd, np.shape(alpha) + fa_col.shape[:-1]
                             + np.shape(xs))) - shift


def bound_constant(order, ctx: OperatorContext, b: float,
                   gamma: float | None = None) -> float:
    """Operator-norm bound A for J^alpha on C_q[a, b]:

    ([p]_q)**(1-alpha) / ([p alpha]_q Gamma_Q(alpha)) *
    max over the q-lattice of [a, b] of |(x**p - a**p)^(alpha)|.

    For alpha > 0 the q-power grows with x, so the max is its value at b.
    gamma is Gamma_Q(alpha) where the caller holds it already, as a
    LatticeKernel of beta = alpha - 1 does; by default q_gamma's. An
    ndarray of orders gives one bound per order, each its own call's bits.
    """
    alpha = _alpha_of(order)
    if not b > ctx.a:
        raise DomainError(f"need b > a, got b={b}, a={ctx.a}")
    q, p = ctx.params.q, ctx.params.p
    if gamma is None:
        gamma = q_gamma(alpha, ctx.params.qp, ctx.ctrl)
    coef = _each(lambda a, g: q_number(p, q) ** (1.0 - a)
                 / (q_number(p * a, q) * g), alpha, gamma)
    return coef * abs(q_power_general(b, ctx.a, alpha, ctx.params, ctx.ctrl))


def inversion_residuals(f: ScalarFunction, lattice: QLattice, order,
                        ctx: OperatorContext) -> tuple[float, float]:
    """Max-norm residuals of the inversion identities over the lattice
    nodes x with qx > a:

    (max |cD^alpha(J^alpha f)(x) - f(x)|,
     max |J^alpha(cD^alpha f)(x) - (f(x) - f(a))|),

    floats for one function, arrays of k maxima for a family, and for an
    ndarray of orders one row of these per order, each pass serving all.

    The lattice ratio must be q. Everything lives on one geometric grid
    b q**j, with f tabulated once: the inner operator is one kernel pass
    over the grid nodes the outer pass reads, and extends by zero at and
    below a.
    """
    alpha = _alpha_of(order)
    q, a = ctx.params.q, ctx.a
    fa = np.expand_dims(f(a), -1)
    stack = np.shape(alpha) + fa.shape[:-1]
    rows = sum(1 for x in lattice.nodes if q * x > a)
    if rows == 0:
        return _value(np.zeros(stack)), _value(np.zeros(stack))
    n = _sum_length(q, ctx.params.p, ctx.ctrl)
    f_grid, f_low, grid, rows = _on_lattice(
        f, replace(lattice, depth=rows), ctx, n - 1, alpha)

    # J f and cD f at the rows + n - 1 nodes the outer passes read
    jf, cdf = np.zeros((2,) + stack + (rows + n - 1,))
    live = int(np.count_nonzero(grid[:rows + n - 1] > a))
    jf[..., :live] = _integral_rows(f_grid, f_low, grid, live, alpha, ctx)
    cdf[..., :live] = _integral_rows(
        f_grid - fa, None if f_low is None else f_low - fa, grid, live,
        -alpha, ctx)
    # J f vanishes at a, so cD^alpha(J f) = D^alpha(J f)
    left = (_integral_rows(jf, None, grid, rows, -alpha, ctx)
            - f_grid[..., :rows])
    right = (_integral_rows(cdf, None, grid, rows, alpha, ctx)
             - (f_grid[..., :rows] - fa))
    return (_value(np.max(np.abs(left), axis=-1)),
            _value(np.max(np.abs(right), axis=-1)))
