"""The generalized q-fractional integral, the Riemann-Liouville-type
q-fractional derivative, and the Caputo-type derivative in both its
definitional and simplified forms, plus the closed-form beta-integral lemma
and the boundedness constant.

All integrals are Jackson sums over geometric lattices; the kernel
(x**p - (wq)**p)^(beta) at node w = x q**i reduces to a pure power of
q**p, so kernel weights for a whole sum are one q-product ratio pass in
O(N + product length). At the nodes of a QLattice every
operator value comes from one LatticeKernel pass over f tabulated once; a
point x is the one-node lattice QLattice(x, q, 1). A family of k functions
(see qcalc) shares that pass: its values run along the last axis, and the
operators return one row per function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .qcalc import QLattice, ScalarFunction, _FromTable, _nodes, _tabulate
from .qcore import (
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
        if self.a < 0.0:
            raise DomainError(f"lower limit a must be nonnegative, got {self.a}")


def _alpha_of(order) -> float:
    """Accept a FracOrder or a bare float order (the operators also serve
    auxiliary orders like 1 - alpha and sums alpha + beta <= 1)."""
    if isinstance(order, FracOrder):
        return order.alpha
    return float(order)


def _convolve(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The valid values of x convolved with table along the last axis, one
    np.convolve per row of a stack."""
    if x.ndim == 1:
        return np.convolve(x, table, "valid")
    return np.stack([_convolve(row, table) for row in x])


class LatticeKernel:
    """The Jackson kernel sum int_a^t v(w) f(w) (t**p - (wq)**p)^(beta)
    d_q w at every row node t_m = t_0 q**m of a geometric node table, in
    one pass over f tabulated once. The weight v is "w**(p-1)" (J), "1"
    (the Caputo integrand D_q f) or "w**(p-1)/t**p" (D's inner sums, which
    carry its outer t**(1-p) over its q-difference divisor t).

    Each row has one power of its node, the head; every other factor lies
    in [0, 1]. At w = t_m q**i the kernel is t_m**(p beta) k_i with one
    weight table k (c = q**p), and the Jackson weight w times w**(e - 1),
    e = p for J and D and 1 for "1", is t_m**e (q**e)**i, so the sums of
    all rows are one correlation, head[m] * sum_{i<n} w_i f(t_0 q**(m+i))
    with w_i = k_i (q**e)**i; head[m] = (1 - q) t_m**(((1 + p beta) + (e -
    1)) + outer), outer = -p for D and 0 else, is past float range only
    where the value is. For a > 0 the subtracted sums over [0, a] read f
    at the lower nodes w = a q**i, whose weight t_m**e (a/t_m)**e
    (q**e)**i is the same table under the same head, times the row scale
    (a/t_m)**e <= 1: a row is head[m] * (upper sum - (a/t_m)**e lower
    sum). Row m weighs the lower sum with k at c = (aq/t_m)**p, and since
    c Q**i steps down the rows by Q, every row reads one table K of rows +
    n - 1 weights built from the deepest row's c: row m's weights are
    K[rows-1-m+i], a Toeplitz matrix applied as a second convolution. This
    is the matrix view of discrete fractional calculus (Podlubny, FCAA
    2000). upper and lower hold w and K reversed, and jackson the
    geometric table (q**e)**i: at a small p, q**i underflows long before
    q**(ip) is negligible. Each sum is a direct np.convolve, whose rows
    keep their own digits (an FFT's error follows the largest row).

    Its first weight is (Q; Q)_inf / (Q**(1+beta); Q)_inf, so gamma = k_0
    (1 - Q)**(-beta) is Gamma_Q(1 + beta), the operator coefficients' own.
    """

    def __init__(self, params: QParams, beta: float, a: float,
                 ctrl: SeriesControl, nodes: np.ndarray,
                 weight: str = "w**(p-1)"):
        self.params = params
        q, p = params.q, params.p
        e, outer = {"w**(p-1)": (p, 0.0), "1": (1.0, 0.0),
                    "w**(p-1)/t**p": (p, -p)}[weight]
        log_Q = p * math.log(q)
        self.nodes = nodes = np.asarray(nodes, dtype=float)
        rows = len(nodes)
        self.n = n = _sum_length(q, p, ctrl)
        self.jackson = _nodes(1.0, q ** e, n)  # q**i itself at e = 1
        weights = _kernel_weights(log_Q, beta, log_Q, n, ctrl)
        self.gamma = float(weights[0]) * (1.0 - params.qp) ** -beta
        self.upper = (weights * self.jackson)[::-1]
        self.power = ((1.0 + p * beta) + (e - 1.0)) + outer
        self.head = (1.0 - q) * _power(nodes, self.power, p)
        self.lower = None
        if a > 0.0:
            self.low_scale = (a / nodes) ** e
            self.lower = _kernel_weights(log_Q, beta,
                                         p * math.log(a * q / nodes[-1]),
                                         rows + n - 1, ctrl)[::-1]

    @np.errstate(over="ignore", invalid="ignore")
    def apply(self, f: np.ndarray, f_low: np.ndarray | None = None
              ) -> np.ndarray:
        """Kernel sums at every row node, from f itself at t_0 q**j, j <
        rows + n - 1 (a shorter table: f = 0 past its end), and f_low at
        _nodes(a, q, n) (None: f = 0 on [0, a]). A (k, len) stack gives
        (k, rows); a row past float range raises, as _checked_product."""
        size = len(self.head) + self.n - 1
        f = np.asarray(f, dtype=float)[..., :size]
        if f.shape[-1] < size:
            pad = np.zeros(f.shape[:-1] + (size - f.shape[-1],))
            f = np.concatenate((f, pad), axis=-1)
        sums = [_convolve(f, self.upper)]
        row = sums[0]
        if f_low is not None and self.lower is not None:
            sums.append(_convolve(self.jackson * f_low, self.lower))
            row = row - self.low_scale * sums[1]
        return _checked_product(self.head * row, self.nodes, self.power,
                                self.params.p, "kernel row factor", *sums)


def _check_above(x: float, a: float) -> None:
    if not x > a:
        raise DomainError(f"evaluation point must exceed the lower limit, "
                          f"got s={x}, a={a}")


def _point(x: float, ctx: OperatorContext) -> QLattice:
    """The one-node lattice of a point x > a."""
    _check_above(x, ctx.a)
    return QLattice(x, ctx.params.q, 1)


def _value(v):
    """A Python float for one function, the array of k for a family."""
    return float(v) if v.ndim == 0 else v


def _on_lattice(f: ScalarFunction, lattice: QLattice, ctx: OperatorContext,
                extra: int = 0):
    """f tabulated for one kernel pass over the nodes of a lattice: f on the
    geometric grid b q**j the pass reads, plus `extra` rows (1 for a
    q-difference stencil, whose x reads qx > a), and at the lower nodes
    (None for a = 0), the grid, and the number of lattice nodes."""
    q, a = ctx.params.q, ctx.a
    if lattice.q != q:
        raise DomainError(f"lattice ratio {lattice.q} differs from q={q}")
    xs = lattice.nodes
    for x in xs:
        _check_above(x, a)
        if extra and not q * x > a:
            raise DomainError(
                f"q-difference stencil leaves the domain at x={x}: "
                f"qx={q * x} <= a={a}")
    n = _sum_length(q, ctx.params.p, ctx.ctrl)
    grid = _nodes(lattice.b, q, len(xs) + n - 1 + extra)
    low = _tabulate(f, _nodes(a, q, n)) if a > 0.0 else None
    return _tabulate(f, grid), low, grid, len(xs)


def _integral_rows(f_grid, f_low, grid, rows, alpha, ctx) -> np.ndarray:
    """J^alpha f at grid[:rows]; f_grid must cover rows + n - 1 nodes."""
    kernel = LatticeKernel(ctx.params, alpha - 1.0, ctx.a, ctx.ctrl,
                           grid[:rows])
    return (q_number(ctx.params.p, ctx.params.q) ** (1.0 - alpha)
            * (kernel.apply(f_grid, f_low) / kernel.gamma))


def _derivative_rows(f_grid, f_low, grid, rows, alpha, ctx) -> np.ndarray:
    """D^alpha f at grid[:rows], from inner sums whose heads carry x**-p =
    q**p (qx)**-p, D's outer x**(1-p) over its q-difference divisor x;
    f_grid covers rows + n nodes, all above a."""
    q, p = ctx.params.q, ctx.params.p
    kernel = LatticeKernel(ctx.params, -alpha, ctx.a, ctx.ctrl,
                           grid[:rows + 1], "w**(p-1)/t**p")
    inner = kernel.apply(f_grid, f_low) / kernel.gamma
    x, here, below = grid[:rows], inner[..., :-1], inner[..., 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        out = q_number(p, q) ** alpha * (here - q ** p * below) / (1.0 - q)
    return _checked_product(out, x, kernel.power, p, "kernel row factor",
                            here, below)


def frac_integral(f: ScalarFunction, x, order,
                  ctx: OperatorContext):
    """q-fractional integral J^alpha f at x:

    ([p]_q)**(1-alpha) / Gamma_{q**p}(alpha) *
    int_a^x w**(p-1) f(w) (x**p - (wq)**p)^(alpha-1) d_q w.

    x is a QLattice with ratio q, for the array of values at its nodes from
    one lattice-kernel pass, or a point x > a, the one-node lattice, for
    its value as a float. A family of k functions gives k rows (k values
    at a point).
    """
    if not isinstance(x, QLattice):
        return _value(frac_integral(f, _point(x, ctx), order, ctx)[..., 0])
    alpha = _alpha_of(order)
    if not alpha > 0.0:
        raise DomainError(f"integral order must be positive, got {alpha}")
    return _integral_rows(*_on_lattice(f, x, ctx), alpha, ctx)


def lemma_beta_integral(a: float, x, order_alpha: float, lam: float,
                        params: QParams,
                        ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL):
    """Closed form of the beta-type q-integral
    int_a^x t**(p-1) (x**p - (qt)**p)^(alpha-1) (t**p - a**p)^(lambda) d_q t
    = (1/[p]_q) * Gamma_Q(alpha) Gamma_Q(lambda+1) / Gamma_Q(alpha+lambda+1)
      * (x**p - a**p)^(alpha+lambda),  Q = q**p.

    An ndarray of x gives the array of values, with the q-Gammas computed
    once.
    """
    if not order_alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {order_alpha}")
    if not lam > -1.0:
        raise DomainError(f"lambda must exceed -1, got {lam}")
    if not (np.all(np.asarray(x) > a) and a >= 0.0):
        raise DomainError(f"need x > a >= 0, got x={x}, a={a}")
    return (float(_lemma_constants(order_alpha, lam, params, ctrl))
            * q_power_general(x, a, order_alpha + lam, params, ctrl))


def _lemma_constants(alpha, lam, params: QParams, ctrl: SeriesControl):
    """The lemma's Gamma_Q(alpha) Gamma_Q(lambda+1) / Gamma_Q(alpha+lambda+1)
    / [p]_q, for floats or equal-shape arrays of alpha and lambda, from one
    q-Gamma pass (q_gamma is elementwise, so each keeps its bits)."""
    g_alpha, g_lam, g_sum = q_gamma(
        np.array([alpha, lam + 1.0, alpha + lam + 1.0]), params.qp, ctrl)
    return g_alpha * g_lam / g_sum / q_number(params.p, params.q)


def frac_derivative_rl(f: ScalarFunction, x, order,
                       ctx: OperatorContext):
    """Riemann-Liouville-type q-fractional derivative D^alpha f at x.

    The outer x**(1-p) D_q is formed numerically from the inner integral
    evaluated at x and qx, the next row of the lattice; order 0 is the
    identity. x is a QLattice or a point, as for frac_integral.
    """
    if not isinstance(x, QLattice):
        return _value(
            frac_derivative_rl(f, _point(x, ctx), order, ctx)[..., 0])
    alpha = _alpha_of(order)
    if alpha == 0.0:
        return _tabulate(f, np.array(x.nodes))
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"derivative order must lie in [0, 1), got {alpha}")
    return _derivative_rows(*_on_lattice(f, x, ctx, 1), alpha, ctx)


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
    int_a^x (D_q f)(w) (x**p - (wq)**p)^(-alpha) d_q w.

    dqf must be the q-derivative of f (analytic or via q_derivative). The
    kernel argument is wq: integrating by parts and differentiating under the
    Jackson sum produces the shifted kernel, and only that form reproduces the
    definitional Caputo derivative. x is a QLattice or a point, as for
    frac_integral.
    """
    if not isinstance(x, QLattice):
        return _value(caputo_derivative_simplified(
            f, dqf, _point(x, ctx), order, ctx)[..., 0])
    alpha = _alpha_of(order)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"derivative order must lie in (0, 1), got {alpha}")
    dq_grid, dq_low, grid, rows = _on_lattice(dqf, x, ctx)
    kernel = LatticeKernel(ctx.params, -alpha, ctx.a, ctx.ctrl, grid[:rows],
                           "1")
    return (q_number(ctx.params.p, ctx.params.q) ** alpha / kernel.gamma
            * kernel.apply(dq_grid, dq_low))


def caputo_rl_relation_residual(f: ScalarFunction, x: float, order,
                                ctx: OperatorContext) -> float:
    """Diagnostic residual of the RL/Caputo relation:

    D^alpha f(x) - cD^alpha f(x)
      - f(a) ([p]_q)**alpha / Gamma_Q(1-alpha) * (x**p - a**p)^(-alpha).

    Approximately zero whenever both derivative types exist.
    """
    alpha = _alpha_of(order)
    fa = f(ctx.a)
    shift = (fa * (q_number(ctx.params.p, ctx.params.q) ** alpha
                   / q_gamma(1.0 - alpha, ctx.params.qp, ctx.ctrl))
             * q_power_general(x, ctx.a, -alpha, ctx.params, ctx.ctrl))
    fa_col = np.expand_dims(fa, -1)  # one per row of a family

    def table(w):
        t = _tabulate(f, w)
        return np.vstack((t, t - fa_col))

    # D f and cD f (the RL derivative of f - f(a)) as one family pass over
    # [f, f - f(a)], f tabulated once: each row keeps its own pass's bits
    d, cd = np.split(frac_derivative_rl(_FromTable(table), x, order, ctx), 2)
    return _value(np.reshape(d - cd, np.shape(fa))) - shift


def bound_constant(order, ctx: OperatorContext, b: float,
                   gamma: float | None = None) -> float:
    """Operator-norm bound A for J^alpha on C_q[a, b]:

    ([p]_q)**(1-alpha) / ([p alpha]_q Gamma_Q(alpha)) *
    max over the q-lattice of [a, b] of |(x**p - a**p)^(alpha)|.

    For alpha > 0 the q-power grows with x, so the max is its value at b.
    At a = 0 it is b**(p alpha), numpy's power as q_power_general takes it.
    gamma is Gamma_Q(alpha) where the caller holds it already, as a
    LatticeKernel of beta = alpha - 1 does; by default q_gamma's.
    """
    alpha = _alpha_of(order)
    if not b > ctx.a:
        raise DomainError(f"need b > a, got b={b}, a={ctx.a}")
    q, p = ctx.params.q, ctx.params.p
    if gamma is None:
        gamma = q_gamma(alpha, ctx.params.qp, ctx.ctrl)
    coef = q_number(p, q) ** (1.0 - alpha) / (q_number(p * alpha, q) * gamma)
    if ctx.a == 0.0:
        return coef * float(_power(np.array([b]), p * alpha, p,
                                   "q-power factor")[0])
    return coef * abs(q_power_general(b, ctx.a, alpha, ctx.params, ctx.ctrl))


def inversion_residuals(f: ScalarFunction, lattice: QLattice, order,
                        ctx: OperatorContext) -> tuple[float, float]:
    """Max-norm residuals of the inversion identities over the lattice
    nodes x with qx > a:

    (max |cD^alpha(J^alpha f)(x) - f(x)|,
     max |J^alpha(cD^alpha f)(x) - (f(x) - f(a))|),

    floats for one function, arrays of k maxima for a family.

    The lattice ratio must be q. Everything lives on one geometric grid
    b q**j, with f tabulated once: the inner operator is one kernel pass
    over the grid nodes the outer pass reads, and extends by zero at and
    below a (for cD, wherever qw <= a).
    """
    alpha = _alpha_of(order)
    q, a = ctx.params.q, ctx.a
    rows = sum(1 for x in lattice.nodes if q * x > a)
    if rows == 0:
        return 0.0, 0.0
    n = _sum_length(q, ctx.params.p, ctx.ctrl)
    f_grid, f_low, grid, rows = _on_lattice(
        f, replace(lattice, depth=rows), ctx, n)
    fa = np.expand_dims(f(a), -1)
    stack = f_grid.shape[:-1]

    jf = np.zeros(stack + (rows + n,))
    live = int(np.count_nonzero(grid[:rows + n] > a))
    jf[..., :live] = _integral_rows(f_grid, f_low, grid, live, alpha, ctx)
    # J f vanishes at a, so cD^alpha(J f) = D^alpha(J f)
    left = (_derivative_rows(jf, None, grid, rows, alpha, ctx)
            - f_grid[..., :rows])

    cdf = np.zeros(stack + (rows + n - 1,))
    live = int(np.count_nonzero(q * grid[:rows + n - 1] > a))
    cdf[..., :live] = _derivative_rows(
        f_grid - fa, None if f_low is None else f_low - fa, grid, live,
        alpha, ctx)
    right = (_integral_rows(cdf, None, grid, rows, alpha, ctx)
             - (f_grid[..., :rows] - fa))
    return (_value(np.max(np.abs(left), axis=-1)),
            _value(np.max(np.abs(right), axis=-1)))
