"""Named registry of the library's closed-form identity checks.

Each identity runs over a parameter grid and reports its worst error against
a fixed tolerance. The CLI's `verify` command runs the whole registry, and
acceptance criteria 1-5 assert on `run_identity` for the lemma, q-power,
Caputo-equivalence, inversion and boundedness checks, so this module is
their only implementation. Grids may be restricted to particular q / p values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import (
    FracOrder,
    OperatorContext,
    bound_constant,
    caputo_derivative,
    caputo_derivative_simplified,
    caputo_rl_relation_residual,
    frac_integral,
    inversion_residuals,
    lemma_beta_integral,
)
from .qcalc import QLattice, _FromTable, _tabulate, sup_norm
from .qcalc import jackson_integral  # perfbench/tracing.py patches it here
from .qcore import (
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
    _kernel_weights,
    _log_q_ratio,
    _power,
    _sum_length,
    q_number,
    q_power_general,
)

__all__ = ["IdentityResult", "IDENTITY_NAMES", "run_identity", "run_registry"]

_QS = (0.3, 0.5, 0.9)
_PS = (1.0, 2.0)


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool


def _grid(restrict: dict | None):
    restrict = restrict or {}
    qs = (restrict["q"],) if "q" in restrict else _QS
    ps = (restrict["p"],) if "p" in restrict else _PS
    return qs, ps


def _pairs(restrict: dict | None) -> list[tuple[float, float]]:
    qs, ps = _grid(restrict)
    return [(q, p) for q in qs for p in ps]


def _coefficients(rng: random.Random, rows: int) -> np.ndarray:
    """A (rows, 5) table of rng.uniform(-1, 1), drawn row by row."""
    return np.array([[rng.uniform(-1.0, 1.0) for _ in range(5)]
                     for _ in range(rows)])


def _worst(errors) -> float:
    """The largest of all the error arrays; NaN if any error is NaN."""
    return float(np.max(np.concatenate([np.ravel(e) for e in errors])))


_LEMMA_XS = (0.5, 1.0, 2.0)


def _lemma_sums(params: QParams, ctrl):
    """The lemma's Jackson sums and closed forms, one per case and x (x
    fastest). The closed forms are one lemma_beta_integral call, made
    first, each the bits of its own case's call, so a q-power past float
    range (x = 2, p >= 465) fails as a case-by-case loop does. t = x s
    takes the nodes of [0, 1] onto those of [0, x], so each sum is the
    closed form's own x**(p (alpha + lam)) times its value at x = 1,
    (1 - q) sum_i k_i Q**(i (1 + lam)): k_i the kernel weights at c = Q,
    one pass for the three orders, and each case its own dot product."""
    q, p, log_Q = params.q, params.p, params.p * math.log(params.q)
    alphas, lams = np.array((0.3, 0.7, 1.2)), np.array((0.0, 0.5, 1.0))
    orders, xs = (alphas[:, None] + lams)[..., None], np.array(_LEMMA_XS)
    closed = lemma_beta_integral(0.0, xs, alphas[:, None, None],
                                 lams[:, None], params, ctrl)
    n = _sum_length(q, p, ctrl)
    weights = _kernel_weights(log_Q, alphas - 1.0, log_Q, n, ctrl)
    powers = np.exp(np.multiply.outer(1.0 + lams, np.arange(n)) * log_Q)
    sums = (1.0 - q) * np.vecdot(weights[:, None], powers)[..., None]
    lhs = sums * q_power_general(xs, 0.0, orders, params, ctrl)
    return lhs.ravel(), closed.ravel()


def _check_lemma(restrict, ctrl):
    for q, p in _pairs(restrict):
        lhs, rhs = _lemma_sums(QParams(q, p), ctrl)
        yield np.abs(lhs - rhs) / np.abs(rhs)


def _qpower_draws(restrict) -> list[tuple[float, ...]]:
    """The q-power check's 100 cases (q, p, alpha, x, u), each draw one
    Random.random(), the stream Python keeps for a seed."""
    rng = random.Random(1234)
    pick = lambda seq: float(seq[int(len(seq) * rng.random())])
    qs, ps = _grid(restrict)
    return [(pick(qs), pick(ps), rng.uniform(0.2, 1.8),
             rng.uniform(0.5, 2.0), rng.random()) for _ in range(100)]


def _check_qpower_derivatives(restrict, ctrl):
    draws = _qpower_draws(restrict)
    rel = lambda lhs, rhs: np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    for q, p in sorted({d[:2] for d in draws}):
        params = QParams(q, p)
        alpha, x, u = np.array([d[2:] for d in draws if d[:2] == (q, p)]).T
        # one draw, two ranges: y on [0, 0.9 qx) and on [0.1 qx, 0.9 qx),
        # each the value rng.uniform(lo, hi) = lo + (hi - lo) u would give
        lo, hi = 0.1 * q * x, 0.9 * q * x
        y = np.concatenate((hi * u, lo + (hi - lo) * u))
        alpha, x = np.tile(alpha, 2), np.tile(x, 2)
        qn = q_number(p * alpha, q)
        # the four q-powers of the pair's draws, from one elementwise call
        inner = y > 0.0
        at_y, at_qx, below, below_qy = np.split(q_power_general(
            np.concatenate((x, q * x, x, x[inner])),
            np.concatenate((y, y, y, q * y[inner])),
            np.concatenate((alpha, alpha, alpha - 1.0, alpha[inner] - 1.0)),
            params, ctrl), np.cumsum([len(x)] * 3))
        lhs_x = (at_y - at_qx) / ((1.0 - q) * x)
        yield rel(lhs_x, x ** (p - 1.0) * qn * below)
        # pw(x, y) - pw(x, qy) = -pw(x, y) expm1(L(Qr) - L(r)), with L the
        # log of the q-power's product ratio at r = (y/x)**p: that keeps its
        # digits where y**p << x**p, where the plain difference subtracts
        # two nearly equal O(1) values
        y, x, alpha, at_y, qn = (v[inner] for v in (y, x, alpha, at_y, qn))
        r = (y / x) ** p
        with np.errstate(divide="ignore"):  # r = 0, a zero base, at large p
            logs = _log_q_ratio(np.log(r), np.log(params.qp**alpha * r),
                                math.log(params.qp), 2, ctrl)[0]
        lhs_y = -at_y * np.expm1(logs[:, 1] - logs[:, 0]) / ((1.0 - q) * y)
        yield rel(lhs_y, -y ** (p - 1.0) * qn * below_qy)


def _exponents(q: float, p: float, k: int):
    """The columns e and [e]_q of _family's first k members."""
    e = np.array([1.0, 2.0, 3.0, 0.7 * p][:k])[:, None]
    return e, q_number(e, q)


def _family(q: float, p: float, k: int = 4):
    """(f, D_q f) for the family f = w**e, D_q f = [e]_q w**(e-1), e in
    1, 2, 3, 0.7 p, of its first k members."""
    e, c = _exponents(q, p, k)
    return (_FromTable(lambda w: w ** e),
            _FromTable(lambda w: c * w ** (e - 1.0)))


def _horner(coeffs: np.ndarray):
    """The family of quartics whose coefficient rows, highest first, are
    coeffs, by np.polyval's Horner scheme."""
    return _FromTable(lambda w: np.polyval(coeffs.T[:, :, None], w))


# the orders of the derivative checks, one kernel pass serving all three
_ORDERS = np.array((0.25, 0.5, 0.75))


def _check_caputo_relation(restrict, ctrl):
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.25, ctrl=ctrl)
        f, _ = _family(q, p, 2)
        yield np.abs(caputo_rl_relation_residual(
            f, np.array((0.9, 1.0)), _ORDERS, ctx))


def _check_caputo_equivalence(restrict, ctrl):
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        powers, d_powers = _family(q, p)
        # 1 + w^2 joins as a fifth member, compared to depth 8 only: deeper,
        # f(w) - f(0) in the definitional form cancels to few digits
        # (2.6e-8 at q = 0.3, p = 2, alpha = 0.75, node 11)
        f = _FromTable(
            lambda w: np.vstack((_tabulate(powers, w), 1.0 + w * w)))
        dqf = _FromTable(
            lambda w: np.vstack((_tabulate(d_powers, w), (1.0 + q) * w)))
        lattice = QLattice(1.0, q, 12)
        got = caputo_derivative(f, lattice, _ORDERS, ctx)
        want = caputo_derivative_simplified(f, dqf, lattice, _ORDERS, ctx)
        # relative past 1e-8 / eps (4.5e7), where an ulp exceeds 1e-8
        big = np.abs(want) > 1e-8 / np.finfo(float).eps
        diff = np.abs(got - want) / np.where(big, np.abs(want), 1.0)
        yield from (diff[:, :-1], diff[:, -1, :8])


def _check_corollary(restrict, ctrl):
    """Caputo derivative through the plain q-derivative, two equivalent
    routes: cD f = J^(1-alpha)(w**(1-p) D_q f), and the same with the order
    raised to 2-alpha and the outer x**(1-p) D_q applied on top."""
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        # w**(1-p) D_q f = [e]_q w**(e-p), one power per member
        f, _ = _family(q, p, 3)
        e, c = _exponents(q, p, 3)
        g = _FromTable(
            lambda w: c * _power(w, e - p, p, "corollary integrand factor"))
        xs = np.array((0.7, 1.0))
        lhs = caputo_derivative(f, xs, _ORDERS, ctx)
        # J^(1-alpha) g at each x and J^(2-alpha) g at x and at qx, for the
        # outer q-difference, are one pass; qx reads its own grid (qx) q**j
        j = frac_integral(g, np.concatenate((xs, q * xs)),
                          np.concatenate((1.0 - _ORDERS, 2.0 - _ORDERS)), ctx)
        via_j, at_x, at_qx = j[:3, :, :2], j[3:, :, :2], j[3:, :, 2:]
        outer = np.array([x ** (1.0 - p) for x in xs.tolist()])
        wrapped = outer * ((at_x - at_qx) / ((1.0 - q) * xs))
        yield from (np.abs(lhs - via_j), np.abs(lhs - wrapped))


def _check_boundedness(restrict, ctrl):
    """max over the lattice of |J^0.5 f| minus bound_constant * sup |f|, for
    8 random quartics per (q, p) (seed 99) and 50 more (seed 20240817)
    dealt to the (q, p) pairs in turn. The sup is over every node the
    sums read, 12 + n - 1 of them (n = _sum_length), and 200 at least."""
    pairs = _pairs(restrict)
    dealt = _coefficients(random.Random(20240817), 50)
    rng = random.Random(99)
    for j, (q, p) in enumerate(pairs):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        lattice = QLattice(1.0, q, 12)
        norm_lattice = QLattice(1.0, q,
                                max(200, 12 + _sum_length(q, p, ctrl) - 1))
        bound = bound_constant(FracOrder(0.5), ctx, 1.0)
        f = _horner(np.vstack((_coefficients(rng, 8), dealt[j::len(pairs)])))
        lhs = np.max(np.abs(frac_integral(f, lattice, FracOrder(0.5), ctx)),
                     axis=-1)
        yield lhs - bound * sup_norm(f, norm_lattice)


def _check_inversion(restrict, ctrl):
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        lattice = QLattice(1.0, q, 12)
        f, _ = _family(q, p)
        yield from inversion_residuals(f, lattice, _ORDERS, ctx)


_REGISTRY: dict[str, tuple[Callable, float]] = {
    "beta_integral_lemma": (_check_lemma, 1e-9),
    "qpower_q_derivatives": (_check_qpower_derivatives, 1e-8),
    "caputo_rl_relation": (_check_caputo_relation, 1e-8),
    "caputo_equivalence": (_check_caputo_equivalence, 1e-8),
    "caputo_via_rl_corollary": (_check_corollary, 1e-8),
    "integral_boundedness": (_check_boundedness, 0.0),
    "inversion_identities": (_check_inversion, 1e-7),
}

IDENTITY_NAMES = tuple(_REGISTRY)


def run_identity(name: str, restrict: dict | None = None,
                 ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL
                 ) -> IdentityResult:
    """Run one identity check. A NaN error fails."""
    check, tol = _REGISTRY[name]
    err = _worst(check(restrict, ctrl))
    return IdentityResult(name=name, max_error=err, tolerance=tol,
                          passed=bool(err <= tol))


def run_registry(restrict: dict | None = None,
                 ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL
                 ) -> list[IdentityResult]:
    return [run_identity(name, restrict, ctrl) for name in IDENTITY_NAMES]
