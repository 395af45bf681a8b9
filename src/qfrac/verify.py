"""Named registry of the library's closed-form identity checks.

Each identity runs over a parameter grid and reports its worst error against
a fixed tolerance. The CLI's `verify` command runs the whole registry, and
acceptance criteria 1-5 assert on `run_identity` for the lemma, q-power,
Caputo-equivalence, inversion and boundedness checks, so this module is
their only implementation. Grids may be restricted to particular q / p values.
"""

from __future__ import annotations

import math
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
from .qcalc import QLattice, jackson_integral, q_derivative, sup_norm
from .qcore import (
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
    _product_length,
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


def _check_lemma(restrict, ctrl) -> float:
    worst = 0.0
    for q, p in _pairs(restrict):
        params = QParams(q, p)
        for alpha in (0.3, 0.7, 1.2):
            for lam in (0.0, 0.5, 1.0):
                for x in (0.5, 1.0, 2.0):
                    def integrand(t):
                        return (t ** (p - 1.0)
                                * q_power_general(x, q * t, alpha - 1.0,
                                                  params, ctrl)
                                * t ** (p * lam))
                    lhs = jackson_integral(integrand, 0.0, x, q, ctrl)
                    rhs = lemma_beta_integral(0.0, x, alpha, lam, params,
                                              ctrl)
                    worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def _check_qpower_derivatives(restrict, ctrl) -> float:
    rng = np.random.default_rng(1234)
    qs, ps = _grid(restrict)
    worst = 0.0
    for _ in range(100):
        q = float(rng.choice(qs))
        p = float(rng.choice(ps))
        params = QParams(q, p)
        alpha = float(rng.uniform(0.2, 1.8))
        x = float(rng.uniform(0.5, 2.0))
        u = float(rng.random())
        # one draw, two ranges: y on [0, 0.9 qx) and on [0.1 qx, 0.9 qx),
        # each the value rng.uniform(lo, hi) = lo + (hi - lo) u would give
        lo, hi = 0.1 * q * x, 0.9 * q * x
        qn = q_number(p * alpha, q)
        pw = lambda s, t, e: q_power_general(s, t, e, params, ctrl)
        rel = lambda lhs, rhs: abs(lhs - rhs) / max(abs(rhs), 1e-300)
        for y in (hi * u, lo + (hi - lo) * u):
            lhs_x = (pw(x, y, alpha) - pw(q * x, y, alpha)) / ((1.0 - q) * x)
            worst = max(worst, rel(lhs_x, x ** (p - 1.0) * qn
                                   * pw(x, y, alpha - 1.0)))
            if y > 0.0:
                lhs_y = -pw(x, y, alpha) * math.expm1(
                    _log_product_ratio((q * y / x) ** p, alpha, params, ctrl)
                    - _log_product_ratio((y / x) ** p, alpha, params, ctrl)
                ) / ((1.0 - q) * y)
                worst = max(worst, rel(lhs_y, -y ** (p - 1.0) * qn
                                       * pw(x, q * y, alpha - 1.0)))
    return worst


def _log_product_ratio(r: float, alpha: float, params: QParams,
                       ctrl: SeriesControl) -> float:
    """L(r) = log((r; Q)_inf / (Q**alpha r; Q)_inf), Q = q**p, summed factor
    by factor over the product lengths q_power_general uses.

    At r = (y/x)**p the q-power is pw(x, y) = x**(p alpha) exp(L(r)), so
    pw(x, y) - pw(x, qy) = -pw(x, y) expm1(L((qy/x)**p) - L((y/x)**p)).
    That keeps its digits where y**p << x**p, where the plain difference
    subtracts two nearly equal O(1) values.
    """
    Q = params.qp
    s = Q**alpha * r
    return math.fsum(
        [math.log1p(-r * Q**j) for j in range(_product_length(r, Q, ctrl))]
        + [-math.log1p(-s * Q**j)
           for j in range(_product_length(s, Q, ctrl))])


def _family(q: float, p: float) -> list:
    """(f, D_q f) for f = w**e, D_q f = [e]_q w**(e-1), e in 1, 2, 3, 0.7 p."""
    return [(lambda w, e=e: w**e,
             lambda w, e=e, c=q_number(e, q): c * w ** (e - 1.0))
            for e in (1.0, 2.0, 3.0, 0.7 * p)]


def _horner(c0: float, c1: float, c2: float, c3: float, c4: float):
    """The quartic with these coefficients, highest first, in plain floats:
    bit for bit the value np.polyval gives."""
    return lambda w: (((c0 * w + c1) * w + c2) * w + c3) * w + c4


def _check_caputo_relation(restrict, ctrl) -> float:
    worst = 0.0
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.25, ctrl=ctrl)
        for alpha in (0.25, 0.5, 0.75):
            # qx must stay above a for the RL stencil, even at q = 0.3
            for f, _ in _family(q, p)[:2]:
                for x in (0.9, 1.0):
                    worst = max(worst, abs(caputo_rl_relation_residual(
                        f, x, FracOrder(alpha), ctx)))
    return worst


def _check_caputo_equivalence(restrict, ctrl) -> float:
    worst = 0.0
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        cases = [(f, dqf, 12) for f, dqf in _family(q, p)]
        # 1 + w^2 only to depth 8: deeper, f(w) - f(0) in the definitional
        # form cancels to few digits (2.6e-8 at q = 0.3, p = 2,
        # alpha = 0.75, node 11)
        cases.append((lambda w: 1.0 + w * w, lambda w: (1.0 + q) * w, 8))
        for alpha in (0.25, 0.5, 0.75):
            order = FracOrder(alpha)
            for f, dqf, depth in cases:
                lattice = QLattice(1.0, q, depth)
                d1 = caputo_derivative(f, lattice, order, ctx)
                d2 = caputo_derivative_simplified(f, dqf, lattice, order, ctx)
                worst = max(worst, float(np.max(np.abs(d1 - d2))))
    return worst


def _check_corollary(restrict, ctrl) -> float:
    """Caputo derivative through the plain q-derivative, two equivalent
    routes: cD f = J^(1-alpha)(w**(1-p) D_q f), and the same with the order
    raised to 2-alpha and the outer x**(1-p) D_q applied on top."""
    worst = 0.0
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        for alpha in (0.25, 0.5, 0.75):
            order = FracOrder(alpha)
            for f, dqf in _family(q, p)[:3]:
                g = lambda w: w ** (1.0 - p) * dqf(w)
                inner = lambda s: frac_integral(g, s, 2.0 - alpha, ctx)
                for x in (0.7, 1.0):
                    lhs = caputo_derivative(f, x, order, ctx)
                    via_j = frac_integral(g, x, 1.0 - alpha, ctx)
                    wrapped = x ** (1.0 - p) * q_derivative(inner, x, q)
                    worst = max(worst, abs(lhs - via_j), abs(lhs - wrapped))
    return worst


def _check_boundedness(restrict, ctrl) -> float:
    """max over the lattice of |J^0.5 f| minus bound_constant * sup |f|, for
    8 random quartics per (q, p) (seed 99) and 50 more (seed 20240817)
    dealt to the (q, p) pairs in turn."""
    pairs = _pairs(restrict)
    dealt = np.random.default_rng(20240817).uniform(-1.0, 1.0, size=(50, 5))
    rng = np.random.default_rng(99)
    worst = -np.inf
    for j, (q, p) in enumerate(pairs):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        lattice = QLattice(1.0, q, 12)
        norm_lattice = QLattice(1.0, q, 200)
        bound = bound_constant(FracOrder(0.5), ctx, 1.0)
        polys = [rng.uniform(-1.0, 1.0, size=5) for _ in range(8)]
        for coeffs in polys + list(dealt[j::len(pairs)]):
            f = _horner(*coeffs.tolist())
            lhs = float(np.max(np.abs(frac_integral(
                f, lattice, FracOrder(0.5), ctx))))
            worst = max(worst, lhs - bound * sup_norm(f, norm_lattice))
    return float(worst)


def _check_inversion(restrict, ctrl) -> float:
    worst = 0.0
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        lattice = QLattice(1.0, q, 12)
        for alpha in (0.25, 0.5, 0.75):
            for f, _ in _family(q, p):
                worst = max(worst, *inversion_residuals(
                    f, lattice, FracOrder(alpha), ctx))
    return worst


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
                 ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL,
                 inject_fault: bool = False) -> IdentityResult:
    """Run one identity check; inject_fault perturbs the measured error so
    the harness's failure path can be exercised deliberately."""
    check, tol = _REGISTRY[name]
    err = float(check(restrict, ctrl))
    if inject_fault:
        err = abs(err) * 1e9 + 1.0
    return IdentityResult(name=name, max_error=err, tolerance=tol,
                          passed=bool(err <= tol))


def run_registry(restrict: dict | None = None,
                 ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL,
                 inject_fault: str | None = None) -> list[IdentityResult]:
    return [
        run_identity(name, restrict, ctrl, inject_fault=(name == inject_fault))
        for name in IDENTITY_NAMES
    ]
