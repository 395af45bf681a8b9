"""Named registry of the library's closed-form identity checks.

Each identity runs over a parameter grid and reports its worst error against
a fixed tolerance; the CLI's `verify` command and the acceptance suite both
drive this registry. Grids may be restricted to particular q / p values.
"""

from __future__ import annotations

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
    qs = _QS
    ps = _PS
    if restrict:
        if "q" in restrict:
            qs = (restrict["q"],)
        if "p" in restrict:
            ps = (restrict["p"],)
    return qs, ps


def _check_lemma(restrict, ctrl) -> float:
    qs, ps = _grid(restrict)
    worst = 0.0
    for q in qs:
        for p in ps:
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
        y = float(rng.uniform(0.0, 0.9 * q * x))
        lhs_x = (q_power_general(x, y, alpha, params, ctrl)
                 - q_power_general(q * x, y, alpha, params, ctrl)) / (
                     (1.0 - q) * x)
        rhs_x = (x ** (p - 1.0) * q_number(p * alpha, q)
                 * q_power_general(x, y, alpha - 1.0, params, ctrl))
        worst = max(worst, abs(lhs_x - rhs_x) / max(abs(rhs_x), 1e-300))
        if y > 0.0:
            lhs_y = (q_power_general(x, y, alpha, params, ctrl)
                     - q_power_general(x, q * y, alpha, params, ctrl)) / (
                         (1.0 - q) * y)
            rhs_y = (-y ** (p - 1.0) * q_number(p * alpha, q)
                     * q_power_general(x, q * y, alpha - 1.0, params, ctrl))
            worst = max(worst, abs(lhs_y - rhs_y) / max(abs(rhs_y), 1e-300))
    return worst


_SMOOTH_FUNCS = (
    ("w", lambda w: w, lambda q: (lambda w: 1.0)),
    ("w^2", lambda w: w * w, lambda q: (lambda w: (1.0 + q) * w)),
    ("w^3", lambda w: w**3,
     lambda q: (lambda w: (1.0 + q + q * q) * w * w)),
    ("1+w^2", lambda w: 1.0 + w * w, lambda q: (lambda w: (1.0 + q) * w)),
)


def _check_caputo_relation(restrict, ctrl) -> float:
    qs, ps = _grid(restrict)
    worst = 0.0
    for q in qs:
        for p in ps:
            ctx = OperatorContext(QParams(q, p), a=0.25, ctrl=ctrl)
            for alpha in (0.25, 0.5, 0.75):
                # qx must stay above a for the RL stencil, even at q = 0.3
                for _, f, _dq in _SMOOTH_FUNCS[:2]:
                    for x in (0.9, 1.0):
                        worst = max(worst, abs(caputo_rl_relation_residual(
                            f, x, FracOrder(alpha), ctx)))
    return worst


def _check_caputo_equivalence(restrict, ctrl) -> float:
    qs, ps = _grid(restrict)
    worst = 0.0
    for q in qs:
        for p in ps:
            ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
            lattice = QLattice(1.0, q, 8)
            for alpha in (0.25, 0.5, 0.75):
                order = FracOrder(alpha)
                for _, f, dq_maker in _SMOOTH_FUNCS:
                    dqf = dq_maker(q)
                    for x in lattice.nodes:
                        d1 = caputo_derivative(f, x, order, ctx)
                        d2 = caputo_derivative_simplified(f, dqf, x, order,
                                                          ctx)
                        worst = max(worst, abs(d1 - d2))
    return worst


def _check_corollary(restrict, ctrl) -> float:
    """Caputo derivative through the plain q-derivative, two equivalent
    routes: cD f = J^(1-alpha)(w**(1-p) D_q f), and the same with the order
    raised to 2-alpha and the outer x**(1-p) D_q applied on top."""
    qs, ps = _grid(restrict)
    worst = 0.0
    for q in qs:
        for p in ps:
            params = QParams(q, p)
            ctx = OperatorContext(params, a=0.0, ctrl=ctrl)
            for alpha in (0.25, 0.5, 0.75):
                order = FracOrder(alpha)
                for _, f, dq_maker in _SMOOTH_FUNCS[:3]:
                    dqf = dq_maker(q)
                    g = lambda w: w ** (1.0 - p) * dqf(w)
                    inner = lambda s: frac_integral(g, s, 2.0 - alpha, ctx)
                    for x in (0.7, 1.0):
                        lhs = caputo_derivative(f, x, order, ctx)
                        via_j = frac_integral(g, x, 1.0 - alpha, ctx)
                        wrapped = (x ** (1.0 - p)
                                   * q_derivative(inner, x, q))
                        worst = max(worst, abs(lhs - via_j),
                                    abs(lhs - wrapped))
    return worst


def _check_boundedness(restrict, ctrl) -> float:
    rng = np.random.default_rng(99)
    qs, ps = _grid(restrict)
    worst = -np.inf
    deep = 200
    for q in qs:
        for p in ps:
            params = QParams(q, p)
            ctx = OperatorContext(params, a=0.0, ctrl=ctrl)
            lattice = QLattice(1.0, q, 12)
            norm_lattice = QLattice(1.0, q, deep)
            bound = bound_constant(FracOrder(0.5), ctx, 1.0)
            for _ in range(8):
                coeffs = rng.uniform(-1.0, 1.0, size=5)
                f = lambda w, c=coeffs: float(np.polyval(c, w))
                lhs = float(np.max(np.abs(frac_integral(
                    f, lattice, FracOrder(0.5), ctx))))
                rhs = bound * sup_norm(f, norm_lattice)
                worst = max(worst, lhs - rhs)
    return float(worst)


def _check_inversion(restrict, ctrl) -> float:
    qs, ps = _grid(restrict)
    worst = 0.0
    for q in qs:
        for p in ps:
            ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
            lattice = QLattice(1.0, q, 8)
            r1, r2 = inversion_residuals(lambda w: w * w, lattice,
                                         FracOrder(0.5), ctx)
            worst = max(worst, r1, r2)
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
