"""Named registry of the library's closed-form identity checks.

Each identity runs over a parameter grid and reports its worst error against
a fixed tolerance. The CLI's `verify` command runs the whole registry, and
acceptance criteria 1-5 assert on `run_identity` for the lemma, q-power,
Caputo-equivalence, inversion and boundedness checks, so this module is
their only implementation. Grids may be restricted to particular q / p values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import (
    FracOrder,
    OperatorContext,
    _lemma_constants,
    bound_constant,
    caputo_derivative,
    caputo_derivative_simplified,
    caputo_rl_relation_residual,
    frac_integral,
    inversion_residuals,
)
from .qcalc import QLattice, jackson_integral, q_derivative, sup_norm
from .qcore import (
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
    _kernel_weights,
    _log_q_ratio,
    _power,
    _power_times,
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


# (state, inc) of np.random.default_rng(seed).bit_generator, which numpy's
# SeedSequence derives from the seed
_PCG64_SEEDS = {
    1234: (0x160AD84006FE21EAF69B873D9FE45409,
           0x50C8FB163C7CEA4ED0F51CE6006E4325),
    99: (0xF31B894974AB7054E29B438DD79493EC,
         0xF4188A9A07F2A554F59B2E1B089ED43D),
    20240817: (0x1D69F3DE084E6A5F28AD013E3DAABAA4,
               0x10957D136FB1D369CC7447F2C58CFBE9),
}


class _Pcg64:
    """The draws np.random.default_rng(seed) gives for random(), uniform()
    and choice() of a sequence, without loading numpy.random: O'Neill's
    PCG64 (XSL-RR), numpy's 53-bit doubles, and Lemire's bounded draw on
    32-bit words, the high half of a raw output kept for the next word."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        self.state, self.inc = _PCG64_SEEDS[seed]
        self.half = None  # the buffered high 32 bits

    def _raw(self) -> int:
        self.state = s = (self.state * self._MULT + self.inc) % (1 << 128)
        x, rot = ((s >> 64) ^ s) % (1 << 64), s >> 122
        return ((x >> rot) | (x << (64 - rot))) % (1 << 64)

    def _uint32(self) -> int:
        if self.half is not None:
            word, self.half = self.half, None
            return word
        raw = self._raw()
        self.half = raw >> 32
        return raw % (1 << 32)

    def random(self) -> float:
        return (self._raw() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float, size=None):
        if size is None:
            return lo + (hi - lo) * self.random()
        return np.array([self.uniform(lo, hi)
                         for _ in range(math.prod(size))]).reshape(size)

    def choice(self, seq):
        n = len(seq)
        if n == 1:
            return seq[0]
        m = self._uint32() * n
        while m % (1 << 32) < (1 << 32) % n:  # reject the biased words
            m = self._uint32() * n
        return seq[m >> 32]


def _worst(errors) -> float:
    """The largest of all the error arrays; NaN if any error is NaN."""
    return float(np.max(np.concatenate([np.ravel(e) for e in errors])))


class _FromTable:
    """A test function given by its table (see qcalc): table(ws) gives its
    values at every node, a (k, len(ws)) stack for a family of k, and a
    call at a point is the table at that one node."""

    def __init__(self, table):
        self.table = table

    def __call__(self, w):
        return self.table(np.array([w], dtype=float))[..., 0]


_LEMMA_XS = (0.5, 1.0, 2.0)


def _lemma_cases(params: QParams, ctrl):
    """(alpha, lambda, the closed forms at _LEMMA_XS) of each lemma case in
    turn, each as lemma_beta_integral gives it: the q-Gammas of all cases
    come from one pass, and a case's q-power when the case is reached, so
    a q-power past float range fails where a case-by-case loop fails."""
    alphas, lams = np.array(list(itertools.product((0.3, 0.7, 1.2),
                                                   (0.0, 0.5, 1.0)))).T
    constants = _lemma_constants(alphas, lams, params, ctrl).tolist()
    for alpha, lam, c in zip(alphas.tolist(), lams.tolist(), constants):
        yield alpha, lam, (c * q_power_general(
            np.array(_LEMMA_XS), 0.0, alpha + lam, params, ctrl)).tolist()


def _check_lemma(restrict, ctrl) -> float:
    factor = "lemma integrand factor"
    errors = []
    for q, p in _pairs(restrict):
        for alpha, lam, closed in _lemma_cases(QParams(q, p), ctrl):
            for x, rhs in zip(_LEMMA_XS, closed):
                # a block of Jackson nodes of [0, x] is t_0 q**i: the
                # q-power at q t is x**(p beta) k_i at c = (q t_0 / x)**p
                head = _power(x, p * (alpha - 1.0), p, factor)
                integrand = _FromTable(
                    lambda t: _power_times(t, p * lam, p, factor, _power_times(
                        t, p - 1.0, p, factor, head * _kernel_weights(
                            p * math.log(q), alpha - 1.0,
                            p * math.log(q * t[0] / x), len(t), ctrl))))
                lhs = jackson_integral(integrand, 0.0, x, q, ctrl)
                errors.append(abs(lhs - rhs) / abs(rhs))
    return _worst(errors)


def _check_qpower_derivatives(restrict, ctrl) -> float:
    rng = _Pcg64(1234)
    qs, ps = _grid(restrict)
    draws = [(float(rng.choice(qs)), float(rng.choice(ps)),
              float(rng.uniform(0.2, 1.8)), float(rng.uniform(0.5, 2.0)),
              float(rng.random())) for _ in range(100)]
    rel = lambda lhs, rhs: np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    errors = []
    for q, p in sorted({d[:2] for d in draws}):
        params = QParams(q, p)
        alpha, x, u = np.array([d[2:] for d in draws if d[:2] == (q, p)]).T
        # one draw, two ranges: y on [0, 0.9 qx) and on [0.1 qx, 0.9 qx),
        # each the value rng.uniform(lo, hi) = lo + (hi - lo) u would give
        lo, hi = 0.1 * q * x, 0.9 * q * x
        y = np.concatenate((hi * u, lo + (hi - lo) * u))
        alpha, x = np.tile(alpha, 2), np.tile(x, 2)
        qn = q_number(p * alpha, q)
        pw = lambda s, t, e: q_power_general(s, t, e, params, ctrl)
        at_y = pw(x, y, alpha)
        lhs_x = (at_y - pw(q * x, y, alpha)) / ((1.0 - q) * x)
        errors.append(rel(lhs_x, x ** (p - 1.0) * qn * pw(x, y, alpha - 1.0)))
        # pw(x, y) - pw(x, qy) = -pw(x, y) expm1(L(Qr) - L(r)), with L the
        # log of the q-power's product ratio at r = (y/x)**p: that keeps its
        # digits where y**p << x**p, where the plain difference subtracts
        # two nearly equal O(1) values
        y, x, alpha, at_y, qn = (v[y > 0.0] for v in (y, x, alpha, at_y, qn))
        r = (y / x) ** p
        with np.errstate(divide="ignore"):  # r = 0, a zero base, at large p
            logs = _log_q_ratio(np.log(r), np.log(params.qp**alpha * r),
                                math.log(params.qp), 2, ctrl)[0]
        lhs_y = -at_y * np.expm1(logs[:, 1] - logs[:, 0]) / ((1.0 - q) * y)
        errors.append(rel(lhs_y, -y ** (p - 1.0) * qn
                          * pw(x, q * y, alpha - 1.0)))
    return _worst(errors)


def _family(q: float, p: float, k: int = 4):
    """(f, D_q f) for the family f = w**e, D_q f = [e]_q w**(e-1), e in
    1, 2, 3, 0.7 p, of its first k members."""
    e = np.array([1.0, 2.0, 3.0, 0.7 * p][:k])[:, None]
    c = q_number(e, q)
    return (_FromTable(lambda w: w ** e),
            _FromTable(lambda w: c * w ** (e - 1.0)))


def _horner(coeffs: np.ndarray):
    """The family of quartics whose coefficient rows, highest first, are
    coeffs: bit for bit the values np.polyval gives."""
    c0, c1, c2, c3, c4 = coeffs.T[:, :, None]
    return _FromTable(
        lambda w: (((c0 * w + c1) * w + c2) * w + c3) * w + c4)


def _check_caputo_relation(restrict, ctrl) -> float:
    errors = []
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.25, ctrl=ctrl)
        f, _ = _family(q, p, 2)
        for alpha in (0.25, 0.5, 0.75):
            # qx must stay above a for the RL stencil, even at q = 0.3
            for x in (0.9, 1.0):
                errors.append(np.abs(caputo_rl_relation_residual(
                    f, x, FracOrder(alpha), ctx)))
    return _worst(errors)


def _check_caputo_equivalence(restrict, ctrl) -> float:
    errors = []
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        powers, d_powers = _family(q, p)
        # 1 + w^2 joins as a fifth member, compared to depth 8 only: deeper,
        # f(w) - f(0) in the definitional form cancels to few digits
        # (2.6e-8 at q = 0.3, p = 2, alpha = 0.75, node 11)
        f = _FromTable(lambda w: np.vstack((powers.table(w), 1.0 + w * w)))
        dqf = _FromTable(
            lambda w: np.vstack((d_powers.table(w), (1.0 + q) * w)))
        lattice = QLattice(1.0, q, 12)
        for alpha in (0.25, 0.5, 0.75):
            order = FracOrder(alpha)
            diff = np.abs(caputo_derivative(f, lattice, order, ctx)
                          - caputo_derivative_simplified(f, dqf, lattice,
                                                         order, ctx))
            errors += [diff[:-1], diff[-1, :8]]
    return _worst(errors)


def _check_corollary(restrict, ctrl) -> float:
    """Caputo derivative through the plain q-derivative, two equivalent
    routes: cD f = J^(1-alpha)(w**(1-p) D_q f), and the same with the order
    raised to 2-alpha and the outer x**(1-p) D_q applied on top."""
    errors = []
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        f, dqf = _family(q, p, 3)
        g = _FromTable(lambda w: _power_times(
            w, 1.0 - p, p, "corollary integrand factor", dqf.table(w)))
        for alpha in (0.25, 0.5, 0.75):
            order = FracOrder(alpha)
            inner = lambda s: frac_integral(g, s, 2.0 - alpha, ctx)
            for x in (0.7, 1.0):
                lhs = caputo_derivative(f, x, order, ctx)
                via_j = frac_integral(g, x, 1.0 - alpha, ctx)
                wrapped = x ** (1.0 - p) * q_derivative(inner, x, q)
                errors += [np.abs(lhs - via_j), np.abs(lhs - wrapped)]
    return _worst(errors)


def _check_boundedness(restrict, ctrl) -> float:
    """max over the lattice of |J^0.5 f| minus bound_constant * sup |f|, for
    8 random quartics per (q, p) (seed 99) and 50 more (seed 20240817)
    dealt to the (q, p) pairs in turn."""
    pairs = _pairs(restrict)
    dealt = _Pcg64(20240817).uniform(-1.0, 1.0, size=(50, 5))
    rng = _Pcg64(99)
    errors = []
    for j, (q, p) in enumerate(pairs):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        lattice = QLattice(1.0, q, 12)
        norm_lattice = QLattice(1.0, q, 200)
        bound = bound_constant(FracOrder(0.5), ctx, 1.0)
        f = _horner(np.vstack((rng.uniform(-1.0, 1.0, size=(8, 5)),
                               dealt[j::len(pairs)])))
        lhs = np.max(np.abs(frac_integral(f, lattice, FracOrder(0.5), ctx)),
                     axis=-1)
        errors.append(lhs - bound * sup_norm(f, norm_lattice))
    return _worst(errors)


def _check_inversion(restrict, ctrl) -> float:
    errors = []
    for q, p in _pairs(restrict):
        ctx = OperatorContext(QParams(q, p), a=0.0, ctrl=ctrl)
        lattice = QLattice(1.0, q, 12)
        f, _ = _family(q, p)
        for alpha in (0.25, 0.5, 0.75):
            errors += inversion_residuals(f, lattice, FracOrder(alpha), ctx)
    return _worst(errors)


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
    err = float(check(restrict, ctrl))
    return IdentityResult(name=name, max_error=err, tolerance=tol,
                          passed=bool(err <= tol))


def run_registry(restrict: dict | None = None,
                 ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL
                 ) -> list[IdentityResult]:
    return [run_identity(name, restrict, ctrl) for name in IDENTITY_NAMES]
