"""q-analogue primitives: q-numbers, q-factorials, q-Pochhammer symbols,
q-binomials, the q-Gamma function, and the generalized q-power.

All deformation parameters satisfy 0 < q < 1; the classical limit q -> 1 is
approached but never representable. Everything here is a pure function of its
arguments and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "QParams",
    "SeriesControl",
    "DEFAULT_PRODUCT_CTRL",
    "DEFAULT_INTEGRATION_CTRL",
    "q_number",
    "q_factorial",
    "q_pochhammer_finite",
    "q_pochhammer_infinite",
    "q_binomial",
    "q_gamma",
    "q_power_general",
    "log_q_pochhammer_ratio",
    "q_power_lattice",
]


@dataclass(frozen=True)
class QParams:
    """Deformation pair (q, p) governing every operator.

    q is the deformation base, 0 < q < 1 strictly; p > 0 is the power
    parameter. The derived base q**p drives all base-q^p quantities.
    """

    q: float
    p: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if not self.p > 0.0:
            raise DomainError(f"p must be positive, got {self.p}")

    @property
    def qp(self) -> float:
        """The derived base q**p."""
        return self.q**self.p


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite sums and products.

    abs_tol / rel_tol are tail thresholds (not both zero); a sum or product
    stops once `consecutive_small` successive terms fall below threshold, and
    raises ConvergenceError if max_terms is hit first.
    """

    abs_tol: float = 1e-15
    rel_tol: float = 1e-13
    max_terms: int = 5_000
    consecutive_small: int = 3

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise DomainError("abs_tol and rel_tol must not both be zero")
        if self.max_terms < 1:
            raise DomainError("max_terms must be a positive integer")
        if self.consecutive_small < 1:
            raise DomainError("consecutive_small must be a positive integer")
        if self.max_terms < self.consecutive_small:
            raise DomainError("max_terms must be >= consecutive_small")


# Infinite products: factors approach 1 geometrically, so a tight absolute
# threshold is cheap. Sums get the looser adaptive default.
DEFAULT_PRODUCT_CTRL = SeriesControl(abs_tol=1e-17, rel_tol=0.0, max_terms=10_000,
                                     consecutive_small=3)
DEFAULT_INTEGRATION_CTRL = SeriesControl(abs_tol=1e-15, rel_tol=1e-13,
                                         max_terms=5_000, consecutive_small=3)


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")


def q_number(a: float, q: float) -> float:
    """[a]_q = (1 - q**a) / (1 - q), the q-analogue of a real number."""
    _check_q(q)
    return (1.0 - q**a) / (1.0 - q)


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    _check_q(q)
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    out = 1.0
    for k in range(2, int(n) + 1):
        out *= q_number(k, q)
    return out


def q_pochhammer_finite(a: float, q: float, n: int) -> float:
    """(a; q)_n = prod_{j=0}^{n-1} (1 - q**j a); empty product for n = 0."""
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    out = 1.0
    for j in range(int(n)):
        out *= 1.0 - q**j * a
    return out


def _product_length(a: float, q: float, ctrl: SeriesControl) -> int:
    """Number of factors until |q**j a| stays below threshold.

    The log-tail of the product is bounded by the geometric series
    sum_j |q**j a|, so truncating once the factor offsets are below the
    threshold keeps the skipped tail within tolerance.
    """
    thr = max(ctrl.abs_tol, ctrl.rel_tol)
    mag = abs(a)
    if mag < thr:
        n = 0
    else:
        n = int(math.ceil(math.log(thr / mag) / math.log(q)))
    n += ctrl.consecutive_small
    if n > ctrl.max_terms:
        fixed = ("; this q-product budget is fixed and QFRAC_MAX_TERMS "
                 "does not raise it" if ctrl == DEFAULT_PRODUCT_CTRL else "")
        raise ConvergenceError(
            f"(a; q)_inf with a={a}, q={q} needs {n} factors, "
            f"exceeding max_terms={ctrl.max_terms}{fixed}"
        )
    return n


@lru_cache(maxsize=1 << 18)
def _poch_inf_cached(a: float, q: float, abs_tol: float, rel_tol: float,
                     max_terms: int, consecutive_small: int) -> float:
    ctrl = SeriesControl(abs_tol, rel_tol, max_terms, consecutive_small)
    n = _product_length(a, q, ctrl)
    if n == 0:
        return 1.0
    factors = 1.0 - a * np.power(q, np.arange(n))
    return float(np.prod(factors))


def _elementwise(scalar, *args):
    """scalar over the broadcast arrays args, element by element in C
    order with Python floats: each element is bit for bit the scalar value,
    and the first bad element raises the scalar error."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    flat = zip(*(v.ravel().tolist() for v in arrays))
    return np.array([scalar(*v) for v in flat],
                    dtype=float).reshape(arrays[0].shape)


def q_pochhammer_infinite(a, q: float,
                          ctrl: SeriesControl = DEFAULT_PRODUCT_CTRL):
    """(a; q)_inf = prod_{j>=0} (1 - q**j a), truncated per ctrl. An array
    of a (an ndarray) gives the array of products."""
    _check_q(q)
    if isinstance(a, np.ndarray):
        return _elementwise(lambda v: q_pochhammer_infinite(v, q, ctrl), a)
    if a == 0.0:
        return 1.0
    return _poch_inf_cached(a, q, ctrl.abs_tol, ctrl.rel_tol,
                            ctrl.max_terms, ctrl.consecutive_small)


def q_binomial(n: int, k: int, q: float) -> float:
    """Gaussian binomial (q; q)_n / ((q; q)_{n-k} (q; q)_k)."""
    _check_q(q)
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    return q_pochhammer_finite(q, q, n) / (
        q_pochhammer_finite(q, q, n - k) * q_pochhammer_finite(q, q, k)
    )


def q_gamma(t: float, q: float,
            ctrl: SeriesControl = DEFAULT_PRODUCT_CTRL) -> float:
    """q-Gamma function ((q; q)_inf / (q**t; q)_inf) * (1 - q)**(1 - t).

    Satisfies Gamma_q(t+1) = [t]_q Gamma_q(t) and Gamma_q(1) = 1. Poles sit at
    nonpositive integers, where the (q**t; q)_inf factor vanishes.
    """
    _check_q(q)
    if t <= 0 and abs(t - round(t)) < 1e-12:
        raise PoleError(f"q-Gamma pole at nonpositive integer t={t}")
    den = q_pochhammer_infinite(q**t, q, ctrl)
    if den == 0.0:
        raise PoleError(f"q-Gamma pole at t={t}")
    return q_pochhammer_infinite(q, q, ctrl) / den * (1.0 - q) ** (1.0 - t)


def q_power_general(x, y, alpha, params: QParams,
                    ctrl: SeriesControl = DEFAULT_PRODUCT_CTRL):
    """Generalized q-power (x**p - y**p)^(alpha) with base q**p.

    Evaluated through the closed quotient of infinite products
    x**(p*alpha) * (y**p/x**p; q**p)_inf / (q**(p*alpha) y**p/x**p; q**p)_inf,
    which stays finite at lattice coincidences. Negative alpha is supported;
    a vanishing denominator factor raises PoleError. y = x returns exactly 0.
    ndarrays of x, y and alpha broadcast to the array of q-powers.
    """
    if (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)
            or isinstance(alpha, np.ndarray)):
        return _elementwise(
            lambda *v: q_power_general(*v, params, ctrl), x, y, alpha)
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if y < 0.0:
        raise DomainError(f"y must be nonnegative, got {y}")
    if y > x:
        raise DomainError(f"y must not exceed x, got x={x}, y={y}")
    if y == x:
        return 0.0
    Q = params.qp
    head = x ** (params.p * alpha)
    if y == 0.0:
        return head
    r = (y / x) ** params.p
    num = q_pochhammer_infinite(r, Q, ctrl)
    den = q_pochhammer_infinite(Q**alpha * r, Q, ctrl)
    if den == 0.0:
        raise PoleError(
            f"generalized q-power pole: denominator product vanishes at "
            f"x={x}, y={y}, alpha={alpha}"
        )
    return head * num / den


def log_q_pochhammer_ratio(r, s, q: float, n: int,
                           ctrl: SeriesControl = DEFAULT_PRODUCT_CTRL
                           ) -> np.ndarray:
    """log((r q**i; q)_inf / (s q**i; q)_inf) at i = 0..n-1, for r in
    [0, 1] and s in [0, 1) (broadcast arrays): shape (..., n).

    All n ratios are suffix sums of one table of factor-log differences
    log1p(-r q**m) - log1p(-s q**m), m < n - 1 + the product length of the
    larger base, so a whole lattice costs O(n + that length). r = 1 gives
    -inf, the log of a vanishing numerator.
    """
    _check_q(q)
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float),
                               np.asarray(s, dtype=float))
    r_top, s_top = r.max(initial=0.0), s.max(initial=0.0)
    if (min(r.min(initial=0.0), s.min(initial=0.0)) < 0.0 or r_top > 1.0
            or s_top >= 1.0):
        raise DomainError(
            "log q-Pochhammer ratio needs r in [0, 1] and s in [0, 1)")
    length = n - 1 + _product_length(max(r_top, s_top), q, ctrl)
    q_m = np.power(q, np.arange(length))
    with np.errstate(divide="ignore"):
        logs = np.log1p(-r[..., None] * q_m) - np.log1p(-s[..., None] * q_m)
    return np.cumsum(logs[..., ::-1], axis=-1)[..., :-n - 1:-1]


def q_power_lattice(x: float, y: float, alpha: float, params: QParams,
                    n: int, ctrl: SeriesControl = DEFAULT_PRODUCT_CTRL
                    ) -> np.ndarray:
    """The generalized q-power (x**p - y_i**p)^(alpha) at the n lattice
    points y_i = y q**i, 0 <= y <= x, in one log_q_pochhammer_ratio pass:
    x**(p alpha) exp(log ratio at r = (y/x)**p, s = q**(p alpha) r).

    It agrees with q_power_general to a few ulps times the size of the log
    products. A denominator base s >= 1 (alpha <= 0, y near x) raises
    PoleError.
    """
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if not 0.0 <= y <= x:
        raise DomainError(f"need 0 <= y <= x, got x={x}, y={y}")
    Q = params.qp
    r = (y / x) ** params.p
    if not Q**alpha * r < 1.0:
        raise PoleError(
            f"lattice q-power: denominator base q**(p alpha) (y/x)**p >= 1 "
            f"at x={x}, y={y}, alpha={alpha}")
    return x ** (params.p * alpha) * np.exp(
        log_q_pochhammer_ratio(r, Q**alpha * r, Q, n, ctrl))
