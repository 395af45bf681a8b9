"""q-analogue primitives: q-numbers, q-factorials, ratios of infinite
q-Pochhammer products, the q-Gamma function, and the generalized q-power.

All deformation parameters satisfy 0 < q < 1; the classical limit q -> 1 is
approached but never representable. Everything here is a pure function of its
arguments and safe to call concurrently; nothing is cached across calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "QParams",
    "SeriesControl",
    "DEFAULT_INTEGRATION_CTRL",
    "q_number",
    "q_factorial",
    "q_gamma",
    "q_power_general",
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
        _check_q(self.q)
        if not self.p > 0.0:
            raise DomainError(f"p must be positive, got {self.p}")
        if self.qp in (0.0, 1.0):  # a base of 0 or 1 is no deformation
            what = "underflows to 0" if self.qp == 0.0 else "rounds to 1"
            raise DomainError(f"q**p {what} at q={self.q}, p={self.p}")

    @property
    def qp(self) -> float:
        """The derived base q**p."""
        return self.q**self.p


# Every truncation precision of the library: a Jackson sum holds a bounded
# integrand's terms down to _SUM_ABS_TOL and _SUM_RUN more (_sum_length),
# plus a geometric tail past _SUM_ABS_TOL of the sum; a q-product, three
# factors past |b q**m| < 1e-17 (_LOG_TOL), skips a log tail < 1e-17/(1 - q).
_SUM_ABS_TOL = 1e-15
_SUM_RUN = 3
_LOG_TOL = math.log(1e-17)


@dataclass(frozen=True)
class SeriesControl:
    """Term budget of the truncated sums and products: one needing more
    than max_terms terms (or factors) raises ConvergenceError. Where each
    stops is fixed by qcore's precision constants."""

    max_terms: int = 5_000

    def __post_init__(self):
        if self.max_terms < _SUM_RUN:
            raise DomainError(f"max_terms must be >= {_SUM_RUN}")


DEFAULT_INTEGRATION_CTRL = SeriesControl()


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
    if not (n >= 0 and float(n).is_integer()):
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    out = 1.0
    for k in range(2, int(n) + 1):
        out *= q_number(k, q)
    return out


def _check_budget(count: int, ctrl: SeriesControl, needs) -> None:
    """ConvergenceError where a sum or product needs count > max_terms
    terms; needs() says what needs how many, formed only then."""
    if count > ctrl.max_terms:
        raise ConvergenceError(
            f"{needs()}, exceeding max_terms={ctrl.max_terms}; raise "
            f"SeriesControl.max_terms (the CLI reads it from QFRAC_MAX_TERMS)")


def _sum_length(q: float, p: float, ctrl: SeriesControl) -> int:
    """Terms per operator Jackson sum: they carry q**i from the Jackson
    weight and w**(p-1) from the integrand, so they decay at least like
    (q**min(1, p))**i for bounded f."""
    rate = q ** min(1.0, p)
    n = int(math.ceil(math.log(_SUM_ABS_TOL) / math.log(rate))) + _SUM_RUN
    _check_budget(n, ctrl, lambda: f"operator Jackson sum needs {n} terms")
    return n


def _power(t, power, p: float, factor: str = "kernel row factor"):
    """t**power, numpy's for an array of nodes (and a float or array power)
    and Python's for a float. Past float range, as a large p takes it at
    small or large nodes, _checked_product raises ConvergenceError."""
    if isinstance(t, np.ndarray):
        with np.errstate(over="ignore", divide="ignore"):
            return _checked_product(t ** power, t, power, p, factor)
    try:
        return t ** power
    except OverflowError:
        return _checked_product(np.array([np.inf]), t, power, p, factor)


def _checked_product(out, t, power, p: float, factor: str, *tables):
    """out, a product of t**power and tables, the nodes t on its last axis:
    past float range where every table is finite, ConvergenceError names
    the factor, p and the first such node and its exponent (t and power
    broadcast against out). Non-finite tables pass through."""
    bad = ~np.isfinite(out)
    if not bad.any():
        return out
    for table in tables:
        bad &= np.isfinite(table)
    if bad.any():
        t, power = (np.broadcast_to(v, out.shape)[bad][0] for v in (t, power))
        raise ConvergenceError(
            f"{factor} t**{float(power)!r}{' times its table' * bool(tables)}"
            f" leaves float range at p={p!r}; first at node t={float(t)!r}")
    return out


# A q-ratio pass sums its elements in blocks of at most _BLOCK table
# entries, an entry being one factor column of one element. Per entry a
# block holds two floats, the factor logs of both products (their
# difference and its suffix sums are formed in place), and a byte of the
# product-length mask; the few lead columns of log1mexp hold a few more.
_BLOCK = 1 << 14


def _log_q_ratio(log_r, log_s, log_q: float, n: int, ctrl: SeriesControl):
    """log|(r q**i; q)_inf / (s q**i; q)_inf| at i = 0..n-1, shape (..., n),
    and the ratios' signs (1.0 when no base exceeds 1): every q-product of
    the library comes from here. Bases come as logs (broadcast; -inf is a
    zero base), so r = q**u passes u log q unrounded. ctrl.max_terms
    bounds the factor count.

    The ratios are suffix sums, from the tail, of paired factor logs
    log|1 - b q**m|: log1p(-b q**m), or log|expm1(log b + m log q)| where
    b q**m > 1/2 (Maechler's log1mexp). Each element stops at its own
    product length, so its value does not depend on the array around it,
    nor on the block of elements (_BLOCK) it is summed in.
    A zero denominator factor gives +inf or NaN.
    """
    log_r, log_s = (np.asarray(v, dtype=float) for v in (log_r, log_s))
    top = np.maximum(log_r, log_s)
    steps = np.maximum(np.ceil((_LOG_TOL - top) / log_q), 0.0)
    longest = 3 + int(steps.max(initial=0.0))  # factors until |b q**m| < tol
    _check_budget(longest, ctrl, lambda: (
        f"q-product with base {math.exp(top.max()):.6g} and q="
        f"{math.exp(log_q):.6g} needs {longest} factors"))
    rows = max(1, _BLOCK // (n - 1 + longest))
    # copies: on a reversed view numpy's exp takes a loop with other bits
    if top.size <= rows:
        logs, sign = _ratio_block(log_r, log_s, top, steps, log_q, n)
        return logs.copy(), sign
    flat = [np.broadcast_to(v, top.shape).ravel()
            for v in (log_r, log_s, top, steps)]
    logs = np.empty((top.size, n))
    signs = np.ones_like(logs) if top.max() > 0.0 else None
    for blk in (slice(lo, lo + rows) for lo in range(0, top.size, rows)):
        logs[blk], sign = _ratio_block(*(v[blk] for v in flat), log_q, n)
        if signs is not None:
            signs[blk] = sign
    shape = top.shape + (n,)
    return logs.reshape(shape), 1.0 if signs is None else signs.reshape(shape)


def _ratio_block(log_r, log_s, top, steps, log_q: float, n: int):
    """_log_q_ratio on one block of elements, its tables as long as the
    block's own longest product: the log ratios as a reversed view of the
    block's table, and their signs."""
    width = n + 2 + int(steps.max(initial=0.0))
    t_max = float(top.max(initial=-np.inf))
    bases = np.empty(top.shape + (2, 1))
    bases[..., 0, 0], bases[..., 1, 0] = log_r, log_s
    m_log_q = np.arange(width, dtype=float)
    m_log_q *= log_q
    # the columns where some b q**m may exceed 1/2, with a rounding margin
    lead = int(np.count_nonzero(m_log_q > math.log(0.5) - 1e-9 - t_max))
    z = bases + m_log_q[:lead]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = -np.exp(bases) * np.exp(m_log_q, out=m_log_q)  # -b q**m
        np.log1p(f, out=f)
        np.copyto(f[..., :lead], np.log(np.abs(np.expm1(z))),
                  where=z > math.log(0.5))
        terms = np.subtract(f[..., 0, :], f[..., 1, :], out=f[..., 1, :])
        if top.size > 1 and steps.min() < steps.max():
            terms[np.arange(width) >= n + 2 + steps[..., None]] = 0.0
        sums = np.cumsum(terms[..., ::-1], axis=-1, out=f[..., 0, :])
    sign = 1.0
    if t_max > 0.0:  # a base above 1: ratio i < lead is negative where
        # the negative factors from column i on are odd in number
        odd = np.logical_xor.reduce(z > 0.0, axis=-2)
        odd = np.logical_xor.accumulate(odd[..., ::-1], axis=-1)[..., ::-1]
        sign = np.ones(top.shape + (n,))
        sign[..., :lead] = 1.0 - 2.0 * odd[..., :n]
    return sums[..., :-n - 1:-1], sign


def _kernel_weights(log_Q, beta, log_c, n: int,
                    ctrl: SeriesControl) -> np.ndarray:
    """k_i = (c Q**i; Q)_inf / (Q**beta c Q**i; Q)_inf for i = 0..n-1, from
    log Q and log c: one q-ratio pass. At c = (y/x)**p, Q = q**p,
    x**(p beta) k_i is the generalized q-power (x**p - (y q**i)**p)^(beta).
    Arrays of beta and log c broadcast to one table per element, on the
    last axis, each the bits of its own pass."""
    logs, sign = _log_q_ratio(log_c, log_c + beta * log_Q, log_Q, n, ctrl)
    if not np.all(logs < np.inf):
        pole = ~np.all(logs < np.inf, axis=-1)
        beta, c = (float(np.broadcast_to(v, pole.shape)[pole][0])
                   for v in (beta, np.exp(log_c)))
        raise PoleError(f"kernel denominator product vanishes (beta={beta})"
                        f" at c={c}")
    return sign * np.exp(logs)


def q_gamma(t, q: float, ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL):
    """q-Gamma function ((q; q)_inf / (q**t; q)_inf) * (1 - q)**(1 - t).

    Satisfies Gamma_q(t+1) = [t]_q Gamma_q(t) and Gamma_q(1) = 1. Poles sit at
    nonpositive integers, where the (q**t; q)_inf factor vanishes. An array
    of t (an ndarray) gives the array of values.
    """
    _check_q(q)
    t_arr = np.asarray(t, dtype=float)
    if np.isnan(t_arr).any():
        raise DomainError("q-Gamma argument t must not be NaN")
    if np.isinf(t_arr).any():
        raise DomainError(f"q-Gamma argument t must be finite, got "
                          f"{t_arr[np.isinf(t_arr)][0]}")
    poles = t_arr[(t_arr <= 0) & (np.abs(t_arr - np.round(t_arr)) < 1e-12)]
    if poles.size:
        raise PoleError(f"q-Gamma pole at nonpositive integer t={poles[0]}")
    log_q = math.log(q)
    logs, sign = _log_q_ratio(log_q, t_arr * log_q, log_q, 1, ctrl)
    with np.errstate(over="ignore"):  # Gamma_q past float range is inf
        out = sign * np.exp(logs + ((1.0 - t_arr) * math.log1p(-q))[..., None])
    return out[..., 0] if isinstance(t, np.ndarray) else float(out[..., 0])


def q_power_general(x, y, alpha, params: QParams,
                    ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL):
    """Generalized q-power (x**p - y**p)^(alpha) with base q**p.

    Evaluated through the closed quotient of infinite products
    x**(p*alpha) * (y**p/x**p; q**p)_inf / (q**(p*alpha) y**p/x**p; q**p)_inf,
    which stays finite at lattice coincidences. Negative alpha is supported;
    a vanishing denominator factor raises PoleError, and an x**(p*alpha)
    past float range ConvergenceError. y = x returns exactly 0. ndarrays of
    x, y and alpha broadcast to the array of q-powers.
    """
    scalar = not any(isinstance(v, np.ndarray) for v in (x, y, alpha))
    x, y, alpha = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, y, alpha)))
    # 1-d and contiguous: numpy's power gives other bits on 0-d operands
    shape, (x, y, alpha) = x.shape, (v.ravel() for v in (x, y, alpha))
    for bad, what in ((~(x > 0.0), "x must be positive, got {x}"),
                      (~(y >= 0.0), "y must be nonnegative, got {y}"),
                      (y > x, "y must not exceed x, got x={x}, y={y}"),
                      (np.isnan(alpha), "alpha must not be NaN")):
        if np.any(bad):
            raise DomainError(what.format(x=x[bad][0], y=y[bad][0]))
    out = _power(x, params.p * alpha, params.p, "q-power factor")
    out[y == x] = 0.0
    inner = (y / x > 0.0) & (y < x)  # a y/x that underflows is y = 0
    if np.any(inner):  # the kernel weight k_0 at c = (y/x)**p
        out[inner] *= _kernel_weights(
            params.p * math.log(params.q), alpha[inner],
            params.p * np.log(y[inner] / x[inner]), 1, ctrl)[:, 0]
    return float(out[0]) if scalar else out.reshape(shape)
