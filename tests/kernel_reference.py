"""Plain-Python reference for the Jackson integral and the q-fractional
operators at one point.

`jackson_sum` forms the Jackson integral over [0, b] term by term, with
its own stopping rule on term size; the tests hold the library's kernel
sums to it within a tolerance. `kernel_sum` forms the Jackson kernel
sum term by term, one point at a time, as a loop over Python floats. Its
integral over [a, s] is Jackson's int_0^s - int_0^a (Kac and Cheung,
Quantum Calculus, 2002), at every s > 0: `derivative_rl` reads its inner
sum at qx <= a that way, by the definitional q-difference.
Its kernel weights come from plain factor-by-factor products here, and
its q-Gammas from the math.fsum of their factors' logs, not from the
library's q-products; `mp_log_poch` gives 30-digit values to check them.
The library computes every operator value with `operators.LatticeKernel`;
the tests compare it with the operators built here from `kernel_sum`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from qfrac.errors import ConvergenceError, PoleError
from qfrac.operators import OperatorContext
from qfrac.qcore import _SUM_ABS_TOL, _sum_length, q_number

# jackson_sum's own stopping rule, on term size: a path apart from the
# library's kernel sums, which hold _sum_length terms and a geometric tail
_SUM_REL_TOL = 1e-13
_SUM_MASS_TOL = float(np.finfo(float).eps)
_SUM_RUN = 3


def jackson_sum(f, b: float, q: float, ctrl) -> float:
    """(1-q) b sum_i q**i f(q**i b), one term at a time, until _SUM_RUN
    successive terms lie at or below max(_SUM_REL_TOL |partial|,
    _SUM_MASS_TOL sum of |terms|); ConvergenceError at ctrl.max_terms."""
    scale = (1.0 - q) * b
    total, mass, small, qi = 0.0, 0.0, 0, 1.0
    for _ in range(ctrl.max_terms):
        term = scale * qi * f(qi * b)
        total += term
        mass += abs(term)
        qi *= q
        # max() keeps its first argument, the mass floor, if total is NaN
        if abs(term) <= max(_SUM_MASS_TOL * mass, _SUM_REL_TOL * abs(total)):
            small += 1
            if small >= _SUM_RUN:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"Jackson integral on [0, {b}] did not meet its stopping rule "
        f"within {ctrl.max_terms} terms")


def poch_inf(a: float, q: float, tol: float = 1e-17) -> float:
    """(a; q)_inf as the product of its factors 1 - a q**j, stopping three
    factors after |a q**j| falls below tol."""
    n = 3
    if abs(a) >= tol:
        n += int(math.ceil(math.log(tol / abs(a)) / math.log(q)))
    return float(np.prod(1.0 - a * np.power(q, np.arange(n))))


def log_poch_terms(u, q, lead=0, c=1.0):
    """The logs of the factors 1 - x q**m of (x q**-lead; q)_inf, x = c
    q**u, m = -lead, -lead + 1, ..., while x q**m > 1e-20 (the tail's log
    is below 1e-17 at q <= 0.999): log1p(-x q**m), or, where x q**m > 1/2
    and its rounding would cost 1 - x q**m digits, the log of
    -expm1(log c + (u + m) log q). numpy's elementwise functions, no
    qcore."""
    log_q, log_c = math.log(q), math.log(c)
    stop = math.ceil((math.log(1e-20) - log_c) / log_q - u)
    zs = log_c + (u + np.arange(-lead, stop)) * log_q
    near = zs > -math.log(2.0)
    logs = np.log1p(-np.exp(zs))
    logs[near] = np.log(-np.expm1(zs[near]))
    return logs.tolist()


def gamma_ratio(s, t, q):
    """Gamma_q(s) / Gamma_q(t) = (q**t; q)_inf / (q**s; q)_inf (1 - q)**(t
    - s), its log the math.fsum of the factors' logs."""
    logs = log_poch_terms(t, q) + [-v for v in log_poch_terms(s, q)]
    return math.exp(math.fsum(logs)) * (1.0 - q) ** (t - s)


def mp_log_poch(x, q, split=3000):
    """log (x; q)_inf for mpmath numbers, at the working precision: the
    finite product of the first split factors, and the series -sum_k y**k
    / (k (1 - q**k)) of the rest, y = x q**split; a method apart from
    log_poch_terms'. Callers skip their test where mpmath is missing."""
    import mpmath

    head, y = mpmath.mpf(1), x
    for _ in range(split):
        head, y = head * (1 - y), y * q
    tail, k, eps = mpmath.mpf(0), 1, mpmath.eps / 1000
    while y**k > eps:
        tail -= y**k / (k * (1 - q**k))
        k += 1
    return mpmath.log(head) + tail


@functools.lru_cache(maxsize=None)
def q_gamma(t: float, q: float) -> float:
    """(q; q)_inf / (q**t; q)_inf * (1 - q)**(1 - t), as Gamma_q(t) /
    Gamma_q(1)."""
    return gamma_ratio(t, 1.0, q)


def mp_q_gamma(t: float, q: float) -> float:
    """Gamma_q(t) at 30 digits, from mp_log_poch, rounded to a float."""
    import mpmath

    with mpmath.workdps(30):
        mq = mpmath.mpf(q)
        return float(mpmath.exp(mp_log_poch(mq, mq) - mp_log_poch(mq**t, mq))
                     * (1 - mq) ** (1 - t))


def kernel_weights(Q: float, beta: float, c: float, n: int,
                   tol: float) -> np.ndarray:
    """k_i = (c Q**i; Q)_inf / (Q**beta c Q**i; Q)_inf for i = 0..n-1, from
    two infinite products and cumulative finite Pochhammers:
    (c Q**i; Q)_inf = (c; Q)_inf / prod_{j<i} (1 - c Q**j)."""
    cden = Q**beta * c
    u0, v0 = poch_inf(c, Q, tol), poch_inf(cden, Q, tol)
    if v0 == 0.0:
        raise PoleError(f"kernel denominator product vanishes (Q={Q})")
    q_j = np.power(Q, np.arange(n - 1))
    cum_u, cum_v = np.ones((2, n))
    for cum, base in ((cum_u, c), (cum_v, cden)):
        np.cumprod(1.0 - base * q_j, out=cum[1:])
    if not (np.all(cum_u) and np.all(cum_v)):
        raise PoleError(f"kernel weight recurrence hit a vanishing factor "
                        f"(Q={Q})")
    return (u0 / cum_u) * (cum_v / v0)


def kernel_sum(g, s: float, beta: float, ctx: OperatorContext) -> float:
    """Jackson integral int_a^s g(w) (s**p - (wq)**p)^(beta) d_q w at one
    point s > 0, off any lattice.

    Computed as the difference of two zero-based Jackson sums, which also
    defines it at s <= a. At node w = base * q**i the kernel ratio
    ((wq)/s)**p is geometric in i, so one weight table covers each sum.
    """
    q, p = ctx.params.q, ctx.params.p
    Q = ctx.params.qp
    a = ctx.a
    n = _sum_length(q, p, ctx.ctrl)
    head = s ** (p * beta)

    def one_sided(base: float) -> float:
        # q**p itself at base = s: (s q / s)**p rounds apart at s and qs,
        # and D's q-difference of the two sums cancels to few digits
        c = q ** p if base == s else (base * q / s) ** p
        k = kernel_weights(Q, beta, c, n, _SUM_ABS_TOL).tolist()
        total = 0.0
        qi = 1.0
        for i in range(n):
            total += qi * g(base * qi) * k[i]
            qi *= q
        return (1.0 - q) * base * head * total

    total = one_sided(s)
    if a > 0.0:
        total -= one_sided(a)
    return total


def _derivative_coef(alpha: float, ctx: OperatorContext) -> float:
    params = ctx.params
    return q_number(params.p, params.q) ** alpha / q_gamma(1.0 - alpha,
                                                           params.qp)


def integral(f, x: float, alpha: float, ctx: OperatorContext) -> float:
    """J^alpha f at x."""
    params = ctx.params
    p = params.p
    coef = (q_number(p, params.q) ** (1.0 - alpha)
            / q_gamma(alpha, params.qp))
    return coef * kernel_sum(lambda w: w ** (p - 1.0) * f(w), x,
                             alpha - 1.0, ctx)


def derivative_rl(f, x: float, alpha: float, ctx: OperatorContext) -> float:
    """D^alpha f at x, for 0 < alpha < 1 and x > a: the outer q-difference
    of the inner sums at x and qx, the one at qx <= a int_0^qx - int_0^a."""
    q, p = ctx.params.q, ctx.params.p

    def inner(s: float) -> float:
        return kernel_sum(lambda w: w ** (p - 1.0) * f(w), s, -alpha, ctx)

    return (_derivative_coef(alpha, ctx) * x ** (1.0 - p)
            * (inner(x) - inner(q * x)) / ((1.0 - q) * x))


def caputo(f, x: float, alpha: float, ctx: OperatorContext) -> float:
    """cD^alpha f at x: D^alpha of w -> f(w) - f(a)."""
    fa = f(ctx.a)
    return derivative_rl(lambda w: f(w) - fa, x, alpha, ctx)


def caputo_simplified(dqf, x: float, alpha: float,
                      ctx: OperatorContext) -> float:
    """cD^alpha at x through dqf, the q-derivative of f."""
    return _derivative_coef(alpha, ctx) * kernel_sum(dqf, x, -alpha, ctx)
