"""Picard successive-approximation solver for the Caputo q-fractional Cauchy
problem

    cD^alpha u(t) = f(t, u(t)),  a < t < b,   u(a) = zeta,

together with the a-priori convergence bound and the q-Mittag-Leffler series
oracle for the f(t, u) = u example.

Iterates live on a geometric node table {b q**k} deep enough that every
Jackson sum the iteration needs is closed under multiplication by q; below
the lower limit a the iterates extend by the constant zeta.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    MissingLipschitzError,
    TrustRegionError,
)
from .operators import (
    FracOrder,
    LatticeKernel,
    OperatorContext,
    bound_constant,
)
from .qcalc import QLattice, _nodes, _tabulate
from .qcore import (
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
    _power,
    _sum_length,
    q_gamma,
    q_number,
)

__all__ = [
    "CauchyProblem",
    "SolverReport",
    "solver_nodes",
    "picard_iterate",
    "solve",
    "apriori_bound",
    "q_mittag_leffler",
    "estimate_lipschitz",
]

Rhs = Callable[[float, float], float]
_LOG_MAX = math.log(sys.float_info.max)
_SUP_U_SAMPLES = 17  # u values per node in the sampled sup of |f|
_LIPSCHITZ_NODES = 64  # sample nodes in estimate_lipschitz
_LIPSCHITZ_US = 128  # evenly spaced u values per sample node
# Below this many active rows a Picard step forms all m sums afresh: the
# correction's bookkeeping costs more than the product there. Solves of
# u - u^2/8 at a = 0 broke even between m = 216 (q = 0.85) and 331 (0.9).
_INCREMENTAL_MIN_ROWS = 256
# FFT from this many multiply-adds (rows**2) on. np.convolve vs FFT at the
# 5-smooth length with the fixed transform cached, us per _Convolution call,
# 2-vCPU Xeon (AVX-512), numpy 2.4.6, 1 thread: 3440 rows 1242/74, 633
# 34/17, 460 19/14, 380 10/13, 331 10/13.
_FFT_MIN_MADDS = 400_000


@dataclass(frozen=True)
class CauchyProblem:
    """Problem specification: rhs f(t, u), interval [a, b], initial value
    zeta, fractional order, deformation pair, optional Lipschitz constant,
    and trust-region radius r (|u - zeta| <= r). The rhs must be a pure
    function of (t, u): a Picard step evaluates it only where the iterate
    changed since the previous step."""

    rhs: Rhs
    a: float
    b: float
    zeta: float
    order: FracOrder
    params: QParams
    lipschitz_A: float | None = None
    radius_r: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.a < self.b:
            raise DomainError(f"need 0 <= a < b, got a={self.a}, b={self.b}")
        if not self.radius_r > 0.0:
            raise DomainError(f"radius_r must be positive, got {self.radius_r}")
        if self.lipschitz_A is not None and not self.lipschitz_A > 0.0:
            raise DomainError(
                f"lipschitz_A must be positive, got {self.lipschitz_A}")


@dataclass
class SolverReport:
    """Full diagnostic output of one solve."""

    solution: list[float]  # final iterate on the report lattice nodes
    residuals: list[float]
    apriori_bounds: list[float]
    converged: bool
    iterations_used: int
    k_estimate: float
    stop_reason: str  # "converged" or "max_iter"
    n_nodes: int  # solver table {b q**k}
    n_active: int  # its nodes above a
    sum_length: int  # terms per Jackson kernel sum
    rhs_evals: int  # points at which the rhs was evaluated
    bound_slack: float = 0.0


def solver_nodes(problem: CauchyProblem,
                 ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> np.ndarray:
    """Deep node table {b q**k} closed (to truncation depth) under
    multiplication by q, so every Jackson sum the iteration needs stays on
    the table."""
    q, p = problem.params.q, problem.params.p
    depth = _sum_length(q, p, ctrl)
    return _nodes(problem.b, q, depth)


def _fft_length(n: int) -> int:
    """The least 2**i 3**j 5**k >= n, a length pocketfft transforms fast.
    A cyclic convolution this long leaves the valid values unwrapped."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class _Convolution:
    """x, 2 rows - 1 long -> the rows = len(table) valid values of x
    convolved with a fixed table: np.convolve, or past the crossover a real
    FFT with the table's transform computed once (Hairer, Lubich and
    Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985). The transform pays
    only because every Picard step reuses it."""

    def __init__(self, table: np.ndarray):
        self.table, self.rows = table, len(table)
        self.size = 0
        if self.rows ** 2 >= _FFT_MIN_MADDS:
            self.size = _fft_length(2 * self.rows - 1)
            self.spectrum = np.fft.rfft(table, self.size)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.size:
            full = np.fft.irfft(np.fft.rfft(x, self.size) * self.spectrum,
                                self.size)
            return full[self.rows - 1:2 * self.rows - 1]
        return np.convolve(x, self.table, "valid")


class _PicardEngine:
    """Steps the Picard iterate phi, a node-value table over the solver
    table, in place. Nodes above a come first, so the active rows are a
    prefix of it.

    Below a the iterates extend by the constant zeta, so the integrand
    there, the kernel sums over it and the subtracted sums over [0, a] are
    one vector fixed for the solve. A step correlates only the m active rhs
    values g with the first m LatticeKernel weights; they and its row heads
    carry the weight w**(p-1), so the rows convolve the rhs at one scale.
    It keeps g, the unscaled sums and `moved`, the rows to re-tabulate g
    at: every active row after a load, else those whose bits the last step
    changed. Row i sums g from i on, so a change of g below row e changes
    only the first e sums, and the step rewrites only those rows. Past a
    row count where the bookkeeping pays, and when E, the next power of two
    >= e, is below m, it adds the correlation of the change with the first
    E weights to the first e sums; otherwise it forms the sums afresh. Rows
    at or past e keep their bits, and the step's checks read only the rows
    before it. `points` counts the rhs values tabulated. A huge rhs
    overflows to inf or NaN, which the step raises on."""

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, problem: CauchyProblem, ctrl: SeriesControl):
        self.problem = problem
        self.points = 0
        self.nodes = solver_nodes(problem, ctrl)
        p = problem.params.p
        alpha = problem.order.alpha
        self.n_active = m = int(np.count_nonzero(self.nodes > problem.a))
        kernel = LatticeKernel(problem.params, alpha - 1.0, problem.a, ctrl,
                               self.nodes[:m])
        self.sum_length = n = kernel.n
        self.gamma = kernel.gamma  # Gamma_Q(alpha), of the steps and C(b)
        self.coef = (q_number(p, problem.params.q) ** (1.0 - alpha)
                     / kernel.gamma)
        self.active_nodes = self.nodes[:m]
        self.head = kernel.head
        self.active = _Convolution(kernel.upper[n - m:])
        self.corrections = {}  # E < m -> its correlation
        # the fixed sums, negated: x - 0.0 is x bit for bit (-0.0 too), and
        # at a = 0 there are none
        self.tail = np.zeros(m)
        if problem.a > 0.0:  # the rhs at zeta: rows below a, then [0, a]
            fixed = _tabulate(problem.rhs, np.append(
                self.nodes[m:], _nodes(problem.a, problem.params.q, n)),
                problem.zeta)
            self.points += fixed.size
            self.tail = -kernel.apply(np.append(np.zeros(m), fixed[:n - m]),
                                      fixed[n - m:])
        self.g = np.zeros(2 * m - 1)  # zero past m: tail has those rows
        self.steps = 0
        self.load(np.full(len(self.nodes), problem.zeta))

    @np.errstate(over="ignore", invalid="ignore")
    def load(self, prev: np.ndarray) -> None:
        """Take a copy of prev, a table over the solver nodes, as the
        iterate to step from."""
        self.phi = np.array(prev, dtype=float)
        # phi is not the image of g and the sums: the next step forms them
        self.moved = np.arange(self.n_active)
        self._check_region(self.phi)

    def _check_region(self, rows: np.ndarray) -> None:
        """Note the first of the leading rows of phi outside the trust
        region (NaN is not), for the next step to raise on."""
        over = np.abs(rows - self.problem.zeta) > self.problem.radius_r
        self.outside = int(over.argmax()) if over.any() else None

    def _correction(self, rows: int) -> _Convolution:
        conv = self.corrections.get(rows)
        if conv is None:
            conv = self.corrections[rows] = _Convolution(
                self.active.table[self.n_active - rows:])
        return conv

    @np.errstate(over="ignore", invalid="ignore")
    def step(self) -> np.ndarray:
        """Replace phi by the next iterate. Returns the change on the rows
        [:e] the step rewrote; rows past them keep their bits."""
        problem, m, phi, moved = (self.problem, self.n_active, self.phi,
                                  self.moved)
        if self.outside is not None:
            raise TrustRegionError(float(self.nodes[self.outside]),
                                   float(phi[self.outside]))
        self.steps += 1
        g = _tabulate(problem.rhs, self.active_nodes[moved], phi[moved])
        self.points += len(g)
        # row i sums g from i on, so rows past e keep their sums and phi;
        # after a load every row moved, and every row is rewritten
        e = int(moved[-1]) + 1 if len(moved) else 0
        rows = min(1 << max(e - 1, 0).bit_length(), m)
        if rows == m or m < _INCREMENTAL_MIN_ROWS:
            self.g[moved] = g
            self.sums = self.active(self.g)
        else:
            dg = np.zeros(2 * rows - 1)
            dg[moved] = g - self.g[moved]
            self.g[moved] = g
            self.sums[:e] += self._correction(rows)(dg)[:e]
        new = problem.zeta + self.coef * (self.head[:e] * self.sums[:e]
                                          - self.tail[:e])
        # rows past e were checked when written; inf and NaN fail here
        if not np.abs(new - problem.zeta).max(initial=0.0) <= problem.radius_r:
            bad = ~np.isfinite(new)
            if bad.any():
                idx = int(bad.argmax())
                raise ConvergenceError(
                    f"Picard step {self.steps} gave a non-finite value at "
                    f"node t={float(self.nodes[idx])!r}")
            self._check_region(new)
        change = new - phi[:e]
        # bits, not values: f(t, -0.0) may differ from f(t, 0.0)
        self.moved = (new.view(np.int64)
                      != phi[:e].view(np.int64)).nonzero()[0]
        phi[:e] = new
        return change


def picard_iterate(prev: Sequence[float], problem: CauchyProblem,
                   ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> np.ndarray:
    """One Picard step: phi_next(t) = zeta + J^alpha f(., phi_prev)(t) on the
    solver_nodes table. prev must be given on that same table."""
    prev = np.asarray(prev, dtype=float)
    engine = _PicardEngine(problem, ctrl)
    if prev.shape != engine.nodes.shape:
        raise DomainError(
            f"prev has {prev.shape[0] if prev.ndim == 1 else '?'} "
            f"values, expected one per solver node ({len(engine.nodes)})"
        )
    engine.load(prev)
    engine.step()
    engine.phi[engine.n_active:] = problem.zeta  # the iterate below a
    return engine.phi


def solve(problem: CauchyProblem, lattice: QLattice, tol: float = 1e-10,
          max_iter: int = 50,
          ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> SolverReport:
    """Iterate phi_1 = zeta, phi_{n+1} = zeta + J^alpha f(., phi_n) until the
    sup-norm residual over the report lattice drops below tol.

    Never returns a silent partial answer: the report's converged flag is
    False when max_iter is exhausted, a non-finite iterate raises
    ConvergenceError, and a report lattice deeper than the solver table,
    or of another ratio than q, raises DomainError.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if not math.isclose(lattice.b, problem.b, rel_tol=1e-12):
        raise DomainError("lattice base must equal the problem horizon b")
    if not math.isclose(lattice.floor_a, problem.a, rel_tol=1e-12,
                        abs_tol=1e-300):
        raise DomainError("lattice floor must equal the problem lower limit a")
    if lattice.q != problem.params.q:
        raise DomainError(f"lattice ratio {lattice.q} differs from "
                          f"q={problem.params.q}")

    engine = _PicardEngine(problem, ctrl)
    rows = len(lattice.nodes)
    if rows > engine.n_active:
        raise DomainError(
            f"the report lattice has {rows} nodes but the solver table "
            f"holds {engine.n_active} above a; the largest depth it allows "
            f"is {engine.n_active}")

    k_est, points = _estimate_sup_rhs(problem, lattice)
    a_const = problem.lipschitz_A
    if a_const is None:
        a_const, lipschitz_points = _estimate_lipschitz(problem.rhs, problem)
        a_const = max(a_const, 1e-300)
        points += lipschitz_points
    # C(b), computed once per solve, with the Gamma_Q(alpha) of the steps
    c_bound = bound_constant(problem.order, OperatorContext(
        problem.params, problem.a, ctrl), problem.b, engine.gamma)

    residuals: list[float] = []
    bounds: list[float] = []
    converged = False
    iterations = 0
    for n in range(1, max_iter + 1):
        change = engine.step()[:rows]
        residual = float(np.abs(change).max(initial=0.0))
        residuals.append(residual)
        bounds.append(_induction_bound(n, c_bound, a_const, k_est))
        iterations = n
        if residual < tol:
            converged = True
            break

    slack = 0.0
    for r, bd in zip(residuals, bounds):
        if bd > 0.0:
            slack = max(slack, r / bd - 1.0)
        elif r > 0.0:
            slack = math.inf
    return SolverReport(
        solution=engine.phi[:rows].tolist(),
        residuals=residuals,
        apriori_bounds=bounds,
        converged=converged,
        iterations_used=iterations,
        k_estimate=k_est,
        stop_reason="converged" if converged else "max_iter",
        n_nodes=len(engine.nodes),
        n_active=engine.n_active,
        sum_length=engine.sum_length,
        rhs_evals=engine.points + points,
        bound_slack=max(slack, 0.0),
    )


def _estimate_sup_rhs(problem: CauchyProblem,
                      lattice: QLattice) -> tuple[float, int]:
    """Sampled sup of |f| over lattice nodes x a trust-region grid, a lower
    estimate of the theorem's constant K reported as a diagnostic, and the
    number of points tabulated."""
    us = np.linspace(problem.zeta - problem.radius_r,
                     problem.zeta + problem.radius_r, _SUP_U_SAMPLES)
    ws = [problem.a] + lattice.nodes if problem.a > 0.0 else lattice.nodes
    values = _tabulate(problem.rhs, np.array(ws, dtype=float)[:, None], us)
    return _max_skipping_nan(np.abs(values)), values.size


def apriori_bound(n: int, t: float, problem: CauchyProblem, K: float,
                  ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> float:
    """Induction bound on |phi_{n+1} - phi_n|:  C(t)**n A**(n-1) K with

    C(t) = ([p]_q)**(1-alpha) / ([p alpha]_q Gamma_Q(alpha))
           * (t**p - a**p)^(alpha);  math.inf (vacuous) past float range.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if K < 0.0:
        raise DomainError(f"K must be nonnegative, got {K}")
    if problem.lipschitz_A is None:
        raise MissingLipschitzError(
            "apriori_bound needs problem.lipschitz_A; supply one or use "
            "estimate_lipschitz"
        )
    # C(t) is bound_constant, the norm bound of J^alpha on C_q[a, t]
    c = 0.0 if t == problem.a else bound_constant(
        problem.order, OperatorContext(problem.params, problem.a, ctrl), t)
    return _induction_bound(n, c, problem.lipschitz_A, K)


def _induction_bound(n: int, c: float, A: float, K: float) -> float:
    """C**n A**(n-1) K; math.inf past float range."""
    if K == 0.0 or c == 0.0:
        return 0.0
    try:
        return c**n * A ** (n - 1) * K
    except OverflowError:  # a power left float range; the product may not
        log_bound = n * math.log(c) + (n - 1) * math.log(A) + math.log(K)
        return math.exp(log_bound) if log_bound < _LOG_MAX else math.inf


def q_mittag_leffler(x: float, m: int, order: FracOrder, params: QParams,
                     ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> float:
    """Partial sum sum_{n=0}^{m} ([p]_q)**(-n alpha) / Gamma_Q(n alpha + 1)
    * x**(p n alpha); the series solution of cD^alpha u = u, u(0) = 1.
    An m past ctrl.max_terms raises ConvergenceError, as any term budget."""
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if m > ctrl.max_terms:
        raise ConvergenceError(
            f"q-Mittag-Leffler partial sum needs m={m} terms, exceeding "
            f"max_terms={ctrl.max_terms}; raise SeriesControl.max_terms "
            f"(the CLI reads it from QFRAC_MAX_TERMS)")
    alpha = order.alpha
    q, p = params.q, params.p
    pq = q_number(p, q)
    gammas = q_gamma(np.arange(1, m + 1) * alpha + 1.0, params.qp,
                     ctrl).tolist()
    total = 1.0
    for n, gamma in enumerate(gammas, 1):
        total += pq ** (-n * alpha) / gamma * _power(
            x, p * n * alpha, p, "series term factor")
    return total


def estimate_lipschitz(rhs: Rhs, problem: CauchyProblem) -> float:
    """Sampled difference-quotient estimate of the Lipschitz constant of
    u -> rhs(w, u) over [a, b] x [zeta - r, zeta + r]: the largest quotient
    between adjacent points of an even u grid, at sample nodes w.

    A lower estimate of the true constant, never a certificate.
    """
    return _estimate_lipschitz(rhs, problem)[0]


def _estimate_lipschitz(rhs: Rhs, problem: CauchyProblem) -> tuple[float, int]:
    """estimate_lipschitz, and the number of points tabulated."""
    ws = _nodes(problem.b, problem.params.q, _LIPSCHITZ_NODES)
    ws = np.append(ws[ws > problem.a], [problem.a] if problem.a > 0.0 else [])
    ys = np.linspace(problem.zeta - problem.radius_r,
                     problem.zeta + problem.radius_r, _LIPSCHITZ_US)
    f = _tabulate(rhs, ws[:, None], ys)
    with np.errstate(all="ignore"):  # inf - inf and overflow, as floats do
        quotients = np.abs(np.diff(f)) / np.diff(ys)
    return _max_skipping_nan(quotients), f.size


def _max_skipping_nan(values: np.ndarray) -> float:
    """The largest value, and 0 for none: NaN is skipped, as a running
    max(best, v) from best = 0 skips it."""
    return float(np.fmax.reduce(values, axis=None, initial=0.0))
