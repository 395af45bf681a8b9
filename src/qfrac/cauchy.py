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
from dataclasses import dataclass, replace
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
    _Convolution,
    _sum_length,
    bound_constant,
)
from .qcalc import QLattice, _nodes, _tabulate
from .qcore import (
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
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
_LIPSCHITZ_SAMPLES = 64  # nodes, and u pairs per node, in estimate_lipschitz


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

    lattice: QLattice
    iterates: list[list[float]]
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

    @property
    def solution(self) -> list[float]:
        """Final iterate on the report lattice nodes."""
        return self.iterates[-1]


def solver_nodes(problem: CauchyProblem,
                 ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> np.ndarray:
    """Deep node table {b q**k} closed (to truncation depth) under
    multiplication by q, so every Jackson sum the iteration needs stays on
    the table."""
    q, p = problem.params.q, problem.params.p
    depth = _sum_length(q, p, ctrl)
    return _nodes(problem.b, q, depth)


class _PicardEngine:
    """Applies one Picard step to a node-value table over the solver table.
    Nodes above a come first, so the active rows are a prefix of it.

    Below a the iterates extend by the constant zeta, so the integrand
    there, the kernel sums over it and the subtracted sums over [0, a] are
    one vector fixed for the solve. A step correlates only the m active
    integrand values with the first m kernel weights; g keeps them from
    step to step."""

    def __init__(self, problem: CauchyProblem, ctrl: SeriesControl):
        self.problem = problem
        self.nodes = solver_nodes(problem, ctrl)
        p = problem.params.p
        alpha = problem.order.alpha
        self.n_active = m = int(np.count_nonzero(self.nodes > problem.a))
        kernel = LatticeKernel(problem.params, alpha - 1.0, problem.a, ctrl,
                               self.nodes[:m])
        self.sum_length = n = kernel.n
        self.coef = (q_number(p, problem.params.q) ** (1.0 - alpha)
                     / kernel.gamma)
        self.head = kernel.head
        self.active_nodes = self.nodes[:m]
        self.active_weight = self.nodes[:m] ** (p - 1.0)
        self.active = kernel.upper
        if m < n:  # the active rows read no weight past the m-th
            self.active = _Convolution(kernel.upper.table[n - m:], m, m)
        # the fixed sums, negated: x - 0.0 is x bit for bit (-0.0 too), and
        # at a = 0 there are none
        self.tail = 0.0
        if problem.a > 0.0:
            frozen = np.zeros(n)
            frozen[m:] = self._integrand(self.nodes[m:])
            self.tail = -kernel.apply(frozen, self._integrand(
                kernel.lower_nodes))
        # bits of the active iterate g was tabulated from; NaN matches none
        self.seen = np.full(m, np.nan).view(np.int64)
        self.g = np.zeros(2 * m - 1)  # zero past m: tail has those rows
        self.g[:m] = np.nan
        self.steps = 0

    def _integrand(self, nodes: np.ndarray) -> np.ndarray:
        problem = self.problem
        return nodes ** (problem.params.p - 1.0) * _tabulate(
            problem.rhs, nodes, problem.zeta)

    def step(self, prev: np.ndarray) -> np.ndarray:
        problem = self.problem
        over = np.abs(prev - problem.zeta) > problem.radius_r
        if over.any():
            idx = int(over.nonzero()[0][0])
            raise TrustRegionError(float(self.nodes[idx]), float(prev[idx]))
        self.steps += 1
        m = self.n_active
        u = prev[:m]
        # bits, not values: f(t, -0.0) may differ from f(t, 0.0); and a NaN
        # is evaluated, never taken for the seed
        moved = ((u.view(np.int64) != self.seen) | np.isnan(u)).nonzero()[0]
        self.g[moved] = self.active_weight[moved] * _tabulate(
            problem.rhs, self.active_nodes[moved], u[moved])
        np.copyto(self.seen, u.view(np.int64))
        out = np.full(len(self.nodes), problem.zeta)
        out[:m] += self.coef * (self.head * self.active(self.g) - self.tail)
        bad = ~np.isfinite(out)
        if bad.any():
            idx = int(bad.argmax())
            raise ConvergenceError(
                f"Picard step {self.steps} gave a non-finite value at node "
                f"t={float(self.nodes[idx])!r}")
        return out


def picard_iterate(prev: Sequence[float], problem: CauchyProblem,
                   ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> np.ndarray:
    """One Picard step: phi_next(t) = zeta + J^alpha f(., phi_prev)(t) on the
    solver_nodes table. prev must be given on that same table."""
    engine = _PicardEngine(problem, ctrl)
    prev = np.asarray(prev, dtype=float)
    if prev.shape != engine.nodes.shape:
        raise DomainError(
            f"prev has {prev.shape[0] if prev.ndim == 1 else '?'} values, "
            f"expected one per solver node ({len(engine.nodes)})"
        )
    return engine.step(prev)


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

    problem = replace(problem, rhs=_CountedRhs(problem.rhs))
    engine = _PicardEngine(problem, ctrl)
    rows = len(lattice.nodes)
    if rows > engine.n_active:
        raise DomainError(
            f"the report lattice has {rows} nodes but the solver table "
            f"holds {engine.n_active} above a; the largest depth it allows "
            f"is {engine.n_active}")

    k_est = _estimate_sup_rhs(problem, lattice)
    a_const = problem.lipschitz_A
    if a_const is None:
        a_const = max(estimate_lipschitz(problem.rhs, problem), 1e-300)
    # C(b), computed once per solve: the bound at n = 1 with K = 1
    c_bound = apriori_bound(1, problem.b,
                            replace(problem, lipschitz_A=a_const), 1.0, ctrl)

    phi = np.full(len(engine.nodes), problem.zeta)
    iterates = [phi[:rows].tolist()]
    residuals: list[float] = []
    bounds: list[float] = []
    converged = False
    iterations = 0
    for n in range(1, max_iter + 1):
        phi_next = engine.step(phi)
        residual = float(np.max(np.abs(phi_next[:rows] - phi[:rows])))
        residuals.append(residual)
        bounds.append(_induction_bound(n, c_bound, a_const, k_est))
        iterates.append(phi_next[:rows].tolist())
        phi = phi_next
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
        lattice=lattice,
        iterates=iterates,
        residuals=residuals,
        apriori_bounds=bounds,
        converged=converged,
        iterations_used=iterations,
        k_estimate=k_est,
        stop_reason="converged" if converged else "max_iter",
        n_nodes=len(engine.nodes),
        n_active=engine.n_active,
        sum_length=engine.sum_length,
        rhs_evals=problem.rhs.points,
        bound_slack=max(slack, 0.0),
    )


class _CountedRhs:
    """The rhs as _tabulate sees it; counts the points tabulated."""

    def __init__(self, rhs: Rhs):
        self.rhs, self.points = rhs, 0

    def table(self, *tables) -> np.ndarray:
        values = _tabulate(self.rhs, *tables)
        self.points += values.size
        return values


def _estimate_sup_rhs(problem: CauchyProblem, lattice: QLattice) -> float:
    """Sampled sup of |f| over lattice nodes x a trust-region grid; a lower
    estimate of the theorem's constant K, reported as a diagnostic."""
    us = np.linspace(problem.zeta - problem.radius_r,
                     problem.zeta + problem.radius_r, _SUP_U_SAMPLES)
    ws = [problem.a] + lattice.nodes if problem.a > 0.0 else lattice.nodes
    values = _tabulate(problem.rhs, np.array(ws, dtype=float)[:, None], us)
    return _max_skipping_nan(np.abs(values))


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
    * x**(p n alpha); the series solution of cD^alpha u = u, u(0) = 1."""
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    alpha = order.alpha
    q, p = params.q, params.p
    pq = q_number(p, q)
    gammas = q_gamma(np.arange(1, m + 1) * alpha + 1.0, params.qp,
                     ctrl).tolist()
    total = 1.0
    for n, gamma in enumerate(gammas, 1):
        total += pq ** (-n * alpha) / gamma * x ** (p * n * alpha)
    return total


def estimate_lipschitz(rhs: Rhs, problem: CauchyProblem) -> float:
    """Sampled difference-quotient estimate of the Lipschitz constant of
    u -> rhs(w, u) over [a, b] x [zeta - r, zeta + r].

    A lower estimate of the true constant, never a certificate.
    """
    ws = _nodes(problem.b, problem.params.q, _LIPSCHITZ_SAMPLES)
    ws = np.append(ws[ws > problem.a], [problem.a] if problem.a > 0.0 else [])
    lo = problem.zeta - problem.radius_r
    hi = problem.zeta + problem.radius_r
    # one (y1, y2) pair per row and column; equal pairs are skipped
    pairs = np.random.default_rng(0).uniform(
        lo, hi, size=(len(ws), _LIPSCHITZ_SAMPLES, 2))
    keep = pairs[..., 0] != pairs[..., 1]
    ys = pairs[keep]
    ts = np.broadcast_to(ws[:, None], keep.shape)
    f = _tabulate(rhs, ts[keep][:, None], ys)
    with np.errstate(all="ignore"):  # inf - inf and overflow, as floats do
        quotients = np.abs(f[:, 0] - f[:, 1]) / np.abs(ys[:, 0] - ys[:, 1])
    return _max_skipping_nan(quotients)


def _max_skipping_nan(values: np.ndarray) -> float:
    """The largest value, and 0 for none: NaN is skipped, as a running
    max(best, v) from best = 0 skips it."""
    return float(np.fmax.reduce(values, axis=None, initial=0.0))
