"""Jackson q-integration, the q-derivative, q-lattices, and the sup norm.

A ScalarFunction is any deterministic callable real -> real, evaluable on the
q-lattice of its domain. Callers supplying functions used concurrently must
make them re-entrant. A function may carry a `table(xs)` attribute giving
its values at every node of an array at once, as a compiled expression
does. A family of k functions is one callable whose value at a point is
the array of its k values, and whose `table(xs)` is a (k, len(xs)) stack;
the operators and sup_norm then give k results in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError
from .qcore import DEFAULT_INTEGRATION_CTRL, SeriesControl, _check_q
from .qcore import _SUM_MASS_TOL, _SUM_REL_TOL, _SUM_RUN

__all__ = [
    "ScalarFunction",
    "QLattice",
    "q_derivative",
    "jackson_integral_zero",
    "jackson_integral",
    "sup_norm",
]

ScalarFunction = Callable[[float], float]


@dataclass(frozen=True)
class QLattice:
    """Geometric lattice {b q**k : k < depth} intersected with (floor_a, b]."""

    b: float
    q: float
    depth: int
    floor_a: float = 0.0

    def __post_init__(self):
        if not self.b > 0.0:
            raise DomainError(f"b must be positive, got {self.b}")
        _check_q(self.q)
        if self.depth < 1:
            raise DomainError(f"depth must be >= 1, got {self.depth}")
        if not 0.0 <= self.floor_a < self.b:
            raise DomainError(
                f"floor_a must satisfy 0 <= floor_a < b, got {self.floor_a}"
            )

    @property
    def nodes(self) -> list[float]:
        """Nodes b q**k, strictly decreasing, restricted to (floor_a, b]:
        the floats every kernel grid holds. Only the k at which b q**k may
        exceed the floor and 2**-1075 (below which it rounds to 0) are
        formed, however deep the lattice."""
        lowest = math.log2(max(self.floor_a, 5e-324)) - 1.0
        size = min(self.depth, 2 + int(
            (lowest - math.log2(self.b)) / math.log2(self.q)))
        return [x for x in _nodes(self.b, self.q, size).tolist()
                if x > self.floor_a]


def _nodes(b: float, q: float, size: int) -> np.ndarray:
    """The geometric nodes b q**k, k < size: every lattice, kernel grid and
    node table of the library is formed here, so equal nodes are equal
    floats."""
    return b * np.power(q, np.arange(size))


def _tabulate(f, *tables) -> np.ndarray:
    """f at every element of the broadcast tables (f(w) over one table of
    nodes, f(t, u) over two). One f.table(*tables) call when f carries a
    table attribute, as a compiled expression does; otherwise one call
    per element with Python floats, in C order. A family's k values per
    element come out as the leading axis."""
    table = getattr(f, "table", None)
    if table is not None:
        return table(*tables)
    tables = np.broadcast_arrays(*tables)
    flat = zip(*(t.ravel().tolist() for t in tables))
    values = np.array([f(*args) for args in flat], dtype=float)
    return values.T.reshape(values.shape[1:] + tables[0].shape)


class _FromTable:
    """A function given by its table: table(ws) gives its values at every
    node, a (k, len(ws)) stack for a family of k, and a call at a point is
    the table at that one node."""

    def __init__(self, table):
        self.table = table

    def __call__(self, w):
        return self.table(np.array([w], dtype=float))[..., 0]


def q_derivative(f: ScalarFunction, x: float, q: float) -> float:
    """D_q f(x) = (f(x) - f(qx)) / ((1 - q) x), for x > 0."""
    _check_q(q)
    if not x > 0.0:
        raise DomainError(f"q-derivative needs x > 0, got {x}")
    return (f(x) - f(q * x)) / ((1.0 - q) * x)


def jackson_integral_zero(f: ScalarFunction, b: float, q: float,
                          ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> float:
    """Jackson integral (1-q) b sum_i q**i f(q**i b) over [0, b].

    Stops once |term| <= max(1e-13 |partial|, eps sum of |terms|) for 3
    successive terms (qcore's _SUM_* constants; eps is the float epsilon),
    so tiny terms are still summed and a sum cancelling to 0 (or f = 0)
    still stops; raises ConvergenceError at max_terms. f is tabulated on
    blocks of nodes of doubling length, so it is called at up to twice
    the nodes the sum uses (f must be evaluable on the whole lattice);
    the sum is the same float as a term-by-term loop's.
    """
    _check_q(q)
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b}")
    scale = (1.0 - q) * b
    total, mass, small, qi = 0.0, 0.0, 0, 1.0
    start, size = 0, 64
    # qi *= q and total += term of a term-by-term loop are the sequential
    # scans np.cumprod and np.cumsum, so the terms and partial sums are
    # the same floats
    while start < ctrl.max_terms:
        m = min(size, ctrl.max_terms - start)
        qis = np.full(m, q)
        qis[0] = qi
        np.cumprod(qis, out=qis)
        terms = scale * qis * _tabulate(f, qis * b)
        totals = np.cumsum(np.concatenate(([total], terms)))[1:]
        masses = np.cumsum(np.concatenate(([mass], np.abs(terms))))[1:]
        # fmax keeps the mass floor where the partial sum is NaN
        small_at = np.abs(terms) <= np.fmax(_SUM_REL_TOL * np.abs(totals),
                                            _SUM_MASS_TOL * masses)
        for i, is_small in enumerate(small_at.tolist()):
            small = small + 1 if is_small else 0
            if small >= _SUM_RUN:
                return float(totals[i])
        total, mass, qi = float(totals[-1]), float(masses[-1]), qis[-1] * q
        start, size = start + m, 2 * size
    raise ConvergenceError(
        f"Jackson integral on [0, {b}] did not meet its stopping rule "
        f"within {ctrl.max_terms} terms"
    )


def jackson_integral(f: ScalarFunction, a: float, b: float, q: float,
                     ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> float:
    """Jackson integral over [a, b], as the difference of zero-based integrals."""
    if a < 0.0:
        raise DomainError(f"a must be nonnegative, got {a}")
    if a == b:
        return 0.0
    if a > b:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    total = jackson_integral_zero(f, b, q, ctrl)
    if a > 0.0:
        total -= jackson_integral_zero(f, a, q, ctrl)
    return total


def sup_norm(f: ScalarFunction, lattice: QLattice):
    """max |f| over the lattice nodes (base node b included), from f
    tabulated once; NaN if f is NaN at a node. A family gives its k norms."""
    norm = np.max(np.abs(_tabulate(f, np.array(lattice.nodes))), axis=-1)
    return float(norm) if norm.ndim == 0 else norm
