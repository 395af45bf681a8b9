"""Jackson q-integration, the q-derivative, q-lattices, and the sup norm.

A ScalarFunction is any deterministic callable real -> real, evaluable on the
q-lattice of its domain. Callers supplying functions used concurrently must
make them re-entrant. A function may carry a `table(xs)` attribute giving
its values at every node of an array at once, as a compiled expression
does. A family of k functions is one callable whose value at a point is
the array of its k values, and whose `table(xs)` is a (k, len(xs)) stack;
the operators and sup_norm then give k results in one call, and the
operators one kernel pass for a vector of orders too. A Jackson integral
takes one function and one float limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .qcore import DEFAULT_INTEGRATION_CTRL, QParams, SeriesControl, _check_q

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
        if not 0.0 < self.b < math.inf:
            what = "finite" if self.b > 0.0 else "positive"
            raise DomainError(f"b must be {what}, got {self.b}")
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


def _nodes(b: float, q: float, size: int, stride: int = 1) -> np.ndarray:
    """The geometric nodes b q**(k stride), k < size: every lattice, kernel
    grid and node table of the library is formed here, so equal nodes are
    equal floats."""
    return np.multiply.outer(b, np.power(q, np.arange(0, size * stride,
                                                       stride)))


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
                          ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL
                          ) -> float:
    """Jackson integral (1-q) b sum_i q**i f(q**i b) over [0, b], b > 0
    finite: J^1 at p = 1, whose kernel weights are all 1, one kernel row
    over f tabulated once on its n nodes plus the geometric tail of its
    last two terms, or ConvergenceError (operators.LatticeKernel)."""
    return jackson_integral(f, 0.0, QLattice(b, q, 1).b, q, ctrl)


def jackson_integral(f: ScalarFunction, a: float, b: float, q: float,
                     ctrl: SeriesControl = DEFAULT_INTEGRATION_CTRL) -> float:
    """Jackson integral over [a, b], int_0^b - int_0^a as one kernel row
    (see jackson_integral_zero): at a = b q**k the finite sum."""
    from .operators import OperatorContext, frac_integral  # imports qcalc
    if not a >= 0.0:
        raise DomainError(f"a must be nonnegative, got {a}")
    if a > b:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    return 0.0 if a == b < math.inf else frac_integral(
        f, QLattice(b, q, 1).b, 1.0, OperatorContext(QParams(q), a, ctrl))


def sup_norm(f: ScalarFunction, lattice: QLattice):
    """max |f| over the lattice nodes (base node b included), from f
    tabulated once; NaN if f is NaN at a node. A family gives its k norms."""
    norm = np.max(np.abs(_tabulate(f, np.array(lattice.nodes))), axis=-1)
    return float(norm) if norm.ndim == 0 else norm
