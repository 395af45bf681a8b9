"""Minimal expression language for right-hand sides f(t, u) and test
functions f(x).

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;
    NUMBER  = decimal literal with optional fraction and exponent ;
    IDENT   = one or more letters ;

"^" is right-associative and binds tighter than unary minus; there is no
implicit multiplication. Identifiers are either calls to one of
{exp, log, sin, cos, sqrt, abs} or variables from the allowed set fixed at
parse time. Errors are reported as "line:col: message". Each parenthesis,
function call, unary minus and binary operator nests its operands one level
deeper; parse rejects an expression more than MAX_DEPTH levels deep, so the
parser, `compile` and the compiled closures never recurse past it.

Every operator and function is its numpy float64 ufunc: + - * / and unary
minus round as Python floats do, while exp, log and ^ can differ from
`math` in the last bit (sin, cos, sqrt and abs agree with it). `compile`
turns an AST into one closure per node, built once, over whole arrays;
a call at one point, as `evaluate` makes, is its table at that element,
so a table's element is bit for bit the call there. On an error the
table runs the element loop to raise.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "ParseError",
    "EvalError",
    "FUNCTIONS",
    "MAX_DEPTH",
    "parse",
    "evaluate",
    "compile",
    "to_source",
]

FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class EvalError(ArithmeticError):
    """Domain failure during evaluation, naming the offending node."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # only "-"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Unary, Binary, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z]+)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "op", "end"
    text: str
    col: int  # 1-based byte offset


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            col = len(source) - len(stripped) + 1
            raise ParseError(1, col, f"unexpected character {stripped[0]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind) + 1))
    tokens.append(_Token("end", "", len(source) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed_vars
        # parse methods return (node, levels); self.depth counts the levels
        # open around the current token, so recursion stops at MAX_DEPTH too
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        if self.cur.kind == "op" and self.cur.text == op:
            self.advance()
            return
        raise ParseError(1, self.cur.col, f"expected {op!r}")

    def deeper(self, levels: int, col: int) -> int:
        """levels + 1, or a ParseError at col past MAX_DEPTH."""
        if levels >= MAX_DEPTH:
            raise ParseError(1, col, f"expression nests deeper than "
                             f"{MAX_DEPTH} levels")
        return levels + 1

    def inner(self, parse, levels: int = 0) -> tuple[Expr, int]:
        """parse() past the current "(", "-" or "^": its node, and one
        level more than its levels and than the given levels."""
        col = self.advance().col
        self.depth = self.deeper(self.depth, col)
        node, below = parse()
        self.depth -= 1
        return node, self.deeper(max(below, levels), col)

    def parse_binary(self, ops: str, operand) -> tuple[Expr, int]:
        """operand() {op operand()} for op in ops, grouped from the left."""
        node, levels = operand()
        while self.cur.kind == "op" and self.cur.text in ops:
            tok = self.advance()
            right, r = operand()
            node = Binary(tok.text, node, right)
            levels = self.deeper(max(levels, r), tok.col)
        return node, levels

    def parse_expr(self) -> tuple[Expr, int]:
        """expr = term {("+" | "-") term}, term = unary {("*" | "/") unary}."""
        return self.parse_binary(
            "+-", lambda: self.parse_binary("*/", self.parse_unary))

    def parse_unary(self) -> tuple[Expr, int]:
        """unary = "-" unary | power, with power = atom ["^" unary]."""
        if self.cur.kind == "op" and self.cur.text == "-":
            node, levels = self.inner(self.parse_unary)
            return Unary("-", node), levels
        base, levels = self.parse_atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            exponent, levels = self.inner(self.parse_unary, levels)
            return Binary("^", base, exponent), levels
        return base, levels

    def parse_atom(self) -> tuple[Expr, int]:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text)), 0
        if tok.kind == "ident":
            self.advance()
            if self.cur.kind == "op" and self.cur.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(
                        1, tok.col,
                        f"unknown function {tok.text!r}; known functions: "
                        f"{', '.join(sorted(FUNCTIONS))}")
                arg, levels = self.inner(self.parse_expr)
                self.expect_op(")")
                return Call(tok.text, arg), levels
            if tok.text not in self.allowed:
                raise ParseError(
                    1, tok.col,
                    f"unknown identifier {tok.text!r}; allowed: "
                    f"{{{', '.join(sorted(self.allowed))}}}")
            return Var(tok.text), 0
        if tok.kind == "op" and tok.text == "(":
            node, levels = self.inner(self.parse_expr)
            self.expect_op(")")
            return node, levels
        raise ParseError(1, tok.col, "expected expression")


def parse(source: str, allowed_vars: set[str] | frozenset[str]) -> Expr:
    """Parse source into an AST; variables must come from allowed_vars."""
    if not source.strip():
        raise ParseError(1, 1, "expected expression")
    parser = _Parser(_tokenize(source), frozenset(allowed_vars))
    node, _ = parser.parse_expr()
    if parser.cur.kind != "end":
        raise ParseError(1, parser.cur.col,
                         f"unexpected trailing input {parser.cur.text!r}")
    return node


def evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate an AST at one point: compile(expr, names) called with the
    bound values."""
    return compile(expr, tuple(bindings))(*bindings.values())


def _first(values, mask) -> float:
    """values at the first True of mask, in C order, as a Python float."""
    return float(np.broadcast_to(values, np.shape(mask)).flat[np.argmax(mask)])


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply}
# the functions that can fail, with their domains; sin, cos and abs are
# finite at every finite argument
_CHECKED = {"exp": None, "log": (np.less_equal, "log of nonpositive value"),
            "sqrt": (np.less, "sqrt of negative value")}


def _call(func: str, arg: Callable, src: str) -> Callable:
    """FUNCTIONS[func] of the argument, checked: a value outside the
    domain, or a non-finite result from a finite argument, raises."""
    ufunc, domain = FUNCTIONS[func], _CHECKED.get(func)
    if func not in _CHECKED:
        return lambda c: ufunc(arg(c))

    def call(c):
        x = arg(c)
        values = ufunc(x)
        if np.isfinite(values).all():
            return values
        if domain is not None:
            bad = domain[0](x, 0.0)
            if bad.any():
                raise EvalError(f"{domain[1]} {_first(x, bad)} in {src}")
        bad = np.isfinite(x) & ~np.isfinite(values)
        if bad.any():
            raise EvalError(f"{func} of {_first(x, bad)} is out of range "
                            f"in {src}")
        return values

    return call


def _power(left, right, src: str):
    """np.power(left, right), checked. At a negative base an exponent
    within 1e-9 of an integer is rounded to it, there only: a scalar
    exponent stays a scalar, since numpy computes a scalar 2, 0.5 or -1
    differently from an array of them. Zero to a negative power, or a
    non-finite result from finite operands, raises."""
    values = np.power(left, right)
    if np.isfinite(values).all():
        return values
    # a negative base with a non-integer exponent is NaN: round or raise
    negative = np.less(left, 0.0)
    if negative.any():
        nearest = np.round(right)
        if (negative & (np.abs(right - nearest) > 1e-9)).any():
            raise EvalError(f"negative base with non-integer exponent "
                            f"in {src}")
        redo = negative & (right != nearest)
        if redo.any():
            if np.ndim(values) == 0:
                values = np.power(left, nearest)
            else:
                values[redo] = np.power(
                    left[redo] if np.ndim(left) else left,
                    nearest[redo] if np.ndim(nearest) else nearest)
    bad = ~np.isfinite(values) & np.isfinite(left) & np.isfinite(right)
    if bad.any():
        base = _first(left, bad)
        if base == 0.0:
            raise EvalError(f"zero to a negative power in {src}")
        raise EvalError(f"{base} ^ {_first(right, bad)} is out of range "
                        f"in {src}")
    return values


def _build(expr: Expr, index: Mapping[str, int],
           consts: Mapping[str, float]) -> Callable:
    """The closure of one AST node: from the list of variable columns
    (contiguous float arrays of one shape) to an array, or to a scalar for
    a constant. Every node is one numpy float64 ufunc over the whole
    column, and checks its own domain, so a masked error (0 * log(0))
    still raises. Constants stay scalars."""
    if isinstance(expr, Num):
        value = expr.value
        return lambda c: value
    if isinstance(expr, Var):
        if expr.name in index:
            return operator.itemgetter(index[expr.name])
        if expr.name not in consts:
            raise EvalError(f"unbound variable {expr.name!r}")
        value = consts[expr.name]
        return lambda c: value
    if isinstance(expr, Unary):
        a = _build(expr.operand, index, consts)
        return lambda c: np.negative(a(c))
    if isinstance(expr, Call):
        return _call(expr.func, _build(expr.arg, index, consts),
                     to_source(expr))
    la = _build(expr.left, index, consts)
    ra = _build(expr.right, index, consts)
    if expr.op in _ARITHMETIC:
        ufunc = _ARITHMETIC[expr.op]
        return lambda c: ufunc(la(c), ra(c))
    src = to_source(expr)
    if expr.op == "^":
        return lambda c: _power(la(c), ra(c), src)

    def divide(c):
        left, right = la(c), ra(c)
        values = np.divide(left, right)
        if not np.isfinite(values).all() and np.any(np.equal(right, 0.0)):
            raise EvalError(f"division by zero in {src}")
        return values

    return divide


def compile(expr: Expr, names: Sequence[str],
            consts: Mapping[str, float] | None = None):
    """Compile an AST, once, into a function of the variables in names.

    The function is called positionally, f(t, u) for names ("t", "u"), and
    returns a float, or raises EvalError naming the first node that fails.
    An identifier bound by neither names nor consts raises EvalError here.

    Its attribute table(*arrays) gives f at every element of the broadcast
    arrays, as a new float array, from one pass over whole arrays (no
    numpy warning escapes it). f itself is table at one element, so each
    element is bit for bit f at that element. If the pass meets a domain
    error, table runs the element loop in C order instead, to raise the
    first failing element's error (an empty table has none).
    """
    names = tuple(names)
    index = {name: i for i, name in enumerate(names)}
    bound = {name: float(value) for name, value in (consts or {}).items()
             if name not in index}
    root = _build(expr, index, bound)

    def run(cols: list):
        with np.errstate(all="ignore"):
            return root(cols)

    def table(*arrays) -> np.ndarray:
        if len(arrays) != len(names):
            raise TypeError(f"expected {len(names)} arguments "
                            f"({', '.join(names)}), got {len(arrays)}")
        cols = [np.asarray(x, dtype=float) for x in arrays]
        shape = cols[0].shape if cols else ()
        if any(c.shape != shape for c in cols):
            shape = np.broadcast_shapes(*(c.shape for c in cols))
        # one unit-stride column per variable, (1,) at a point: numpy's power
        # takes a 0-d or broadcast (stride 0) column as a scalar exponent,
        # and a reversed one (stride -8) takes an exp loop with other bits
        if len(shape) != 1 or not all(c.shape == shape and c.strides == (8,)
                                      for c in cols):
            cols = [np.broadcast_to(c, shape).flatten() for c in cols]
        try:
            values = run(cols)
        except EvalError:
            # the C-order element loop raises its first element's error
            for row in zip(*(c.tolist() for c in cols)) if cols else [()]:
                run([np.array([x]) for x in row])
            values = np.empty(0)
        if np.ndim(values) == 0:
            return np.full(shape, values, dtype=float)
        values = np.array(values, dtype=float)  # a new array
        return values if values.shape == shape else values.reshape(shape)

    def fn(*args: float) -> float:
        return float(table(*args))

    fn.table = table
    return fn


def _prec(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[expr.op]
    if isinstance(expr, Unary):
        return 3
    return 5


def to_source(expr: Expr) -> str:
    """Pretty-print an AST; re-parsing yields a structurally identical tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({to_source(expr.arg)})"
    if isinstance(expr, Unary):
        inner = to_source(expr.operand)
        if _prec(expr.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    left, right = to_source(expr.left), to_source(expr.right)
    p = _prec(expr)
    if expr.op == "^":
        # right-associative: parenthesize a left child that is itself a power
        # or anything binding looser; keep unary on the right bare.
        if _prec(expr.left) <= p:
            left = f"({left})"
        if isinstance(expr.right, Binary) and _prec(expr.right) < 3:
            right = f"({right})"
    else:
        if _prec(expr.left) < p:
            left = f"({left})"
        if _prec(expr.right) <= p:
            right = f"({right})"
    return f"{left} {expr.op} {right}"
