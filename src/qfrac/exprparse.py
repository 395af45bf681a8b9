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
parse time. Errors are reported as "line:col: message".

`evaluate` walks an AST once per call. `compile` turns it into a closure
tree, built once, that gives the same values bit for bit and also
evaluates whole arrays of bindings in one call.
"""

from __future__ import annotations

import math
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
    "parse",
    "evaluate",
    "compile",
    "to_source",
]

FUNCTIONS = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": abs,
}


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
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num") + 1))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group("ident"),
                                 m.start("ident") + 1))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op") + 1))
    tokens.append(_Token("end", "", len(source) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed_vars

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

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            return Unary("-", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.advance()
            return Binary("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.cur.kind == "op" and self.cur.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(
                        1, tok.col,
                        f"unknown function {tok.text!r}; known functions: "
                        f"{', '.join(sorted(FUNCTIONS))}")
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text not in self.allowed:
                raise ParseError(
                    1, tok.col,
                    f"unknown identifier {tok.text!r}; allowed: "
                    f"{{{', '.join(sorted(self.allowed))}}}")
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(1, tok.col, "expected expression")


def parse(source: str, allowed_vars: set[str] | frozenset[str]) -> Expr:
    """Parse source into an AST; variables must come from allowed_vars."""
    if not source.strip():
        raise ParseError(1, 1, "expected expression")
    parser = _Parser(_tokenize(source), frozenset(allowed_vars))
    node = parser.parse_expr()
    if parser.cur.kind != "end":
        raise ParseError(1, parser.cur.col,
                         f"unexpected trailing input {parser.cur.text!r}")
    return node


def evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate an AST; deterministic for fixed bindings."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise EvalError(f"unbound variable {expr.name!r}")
        return float(bindings[expr.name])
    if isinstance(expr, Unary):
        return -evaluate(expr.operand, bindings)
    if isinstance(expr, Call):
        x = evaluate(expr.arg, bindings)
        if expr.func == "log" and x <= 0.0:
            raise EvalError(f"log of nonpositive value {x} in {to_source(expr)}")
        if expr.func == "sqrt" and x < 0.0:
            raise EvalError(f"sqrt of negative value {x} in {to_source(expr)}")
        try:
            return FUNCTIONS[expr.func](x)
        except (OverflowError, ValueError):
            raise EvalError(f"{expr.func} of {x} is out of range in "
                            f"{to_source(expr)}") from None
    left = evaluate(expr.left, bindings)
    right = evaluate(expr.right, bindings)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        if right == 0.0:
            raise EvalError(f"division by zero in {to_source(expr)}")
        return left / right
    # "^": real power; negative base only for (near-)integer exponents
    try:
        if left < 0.0:
            nearest = round(right)
            if abs(right - nearest) > 1e-9:
                raise EvalError(f"negative base with non-integer exponent "
                                f"in {to_source(expr)}")
            return left ** int(nearest)
        return left**right
    except ZeroDivisionError:
        raise EvalError(
            f"zero to a negative power in {to_source(expr)}") from None
    except (OverflowError, ValueError):
        raise EvalError(f"{left} ^ {right} is out of range in "
                        f"{to_source(expr)}") from None


def _checked_call(func: str, src: str) -> Callable[[float], float]:
    """FUNCTIONS[func] with evaluate's domain checks and error texts."""
    fn = FUNCTIONS[func]

    def call(x: float) -> float:
        if func == "log" and x <= 0.0:
            raise EvalError(f"log of nonpositive value {x} in {src}")
        if func == "sqrt" and x < 0.0:
            raise EvalError(f"sqrt of negative value {x} in {src}")
        try:
            return fn(x)
        except (OverflowError, ValueError):
            raise EvalError(f"{func} of {x} is out of range in "
                            f"{src}") from None

    return call


def _checked_power(src: str) -> Callable[[float, float], float]:
    """left ^ right with evaluate's checks and error texts."""

    def power(left: float, right: float) -> float:
        try:
            if left < 0.0:
                nearest = round(right)
                if abs(right - nearest) > 1e-9:
                    raise EvalError(f"negative base with non-integer "
                                    f"exponent in {src}")
                return left ** int(nearest)
            return left**right
        except ZeroDivisionError:
            raise EvalError(f"zero to a negative power in {src}") from None
        except (OverflowError, ValueError):
            raise EvalError(f"{left} ^ {right} is out of range in "
                            f"{src}") from None

    return power


def _elementwise(fn: Callable[..., float], *args) -> np.ndarray:
    """fn of Python floats at every element of the broadcast args, in C
    order. Whatever fn raises becomes EvalError, on which table reruns the
    checked scalar code for the error text."""
    args = np.broadcast_arrays(*args)
    flat = (a.ravel().tolist() for a in args)
    try:
        values = np.fromiter(map(fn, *flat), float, args[0].size)
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise EvalError(str(exc)) from None
    return values.reshape(args[0].shape)


_ARITHMETIC = {"+": (operator.add, np.add), "-": (operator.sub, np.subtract),
               "*": (operator.mul, np.multiply)}


def _build(expr: Expr, index: Mapping[str, int],
           consts: Mapping[str, float]):
    """The (scalar, array) closure pair of one AST node.

    scalar maps the tuple of variable values (Python floats) to a float,
    in evaluate's operator order. array maps the list of variable arrays
    to an array (a float for a constant): + - * / and unary minus as numpy
    ufuncs, which round exactly as Python floats do, and function calls
    and ^ element by element through the math functions and float power
    unchecked (at a negative base, once every exponent there is checked
    and rounded), since numpy's can differ from math's in the last bit.
    array raises EvalError if scalar would at some element, and otherwise
    returns scalar's values.
    """
    if isinstance(expr, Num):
        value = expr.value
        return (lambda v: value), (lambda c: value)
    if isinstance(expr, Var):
        if expr.name in index:
            get = operator.itemgetter(index[expr.name])
            return get, get
        if expr.name not in consts:
            raise EvalError(f"unbound variable {expr.name!r}")
        value = consts[expr.name]
        return (lambda v: value), (lambda c: value)
    if isinstance(expr, Unary):
        s, a = _build(expr.operand, index, consts)
        return (lambda v: -s(v)), (lambda c: np.negative(a(c)))
    if isinstance(expr, Call):
        s, a = _build(expr.arg, index, consts)
        call = _checked_call(expr.func, to_source(expr))
        fn = FUNCTIONS[expr.func]
        return (lambda v: call(s(v))), (lambda c: _elementwise(fn, a(c)))
    ls, la = _build(expr.left, index, consts)
    rs, ra = _build(expr.right, index, consts)
    if expr.op in _ARITHMETIC:
        op, ufunc = _ARITHMETIC[expr.op]
        return (lambda v: op(ls(v), rs(v))), (lambda c: ufunc(la(c), ra(c)))
    src = to_source(expr)
    if expr.op == "/":
        def divide(v):
            left, right = ls(v), rs(v)
            if right == 0.0:
                raise EvalError(f"division by zero in {src}")
            return left / right

        def divide_array(c):
            left, right = la(c), ra(c)
            if np.any(right == 0.0):
                raise EvalError(f"division by zero in {src}")
            return np.divide(left, right)

        return divide, divide_array
    power = _checked_power(src)

    def power_array(c):
        left, right = la(c), ra(c)
        negative = np.less(left, 0.0)
        if negative.any():
            # the checked power's rounding: float ** int is the same C pow
            nearest = np.round(right)
            if not (~negative | (np.abs(right - nearest) <= 1e-9)).all():
                raise EvalError(f"negative base with non-integer exponent "
                                f"in {src}")
            right = np.where(negative, nearest, right)
        return _elementwise(operator.pow, left, right)

    return (lambda v: power(ls(v), rs(v))), power_array


def compile(expr: Expr, names: Sequence[str],
            consts: Mapping[str, float] | None = None):
    """Compile an AST, once, into a function of the variables in names.

    The function is called positionally, f(t, u) for names ("t", "u"), and
    returns bit for bit evaluate(expr, {**consts, **dict(zip(names, args))})
    or raises the EvalError evaluate would. An identifier bound by neither
    names nor consts raises EvalError here.

    Its attribute table(*arrays) gives f at every element of the broadcast
    arrays, as a new float array, from one pass over whole arrays (no
    numpy warning escapes it). If that pass meets a domain error, table
    calls f element by element in C order instead, so it returns the same
    values and raises the same error as that loop would.
    """
    names = tuple(names)
    index = {name: i for i, name in enumerate(names)}
    bound = {name: float(value) for name, value in (consts or {}).items()
             if name not in index}
    scalar, array = _build(expr, index, bound)

    def check_arity(args: tuple) -> None:
        if len(args) != len(names):
            raise TypeError(f"expected {len(names)} arguments "
                            f"({', '.join(names)}), got {len(args)}")

    def fn(*args: float) -> float:
        check_arity(args)
        return scalar(tuple(map(float, args)))

    def table(*arrays) -> np.ndarray:
        check_arity(arrays)
        cols = [np.asarray(x, dtype=float) for x in arrays]
        shape = cols[0].shape if cols else ()
        if any(c.shape != shape for c in cols):
            shape = np.broadcast_shapes(*(c.shape for c in cols))
        try:
            with np.errstate(all="ignore"):
                values = array(cols)
            if np.shape(values) != shape:
                values = np.broadcast_to(values, shape)
            return np.array(values, dtype=float)
        except EvalError:
            pass
        flat = [np.broadcast_to(c, shape).ravel().tolist() for c in cols]
        rows = zip(*flat) if flat else [()] * math.prod(shape)
        return np.array([scalar(v) for v in rows], dtype=float).reshape(shape)

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
