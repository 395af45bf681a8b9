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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

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
