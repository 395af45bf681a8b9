"""Tree-walking references for the expression language at one point.

`evaluate` walks an AST once per call, checking each node's domain on
its operands before it computes, where the library computes first and
checks whole arrays after. Its arithmetic is the library's: the numpy
ufuncs of `exprparse.FUNCTIONS`, with each variable a one-element array
and each literal or constant a Python float, as `exprparse.compile`
holds them. The tests compare compiled calls and tables with it bit for
bit.

`evaluate_math` is the same walk over Python floats with the `math`
functions and `operator.pow`, an oracle independent of numpy: compiled
values agree with it to within an ulp or two, and errors word for word.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping

import numpy as np

from qfrac.exprparse import (
    Call,
    EvalError,
    Expr,
    FUNCTIONS,
    Num,
    Unary,
    Var,
    to_source,
)


def _math(fn):
    """fn with math's exceptions turned into IEEE values: overflow is inf
    (the walk then reports it), sin(inf) and cos(inf) are NaN."""
    def call(*args):
        try:
            return fn(*args)
        except OverflowError:
            return math.inf
        except ValueError:
            return math.nan
    return call


_NUMPY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
          "^": np.power, "neg": np.negative, "round": np.round, **FUNCTIONS}
_MATH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "^": _math(operator.pow),
         "neg": operator.neg,
         "round": lambda y: float(round(y)) if math.isfinite(y) else y,
         **{name: _math(getattr(math, name))
            for name in ("exp", "log", "sin", "cos", "sqrt")}, "abs": abs}


def evaluate(expr: Expr, variables: Mapping[str, float],
             consts: Mapping[str, float] | None = None) -> float:
    """expr at one point through numpy; variables become one-element
    arrays, consts stay floats. Raises the EvalError of the first node
    that fails."""
    values = {name: float(v) for name, v in (consts or {}).items()}
    values.update({name: np.array([float(v)]) for name, v in
                   variables.items()})
    with np.errstate(all="ignore"):
        return _scalar(_walk(expr, values, _NUMPY))


def evaluate_math(expr: Expr, variables: Mapping[str, float],
                  consts: Mapping[str, float] | None = None) -> float:
    """expr at one point through math and operator.pow."""
    values = {name: float(v) for name, v in (consts or {}).items()}
    values.update({name: float(v) for name, v in variables.items()})
    return _walk(expr, values, _MATH)


def _scalar(x) -> float:
    return float(np.ravel(x)[0])


def _walk(expr: Expr, values: Mapping, ops: Mapping):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in values:
            raise EvalError(f"unbound variable {expr.name!r}")
        return values[expr.name]
    if isinstance(expr, Unary):
        return ops["neg"](_walk(expr.operand, values, ops))
    src = to_source(expr)
    if isinstance(expr, Call):
        arg = _walk(expr.arg, values, ops)
        x = _scalar(arg)
        if expr.func == "log" and x <= 0.0:
            raise EvalError(f"log of nonpositive value {x} in {src}")
        if expr.func == "sqrt" and x < 0.0:
            raise EvalError(f"sqrt of negative value {x} in {src}")
        result = ops[expr.func](arg)
        if math.isfinite(x) and not math.isfinite(_scalar(result)):
            raise EvalError(f"{expr.func} of {x} is out of range in {src}")
        return result
    left = _walk(expr.left, values, ops)
    right = _walk(expr.right, values, ops)
    x, y = _scalar(left), _scalar(right)
    if expr.op == "/" and y == 0.0:
        raise EvalError(f"division by zero in {src}")
    if expr.op != "^":
        return ops[expr.op](left, right)
    # real power; a negative base only with an exponent within 1e-9 of an
    # integer, rounded to it in the exponent's own form
    exponent = right
    if x < 0.0:
        exponent = ops["round"](right)
        if abs(y - _scalar(exponent)) > 1e-9:
            raise EvalError(f"negative base with non-integer exponent "
                            f"in {src}")
    if x == 0.0 and -math.inf < y < 0.0:
        raise EvalError(f"zero to a negative power in {src}")
    result = ops["^"](left, exponent)
    if (math.isfinite(x) and math.isfinite(y)
            and not math.isfinite(_scalar(result))):
        raise EvalError(f"{x} ^ {y} is out of range in {src}")
    return result
