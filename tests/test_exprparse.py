import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrac.exprparse import (
    Binary,
    Call,
    EvalError,
    Num,
    ParseError,
    Unary,
    Var,
    compile,
    evaluate,
    parse,
    to_source,
)

import expr_reference as reference

VARS = frozenset({"t", "u"})


def ev(source, **bindings):
    return evaluate(parse(source, VARS), bindings)


class TestPrecedence:
    # each entry: source, bindings, expected value
    TABLE = [
        ("1+2*3", {}, 7.0),
        ("(1+2)*3", {}, 9.0),
        ("2*3+1", {}, 7.0),
        ("10-4-3", {}, 3.0),
        ("12/4/3", {}, 1.0),
        ("10-2*3", {}, 4.0),
        ("2^3^2", {}, 512.0),
        ("(2^3)^2", {}, 64.0),
        ("2^2*3", {}, 12.0),
        ("3*2^2", {}, 12.0),
        ("-2^2", {}, -4.0),
        ("(-2)^2", {}, 4.0),
        ("2^-3", {}, 0.125),
        ("-2-3", {}, -5.0),
        ("- -3", {}, 3.0),
        ("2*-3", {}, -6.0),
        ("1+t*u", {"t": 2.0, "u": 3.0}, 7.0),
        ("t^2-u", {"t": 3.0, "u": 4.0}, 5.0),
        ("exp(0)+cos(0)", {}, 2.0),
        ("sqrt(t^2+u^2)", {"t": 3.0, "u": 4.0}, 5.0),
    ]

    @pytest.mark.parametrize("source,bindings,want", TABLE)
    def test_table(self, source, bindings, want):
        assert ev(source, **bindings) == pytest.approx(want, rel=1e-14)

    def test_scientific_notation(self):
        assert ev("1.5e2+.5") == pytest.approx(150.5)


class TestAstShape:
    def test_right_assoc_power(self):
        node = parse("2^3^2", VARS)
        assert node == Binary("^", Num(2.0), Binary("^", Num(3.0), Num(2.0)))

    def test_unary_binds_looser_than_power(self):
        assert parse("-2^2", VARS) == Unary("-", Binary("^", Num(2.0),
                                                        Num(2.0)))

    def test_call(self):
        assert parse("sin(t)", VARS) == Call("sin", Var("t"))


class TestParseErrors:
    def test_dangling_operator(self):
        with pytest.raises(ParseError, match=r"^1:4: expected expression"):
            parse("t +", VARS)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'x'"):
            parse("x + 1", VARS)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'tan'"):
            parse("tan(t)", VARS)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError, match="unexpected trailing input"):
            parse("2t", VARS)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match=r"expected '\)'"):
            parse("(1+2", VARS)

    def test_empty(self):
        with pytest.raises(ParseError, match="1:1: expected expression"):
            parse("  ", VARS)

    def test_bad_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("1 & 2", VARS)

    def test_column_is_one_based(self):
        with pytest.raises(ParseError) as exc:
            parse("u * * t", VARS)
        assert exc.value.col == 5


class TestEvalErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            ev("1/(t-1)", t=1.0)

    def test_log_domain(self):
        with pytest.raises(EvalError, match="log of nonpositive"):
            ev("log(t)", t=0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalError, match="sqrt of negative"):
            ev("sqrt(t)", t=-1.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError, match="negative base"):
            ev("t^0.5", t=-2.0)

    def test_negative_base_integer_power_ok(self):
        assert ev("t^3", t=-2.0) == -8.0

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound variable"):
            evaluate(parse("t+u", VARS), {"t": 1.0})


def exprs(depth=3, ops="+-*/", funcs=("sin", "cos", "abs")):
    """Random ASTs over t and u with nonnegative literals."""
    leaf = st.one_of(
        st.floats(0.0, 10.0).map(Num),
        st.sampled_from(["t", "u"]).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(ops), children, children).map(
                lambda t: Binary(*t)),
            children.map(lambda c: Unary("-", c)),
            st.tuples(st.sampled_from(funcs), children).map(
                lambda t: Call(*t)),
        )

    return st.recursive(leaf, extend, max_leaves=12)


class TestRoundTrip:
    @given(expr=exprs())
    @settings(max_examples=150, deadline=None)
    def test_print_then_parse_is_identity(self, expr):
        assert parse(to_source(expr), VARS) == expr

    @given(expr=exprs(), t=st.floats(0.1, 3.0), u=st.floats(0.1, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_evaluation_survives_round_trip(self, expr, t, u):
        bindings = {"t": t, "u": u}
        try:
            want = evaluate(expr, bindings)
        except EvalError:
            return
        got = evaluate(parse(to_source(expr), VARS), bindings)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want

    @given(t=st.floats(0.1, 2.0), u=st.floats(0.1, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_purity(self, t, u):
        node = parse("exp(t)*u - sin(u)/2 + t^2", VARS)
        first = evaluate(node, {"t": t, "u": u})
        for _ in range(3):
            assert evaluate(node, {"t": t, "u": u}) == first


ALL_FUNCS = ("sin", "cos", "abs", "exp", "log", "sqrt")
VALUES = st.floats(-3.0, 3.0)


def bits(x):
    return struct.pack("<d", x)


def outcome(fn, *args):
    """fn's value, or the text of the EvalError it raises."""
    try:
        return fn(*args)
    except EvalError as exc:
        return f"EvalError: {exc}"


NEGATIVE_BASES = [-2.5, 0.75, -1.0, 3.0, -7.25, -1e-3]


class TestCompile:
    @given(expr=exprs(ops="+-*/^", funcs=ALL_FUNCS), t=VALUES, u=VALUES)
    @settings(max_examples=300, deadline=None)
    def test_scalar_matches_evaluate_bit_for_bit(self, expr, t, u):
        want = outcome(reference.evaluate, expr, {"t": t, "u": u})
        got = outcome(compile(expr, ("t", "u")), t, u)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, float) and bits(got) == bits(want)

    @given(expr=exprs(ops="+-*/^", funcs=ALL_FUNCS),
           base=st.lists(VALUES, min_size=1, max_size=24),
           offset=st.integers(0, 23), length=st.integers(0, 24),
           u_scalar=st.none() | VALUES)
    @settings(max_examples=300, deadline=None)
    def test_table_matches_elementwise_calls(self, expr, base, offset,
                                             length, u_scalar):
        f = compile(expr, ("t", "u"))
        arr = np.array(base)
        t = arr[offset:offset + length]
        u = (arr[::-1][offset:offset + length] if u_scalar is None
             else u_scalar)
        try:
            want = [f(ti, ui) for ti, ui in
                    zip(t.tolist(), np.broadcast_to(u, t.shape).tolist())]
        except EvalError as exc:
            with pytest.raises(EvalError) as raised:
                f.table(t, u)
            assert str(raised.value) == str(exc)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.table(t, u)
        assert got.shape == t.shape and got.dtype == float
        assert [bits(x) for x in got.tolist()] == [bits(x) for x in want]

    def test_exp_of_inf_is_inf(self):
        """An infinite argument is no range error: only a finite one
        whose value leaves float range raises."""
        f = compile(parse("exp(u)", VARS), ("t", "u"))
        assert f(0.0, math.inf) == math.inf

    def test_negative_base_near_integer_exponent_rounds(self):
        f = compile(parse("(0-2)^2.0000000001", VARS), ("t", "u"))
        assert f(0.0, 0.0) == 4.0

    def test_scalars_broadcast(self):
        f = compile(parse("t*u + q", VARS | {"q"}), ("t", "u"), {"q": 0.5})
        got = f.table(np.array([[1.0], [2.0]]), np.array([3.0, 4.0, 5.0]))
        assert got.tolist() == [[3.5, 4.5, 5.5], [6.5, 8.5, 10.5]]
        assert f.table(2.0, 3.0).shape == ()
        assert compile(parse("2", VARS), ("t", "u")).table(
            np.zeros(3), 1.0).tolist() == [2.0, 2.0, 2.0]

    def test_fallback_raises_the_first_nodes_error(self):
        f = compile(parse("log(t) + sqrt(u)", VARS), ("t", "u"))
        with pytest.raises(EvalError) as raised:
            f.table(np.array([1.0, 0.5, -1.0]), np.array([1.0, -1.0, 4.0]))
        assert str(raised.value) == "sqrt of negative value -1.0 in sqrt(u)"
        # the first failing element in C order is (0, 1), a sqrt, although
        # the whole-array pass fails first at log
        with pytest.raises(EvalError) as raised:
            f.table(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        assert str(raised.value) == "sqrt of negative value -1.0 in sqrt(u)"
        # an empty table has no element to fail
        got = compile(parse("-log(0)", VARS), ("t", "u")).table(
            np.empty(0), np.empty(0))
        assert got.shape == (0,)
        # no names: the point call and the table raise the pass's error
        g = compile(parse("log(0)", VARS), ())
        for call in (g, g.table):
            with pytest.raises(EvalError) as raised:
                call()
            assert str(raised.value) == (
                "log of nonpositive value 0.0 in log(0.0)")

    def test_overflow_to_nan_warns_nothing(self):
        f = compile(parse("(u*1e308*10)*0", VARS), ("t", "u"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.table(np.ones(3), np.ones(3))
        assert np.isnan(got).all() and math.isnan(f(1.0, 1.0))

    def test_table_is_a_new_array(self):
        u = np.array([1.0, 2.0])
        out = compile(parse("u", VARS), ("t", "u")).table(0.0, u)
        out[0] = 5.0
        assert u.tolist() == [1.0, 2.0]

    def test_names_shadow_consts_and_unbound_fails(self):
        expr = parse("t + q", VARS | {"q"})
        assert compile(expr, ("t", "q"), {"q": 10.0})(1.0, 2.0) == 3.0
        with pytest.raises(EvalError, match="unbound variable 'q'"):
            compile(expr, ("t",))

    def test_wrong_arity(self):
        f = compile(parse("t + u", VARS), ("t", "u"))
        with pytest.raises(TypeError, match="expected 2 arguments"):
            f(1.0)
        with pytest.raises(TypeError, match="expected 2 arguments"):
            f.table(np.ones(2))

    def test_none_raises(self):
        """None is no number: a cast to float would make it NaN."""
        f = compile(parse("x + 1", {"x"}), ("x",))
        for call, arg in ((f, None), (f.table, None),
                          (f.table, [None, 1.0])):
            with pytest.raises(TypeError):  # numpy's cannot-cast message
                call(arg)
        assert f.table([1, 2.5]).tolist() == [2.0, 3.5]

    @pytest.mark.parametrize("source,us", [
        ("log(u)", [2.0, 0.0, -1.0]),
        ("log(-u)", [-2.0, 3.0]),
        ("sqrt(u - 2)", [3.0, 1.0]),
        ("exp(u)", [1.0, 1000.0]),
        ("sin(u)", [1.0, math.inf]),
        ("u^-1", [2.0, 0.0]),
        ("u^(1/3)", [8.0, -8.0]),
        ("u^2.0000000001", [3.0, -2.0]),
        ("u^2 + u^0", [math.nan, 2.0]),
        ("sqrt(u)", [-0.0, 4.0]),
        ("u^0.5", [-0.0, 4.0]),
        ("u^3", [-0.0, 4.0]),
        ("u^-1", [1.0, -0.0]),
        # negative bases: exponents rounded once over the table
        ("u^2", NEGATIVE_BASES),
        ("u^3", NEGATIVE_BASES),
        ("u^-2", NEGATIVE_BASES),
        ("u^0", NEGATIVE_BASES),
        ("u^(2 + 5e-10)", NEGATIVE_BASES),
        ("(-u)^3", NEGATIVE_BASES),
        ("u^2.5", NEGATIVE_BASES),
        ("u^3", [-2.0, -1e200, -3.0]),
    ])
    def test_table_through_raw_loops_matches_evaluate(self, source, us):
        """Functions and ^ run their ufuncs over whole tables and check
        every node there; where that raises, table still gives the
        reference's first error, and otherwise its values bit for bit."""
        expr = parse(source, VARS)
        f = compile(expr, ("t", "u"))
        want = [outcome(reference.evaluate, expr, {"t": 0.5, "u": u})
                for u in us]
        errors = [w for w in want if isinstance(w, str)]
        if errors:
            with pytest.raises(EvalError) as raised:
                f.table(0.5, np.array(us))
            assert f"EvalError: {raised.value}" == errors[0]
        else:
            got = f.table(0.5, np.array(us)).tolist()
            assert [bits(x) for x in got] == [bits(x) for x in want]


def table_outcome(f, *cols):
    """f.table's values as bits, or the text of the EvalError it raises."""
    try:
        return [bits(x) for x in f.table(*cols).ravel().tolist()]
    except EvalError as exc:
        return f"EvalError: {exc}"


def first_outcome(outcomes):
    """The first error text among per-element outcomes, else their bits."""
    errors = [w for w in outcomes if isinstance(w, str)]
    return errors[0] if errors else [bits(w) for w in outcomes]


# u * u rounds this u's square to ...c5p+0, numpy's array power to ...c6p+0:
# a -1.5 beside it in the table must not switch u^2 from one to the other
LAYOUT_U = 1.3251083656922211
LAYOUT_EXPONENTS = [2.0, 0.5, -1.0, 3.0, 2 + 5e-10]
LAYOUT_CASES = ([("u^t", e) for e in LAYOUT_EXPONENTS]
                + [("t^2", None), ("u^0.5", None), ("u^-1", None),
                   ("(-u)^3", None), ("u^(2 + 5e-10)", None)])


class TestLayoutIndependence:
    """An element's value is the scalar call's at that element, whatever
    else shares its table and however the table is laid out."""

    @staticmethod
    def columns(exponent, signs):
        rng = np.random.default_rng(15)
        u = rng.uniform(0.05, 4.0, 80)
        if signs == "mixed":
            u[rng.random(80) < 0.3] *= -1.0
        u[[3, 40]], u[[4, 41]] = LAYOUT_U, -1.5 if signs == "mixed" else 1.5
        t = u[::-1].copy() if exponent is None else np.full(80, exponent)
        return t, u

    @pytest.mark.parametrize("signs", ["mixed", "positive"])
    @pytest.mark.parametrize("source,exponent", LAYOUT_CASES)
    def test_slices_broadcasts_and_calls_agree(self, source, exponent,
                                               signs):
        f = compile(parse(source, VARS), ("t", "u"))
        t, u = self.columns(exponent, signs)
        calls = [outcome(f, ti, ui) for ti, ui in zip(t.tolist(), u.tolist())]
        refs = [outcome(reference.evaluate, parse(source, VARS),
                        {"t": ti, "u": ui})
                for ti, ui in zip(t.tolist(), u.tolist())]
        assert first_outcome(calls) == first_outcome(refs)
        for offset in (0, 1, 5, 16):
            for length in range(1, 65):
                s = slice(offset, offset + length)
                assert (table_outcome(f, t[s], u[s])
                        == first_outcome(calls[s])), (offset, length)
        # t broadcast from a scalar, and from a column against a row
        for j in (0, 3, 4, 40):
            want = first_outcome([outcome(f, t[j], ui) for ui in u.tolist()])
            assert table_outcome(f, t[j], u) == want
        want = first_outcome([outcome(f, ti, ui) for ti in t[:6].tolist()
                              for ui in u[:12].tolist()])
        assert table_outcome(f, t[:6, None], u[None, :12]) == want

    def test_square_keeps_its_bits_beside_a_negative_base(self):
        f = compile(parse("u^2", VARS), ("t", "u"))
        alone = f.table(0.0, np.array([LAYOUT_U]))[0]
        shared = f.table(0.0, np.array([LAYOUT_U, -1.5]))[0]
        assert alone.hex() == shared.hex() == (LAYOUT_U * LAYOUT_U).hex()
        assert f(0.0, LAYOUT_U) == LAYOUT_U * LAYOUT_U

    @pytest.mark.parametrize("source", ["exp(u)", "u^t", "log(u)"])
    def test_one_element_views_at_any_stride(self, source):
        # numpy flags every one-element array contiguous, whatever its
        # stride; exp(1.546875) over a reversed view is 1 ulp off
        f = compile(parse(source, VARS), ("t", "u"))
        u = np.array([1.546875, 0.5, 2.0])
        for view in (u[::-1][2:], u[::2][:1], np.broadcast_to(u[0], (1,))):
            assert view.flags.c_contiguous and view[0] == u[0]
            got = f.table(np.array([2.5]), view)
            assert got[0].hex() == f(2.5, u[0]).hex(), view.strides


def ulp_gap(got, want):
    """|got - want| in units of want's last place, elementwise."""
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want) / np.spacing(np.abs(want))


ORACLE_DRAWS = 20000


def oracle_inputs(name):
    rng = np.random.default_rng(1)
    wide = np.exp(rng.uniform(-700.0, 700.0, ORACLE_DRAWS))
    return {
        "exp": rng.uniform(-700.0, 700.0, ORACLE_DRAWS),
        "log": np.concatenate([wide, rng.uniform(0.5, 2.0, ORACLE_DRAWS)]),
        "trig": rng.uniform(-100.0, 100.0, ORACLE_DRAWS),
        "wide": wide,
        "base": rng.uniform(0.0, 10.0, ORACLE_DRAWS),
        "signed": rng.uniform(-10.0, 10.0, ORACLE_DRAWS),
        "exponent": rng.uniform(-3.0, 3.0, ORACLE_DRAWS),
    }[name]


class TestMathOracle:
    """Compiled tables against math and operator.pow, independent of
    numpy. Over these draws the measured worst gap is 1 ulp (exp, ^);
    log, sin, cos, sqrt and abs gave math's bits, where sqrt and abs must
    (IEEE 754 rounds sqrt correctly)."""

    @pytest.mark.parametrize("source,u_draws,t_draws", [
        ("exp(u)", "exp", None),
        ("log(u)", "log", None),
        ("sin(u)", "trig", None),
        ("cos(u)", "trig", None),
        ("sqrt(u)", "wide", None),
        ("abs(u)", "signed", None),
        ("u^t", "base", "exponent"),
        ("u^2", "base", None),
        ("u^0.5", "base", None),
        ("u^-1", "base", None),
        ("u^3", "signed", None),
        ("(-u)^3", "signed", None),
        ("u^(2 + 5e-10)", "signed", None),
        ("u^(1/3)", "base", None),
    ])
    def test_values_within_two_ulp(self, source, u_draws, t_draws):
        expr = parse(source, VARS)
        u = oracle_inputs(u_draws)
        t = np.zeros_like(u) if t_draws is None else oracle_inputs(t_draws)
        got = compile(expr, ("t", "u")).table(t, u)
        want = [reference.evaluate_math(expr, {"t": ti, "u": ui})
                for ti, ui in zip(t.tolist(), u.tolist())]
        assert np.isfinite(want).all()
        if source in ("sqrt(u)", "abs(u)"):
            assert got.tolist() == want
        assert ulp_gap(got, want).max() <= 2.0

    @pytest.mark.parametrize("source,us", [
        ("log(u)", [2.0, 0.0]),
        ("log(u)", [2.0, -1.0]),
        ("sqrt(u)", [4.0, -2.0]),
        ("1/(u - 1)", [2.0, 1.0]),
        ("exp(u)", [1.0, 1000.0]),
        ("u^0.5", [4.0, -4.0]),
        ("u^-1", [2.0, 0.0]),
        ("u^-1", [2.0, -0.0]),
        ("(u*10)^400", [0.1, 1.0]),
        ("(-u)^3", [1.0, 1e200]),
        # errors masked by a later node: a final isfinite would miss them
        ("1/(1/u)", [2.0, 0.0]),
        ("0*log(u)", [2.0, 0.0]),
        ("exp(u)*0", [1.0, 1000.0]),
    ])
    def test_error_texts_match_math(self, source, us):
        expr = parse(source, VARS)
        f = compile(expr, ("t", "u"))
        want = [outcome(reference.evaluate_math, expr, {"t": 0.5, "u": u})
                for u in us]
        assert isinstance(want[0], float) and isinstance(want[-1], str)
        assert [outcome(f, 0.5, u) for u in us] == want
        assert table_outcome(f, 0.5, np.array(us)) == want[-1]

    @pytest.mark.parametrize("source,u,want", [
        ("u^0.5", -0.0, -0.0),           # math: +0.0
        ("sin(u)", math.inf, math.nan),  # math: ValueError
        ("u^-1", -math.inf, -0.0),
        ("0^u", -math.inf, math.inf),    # as Python's 0.0 ** -inf
    ])
    def test_ieee_values(self, source, u, want):
        f = compile(parse(source, VARS), ("t", "u"))
        got = [f.table(0.0, np.array([u, 1.0]))[0], f(0.0, u)]
        if math.isnan(want):
            assert np.isnan(got).all()
        else:
            assert [bits(x) for x in got] == [bits(want)] * 2
