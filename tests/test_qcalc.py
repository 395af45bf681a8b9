import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrac.errors import ConvergenceError, DomainError
from qfrac.qcalc import (
    QLattice,
    jackson_integral,
    jackson_integral_zero,
    q_derivative,
    sup_norm,
)
from qfrac.qcore import SeriesControl, q_number


def brute_jackson(f, b, q, terms):
    """Independent oracle: fixed-length geometric sum, no adaptivity."""
    return (1.0 - q) * b * sum(q**i * f(q**i * b) for i in range(terms))


class TestQDerivative:
    def test_linear(self):
        assert q_derivative(lambda x: 3.0 * x, 2.0, 0.5) == pytest.approx(
            3.0, rel=1e-14)

    def test_monomial(self):
        # D_q x^n = [n]_q x^(n-1)
        for n in (2, 3, 5):
            for q in (0.3, 0.9):
                got = q_derivative(lambda x: x**n, 1.7, q)
                want = q_number(n, q) * 1.7 ** (n - 1)
                assert got == pytest.approx(want, rel=1e-12)

    def test_at_zero_rejected(self):
        with pytest.raises(DomainError):
            q_derivative(lambda x: x, 0.0, 0.5)


class TestJacksonIntegral:
    @pytest.mark.parametrize("integral,message", [
        (lambda f: jackson_integral_zero(f, 0.0, 0.5),
         "b must be positive, got 0.0"),
        (lambda f: jackson_integral(f, -1.0, 1.0, 0.5),
         "a must be nonnegative, got -1.0"),
        (lambda f: jackson_integral(f, 2.0, 1.0, 0.5),
         "need a <= b, got a=2.0, b=1.0"),
        # a NaN limit fails the check rather than passing as [0, b]
        (lambda f: jackson_integral(f, math.nan, 1.0, 0.5),
         "a must be nonnegative, got nan"),
    ])
    def test_rejects_bad_limits(self, integral, message):
        with pytest.raises(DomainError) as raised:
            integral(lambda x: x)
        assert str(raised.value) == message

    def test_constant(self):
        # sum of the geometric series collapses to b
        assert jackson_integral_zero(lambda x: 1.0, 2.0, 0.5) == pytest.approx(
            2.0, rel=1e-12)

    def test_monomial_closed_form(self):
        # integral of x^n over [0, b] is b^(n+1) / [n+1]_q
        for n in (1, 2, 4):
            for q in (0.3, 0.5, 0.9):
                got = jackson_integral_zero(lambda x: x**n, 1.5, q)
                want = 1.5 ** (n + 1) / q_number(n + 1, q)
                assert got == pytest.approx(want, rel=1e-11)

    def test_vs_brute(self):
        f = lambda x: math.exp(-x) * (1.0 + x * x)
        got = jackson_integral_zero(f, 1.0, 0.7)
        want = brute_jackson(f, 1.0, 0.7, 400)
        assert got == pytest.approx(want, rel=1e-12)

    def test_interval_split(self):
        f = lambda x: x * x + 1.0
        whole = jackson_integral(f, 0.0, 2.0, 0.6)
        parts = (jackson_integral(f, 0.0, 0.7, 0.6)
                 + jackson_integral(f, 0.7, 2.0, 0.6))
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_empty_interval(self):
        assert jackson_integral(lambda x: x, 1.3, 1.3, 0.5) == 0.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_tiny_terms_are_summed(self, q):
        # every term of f = 1e-20 lies far below 1e-15; the sum is 1e-20
        # times that of f = 1, which holds every term down to 1e-15 of it
        got = jackson_integral_zero(lambda x: 1e-20, 1.0, q)
        one = jackson_integral_zero(lambda x: 1.0, 1.0, q)
        assert got == pytest.approx(1e-20 * one, rel=1e-14, abs=0.0)
        assert got == pytest.approx(1e-20, rel=2e-15, abs=0.0)
        assert jackson_integral_zero(lambda x: 0.0, 1.0, q) == 0.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_cancelling_integral_reaches_zero(self, q):
        # x - 1/(1 + q) integrates to b**2 / (1 + q) - b / (1 + q) = 0 on
        # [0, 1]; the partial sums pass through 0, and the last term,
        # large against the sum, adds its geometric tail without raising
        got = jackson_integral_zero(lambda x: x - 1.0 / (1.0 + q), 1.0, q)
        assert abs(got) <= 1e-13

    @pytest.mark.parametrize("q,max_terms", [
        (0.5, 5000), (0.9, 5000), (0.99, 5000), (0.995, 8000)])
    @pytest.mark.parametrize("b", [1.0, 0.3, 2.5])
    def test_powers_hold_their_tail(self, q, max_terms, b):
        """int_0^b x**k d_q x = b**(k+1) / [k+1]_q, [k+1]_q summed as
        1 + q + ... + q**k, within 2e-15 for k = 0, 1, 2: a sum that
        stopped on term size lost up to 2e-11 at q = 0.995."""
        ctrl = SeriesControl(max_terms=max_terms)
        for k in range(3):
            want = b ** (k + 1) / math.fsum(q**j for j in range(k + 1))
            got = jackson_integral_zero(lambda x: x**k, b, q, ctrl)
            assert type(got) is float
            assert abs(got - want) <= 2e-15 * want

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_terms_that_do_not_decay_raise(self, q):
        """The terms (1 - q) b f(b q**i) q**i of f = 1/w do not fall: the
        integral diverges, where the last two terms' ratio is 1."""
        with pytest.raises(ConvergenceError) as err:
            jackson_integral_zero(lambda x: 1.0 / x, 1.0, q)
        assert str(err.value).startswith(
            "Jackson sum at node t=1.0 decays too slowly: its last two "
            "terms have ratio ")
        assert "\n" not in str(err.value)
        # a bounded oscillation reads as no slow decay
        assert abs(jackson_integral_zero(lambda x: math.sin(1.0 / x), 1.0,
                                         q)) < 1.0

    def test_infinite_limit_is_refused(self):
        for integral in (lambda f: jackson_integral_zero(f, math.inf, 0.5),
                         lambda f: jackson_integral(f, 0.5, math.inf, 0.5),
                         lambda f: jackson_integral(f, math.inf, math.inf,
                                                    0.5)):
            with pytest.raises(DomainError) as raised:
                integral(lambda x: 1.0)
            assert str(raised.value) == "b must be finite, got inf"

    def test_nonconvergence(self):
        # at q = 0.99 the terms 0.01 * 0.99**i of f = 1 stay above 1e-13
        # times the partial sum until i = 2521
        ctrl = SeriesControl(max_terms=10)
        with pytest.raises(ConvergenceError):
            jackson_integral_zero(lambda x: 1.0, 1.0, 0.99, ctrl)

    @given(c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0),
           q=st.sampled_from([0.3, 0.5, 0.9]))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, c1, c2, q):
        f = lambda x: x * x
        g = lambda x: math.cos(x)
        combo = jackson_integral_zero(lambda x: c1 * f(x) + c2 * g(x), 1.0, q)
        split = (c1 * jackson_integral_zero(f, 1.0, q)
                 + c2 * jackson_integral_zero(g, 1.0, q))
        assert combo == pytest.approx(split, rel=1e-10, abs=1e-12)

    @given(q=st.sampled_from([0.3, 0.5, 0.9]),
           b=st.floats(0.25, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_truncation(self, q, b):
        # doubling the term budget must not move a converged value
        f = lambda x: math.sin(x) + 0.5
        base = SeriesControl(max_terms=4000)
        double = SeriesControl(max_terms=8000)
        v1 = jackson_integral_zero(f, b, q, base)
        v2 = jackson_integral_zero(f, b, q, double)
        assert v1 == pytest.approx(v2, rel=1e-12)


class Tabled:
    """f(x) = c2 x**2 + c1 x + c0 with a table giving the same floats."""

    def __init__(self, c2, c1, c0):
        self.c = (c2, c1, c0)

    def __call__(self, x):
        c2, c1, c0 = self.c
        return (c2 * x + c1) * x + c0

    table = __call__


class TestJacksonTablePath:
    """The Jackson integral is one order-1 kernel row: f tabulated once on
    the row's n nodes b q**i, a table attribute or not, to one float."""

    @given(q=st.floats(0.05, 0.995), b=st.floats(0.01, 5.0),
           c=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                       st.floats(-3.0, 3.0)))
    @settings(max_examples=150, deadline=None)
    def test_table_and_calls_give_one_float(self, q, b, c):
        f = Tabled(*c)
        ctrl = SeriesControl(max_terms=20_000)
        got = jackson_integral_zero(f, b, q, ctrl)
        assert type(got) is float
        assert got == jackson_integral_zero(lambda x: f(x), b, q, ctrl)
        # the closed form c2 b**3 / [3]_q + c1 b**2 / [2]_q + c0 b
        parts = [c[0] * b**3 / (1.0 + q + q * q), c[1] * b**2 / (1.0 + q),
                 c[2] * b]
        # (plus subnormal room: (1 - q) b 5e-324 rounds to 0)
        assert abs(got - math.fsum(parts)) <= (1e-14 * sum(map(abs, parts))
                                               + 1e-300)

    @pytest.mark.parametrize("max_terms", [10, 64, 100, 300])
    def test_same_error_at_max_terms(self, max_terms):
        # at q = 0.99 the kernel row needs 3440 terms
        ctrl = SeriesControl(max_terms=max_terms)
        for f in (Tabled(0.0, 0.0, 1.0), lambda x: 1.0):
            with pytest.raises(ConvergenceError) as err:
                jackson_integral_zero(f, 1.0, 0.99, ctrl)
            assert str(err.value) == (
                f"operator Jackson sum needs 3440 terms, exceeding max_terms="
                f"{max_terms}; raise SeriesControl.max_terms (the CLI reads "
                f"it from QFRAC_MAX_TERMS)")

    def test_f_is_tabulated_once_on_the_row_nodes(self):
        # at q = 0.5 the row holds 0.5**i for i < 53, down to 1e-15 and
        # three terms past it
        calls, tables = [], []

        def f(x):
            calls.append(x)
            return 1.0

        def table(xs):
            tables.append(xs.tolist())
            return np.ones_like(xs)

        g = lambda x: 1.0
        g.table = table
        ctrl = SeriesControl()
        assert jackson_integral_zero(f, 1.0, 0.5, ctrl) == \
            jackson_integral_zero(g, 1.0, 0.5, ctrl)
        assert calls == [0.5**i for i in range(53)] and tables == [calls]

    def test_nan_propagates(self):
        # a NaN term makes the sum NaN; it raises nothing
        for f in (Tabled(0.0, 0.0, math.nan),
                  lambda x: math.nan if x < 1e-6 else 1.0):
            assert math.isnan(jackson_integral_zero(f, 1.0, 0.5))


class TestFundamentalTheorem:
    @given(q=st.sampled_from([0.3, 0.5, 0.9]), x=st.floats(0.1, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_derivative_of_integral(self, q, x):
        f = lambda t: t * t + math.exp(-t)
        F = lambda s: jackson_integral_zero(f, s, q)
        assert q_derivative(F, x, q) == pytest.approx(f(x), rel=1e-9)

    @given(q=st.sampled_from([0.3, 0.5, 0.9]), x=st.floats(0.1, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_integral_of_derivative(self, q, x):
        f = lambda t: t**3 + 2.0 * t
        df = lambda t: q_derivative(f, t, q)
        got = jackson_integral_zero(df, x, q)
        assert got == pytest.approx(f(x) - f(0.0), rel=1e-9)


class TestDoubleIntegralInterchange:
    def test_order_swap(self):
        # int_0^x int_0^v g ds dv = int_0^x int_{qs}^x g dv ds
        q, x = 0.5, 1.0
        g = lambda s, v: s + v * v

        def lhs_inner(v):
            return jackson_integral_zero(lambda s: g(s, v), v, q)

        def rhs_inner(s):
            return jackson_integral(lambda v: g(s, v), q * s, x, q)

        lhs = jackson_integral_zero(lhs_inner, x, q)
        rhs = jackson_integral_zero(rhs_inner, x, q)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_order_swap_product_kernel(self):
        q, x = 0.7, 0.8
        g = lambda s, v: math.exp(-s) * (1.0 + v)

        def lhs_inner(v):
            return jackson_integral_zero(lambda s: g(s, v), v, q)

        def rhs_inner(s):
            return jackson_integral(lambda v: g(s, v), q * s, x, q)

        lhs = jackson_integral_zero(lhs_inner, x, q)
        rhs = jackson_integral_zero(rhs_inner, x, q)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestLattice:
    def test_nodes_descend_from_b(self):
        lat = QLattice(1.0, 0.5, 4)
        assert list(lat.nodes) == pytest.approx([1.0, 0.5, 0.25, 0.125])

    def test_floor_cuts(self):
        lat = QLattice(1.0, 0.5, 10, floor_a=0.2)
        assert min(lat.nodes) > 0.2
        assert len(lat.nodes) == 3

    def test_depth_past_the_floor_forms_no_nodes(self):
        """A lattice deeper than float range holds only its positive
        nodes above the floor: lattice_depth has no upper bound."""
        assert QLattice(1.0, 0.5, 10**12, floor_a=0.2).nodes == [
            1.0, 0.5, 0.25]
        nodes = QLattice(1.0, 0.5, 10**12).nodes
        assert len(nodes) == 1075 and nodes[-1] == 2.0**-1074

    def test_validation(self):
        with pytest.raises(DomainError):
            QLattice(0.0, 0.5, 4)
        with pytest.raises(DomainError):
            QLattice(1.0, 0.5, 0)
        with pytest.raises(DomainError, match="floor_a must satisfy"):
            QLattice(1.0, 0.5, 4, floor_a=1.0)

    def test_infinite_b_is_refused(self):
        with pytest.raises(DomainError) as err:
            QLattice(math.inf, 0.5, 3)
        assert str(err.value) == "b must be finite, got inf"
        with pytest.raises(DomainError) as err:
            QLattice(0.0, 0.5, 3)
        assert str(err.value) == "b must be positive, got 0.0"


class TestSupNorm:
    def test_parabola(self):
        # x(1-x) peaks at 1/4; the q-lattice hits 0.5 exactly for q = 0.5
        lat = QLattice(1.0, 0.5, 12)
        assert sup_norm(lambda x: x * (1.0 - x), lat) == pytest.approx(0.25)

    def test_absolute_value(self):
        lat = QLattice(1.0, 0.5, 6)
        assert sup_norm(lambda x: -3.0 * x, lat) == pytest.approx(3.0)

    def test_table_and_family(self):
        lat = QLattice(1.0, 0.5, 6)
        f = Tabled(1.0, -1.0, 0.0)
        assert sup_norm(f, lat) == sup_norm(lambda x: f(x), lat)
        family = lambda x: np.array([-3.0 * x, x * x])
        family.table = lambda xs: np.stack((-3.0 * xs, xs * xs))
        assert sup_norm(family, lat).tolist() == [3.0, 1.0]

    def test_nan_at_a_node_is_nan(self):
        lat = QLattice(1.0, 0.5, 6)
        assert math.isnan(sup_norm(lambda x: math.nan if x < 0.2 else x,
                                   lat))
