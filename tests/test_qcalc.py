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

import kernel_reference as reference


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
        # every term of f = 1e-20 lies far below 1e-15; the stopping floor
        # scales with the sum, so the sum is 1e-20 times that of f = 1
        got = jackson_integral_zero(lambda x: 1e-20, 1.0, q)
        one = jackson_integral_zero(lambda x: 1.0, 1.0, q)
        assert got == pytest.approx(1e-20 * one, rel=1e-14, abs=0.0)
        # the stop at q = 0.99 leaves a relative tail of about 1e-11
        assert got == pytest.approx(1e-20, rel=1e-10, abs=0.0)
        assert jackson_integral_zero(lambda x: 0.0, 1.0, q) == 0.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_cancelling_integral_reaches_zero(self, q):
        # x - 1/(1 + q) integrates to b**2 / (1 + q) - b / (1 + q) = 0 on
        # [0, 1]; the partial sums pass through 0, so only a floor from the
        # terms' own mass stops the sum near it
        got = jackson_integral_zero(lambda x: x - 1.0 / (1.0 + q), 1.0, q)
        assert abs(got) <= 1e-13

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
    """Every function is summed in blocks, through its table or one call
    per node; the sum is the term-by-term loop's float bit for bit, and so
    is its failure at max_terms."""

    @given(q=st.floats(0.05, 0.995), b=st.floats(0.01, 5.0),
           c=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                       st.floats(-3.0, 3.0)))
    @settings(max_examples=150, deadline=None)
    def test_same_float_as_the_loop(self, q, b, c):
        f = Tabled(*c)
        ctrl = SeriesControl(max_terms=20_000)
        want = reference.jackson_sum(f, b, q, ctrl)
        for g in (f, lambda x: f(x)):  # through f.table, and per node
            got = jackson_integral_zero(g, b, q, ctrl)
            assert type(got) is float
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want

    def test_run_of_small_terms_spans_blocks(self):
        # terms 0.375 * 0.625**i of f = 1 drop below 1e-13 times the
        # partial sum 1 - 0.625**(i + 1) from i = 62 on (log(1e-13 / 0.375)
        # / log(0.625) = 61.6; eps times the sum of |terms|, here the
        # partial sum, is the lesser floor), so the third small term in a
        # row, where the sum stops, is the first of the second 64-term block
        ctrl = SeriesControl()
        assert [i for i in range(61, 64) if 0.375 * 0.625**i <= max(
            1e-13, np.finfo(float).eps) * (1.0 - 0.625 ** (i + 1))] == [62, 63]
        got = jackson_integral_zero(Tabled(0.0, 0.0, 1.0), 1.0, 0.625, ctrl)
        assert got == reference.jackson_sum(lambda x: 1.0, 1.0, 0.625, ctrl)
        assert abs(got - (1.0 - 0.625**65)) < 1e-14

    @pytest.mark.parametrize("max_terms", [10, 64, 100, 300])
    def test_same_error_at_max_terms(self, max_terms):
        # at q = 0.99 no term gets small within 300 (see test_nonconvergence)
        ctrl = SeriesControl(max_terms=max_terms)
        with pytest.raises(ConvergenceError) as loop_err:
            reference.jackson_sum(lambda x: 1.0, 1.0, 0.99, ctrl)
        for f in (Tabled(0.0, 0.0, 1.0), lambda x: 1.0):
            with pytest.raises(ConvergenceError) as err:
                jackson_integral_zero(f, 1.0, 0.99, ctrl)
            assert str(err.value) == str(loop_err.value)

    def test_error_past_the_stop_propagates(self):
        # the sum of 0.5**i stops at i = 45, inside the first 64-node
        # block; f raises from node 50 on, which only the block reaches
        boom = ValueError("f is undefined below 2**-50")

        def f(x):
            if x < 2.0**-49.5:
                raise boom
            return 1.0

        ctrl = SeriesControl()
        assert reference.jackson_sum(f, 1.0, 0.5, ctrl) == pytest.approx(1.0)
        with pytest.raises(ValueError) as err:
            jackson_integral_zero(f, 1.0, 0.5, ctrl)
        assert err.value is boom

    def test_nan_never_stops_the_sum(self):
        ctrl = SeriesControl(max_terms=200)
        f = Tabled(0.0, 0.0, math.nan)
        with pytest.raises(ConvergenceError):
            jackson_integral_zero(f, 1.0, 0.5, ctrl)


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
