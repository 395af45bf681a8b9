import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrac import exprparse
from qfrac.errors import ConvergenceError, DomainError, PoleError
from qfrac.operators import (
    FracOrder,
    LatticeKernel,
    OperatorContext,
    bound_constant,
    caputo_derivative,
    caputo_derivative_simplified,
    caputo_rl_relation_residual,
    frac_derivative_rl,
    frac_integral,
    inversion_residuals,
    lemma_beta_integral,
)
from qfrac.qcalc import QLattice, jackson_integral
from qfrac.qcore import (
    _SUM_ABS_TOL,
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
    q_gamma,
    q_number,
    q_power_general,
)

import kernel_reference as reference

QS = (0.3, 0.5, 0.9)
PS = (1.0, 2.0)


def monomial_integral_oracle(x, alpha, lam, params):
    """Closed form of J^alpha applied to w -> w**(p lam) with a = 0:
    [p]_q**(-alpha) Gamma_Q(lam+1)/Gamma_Q(alpha+lam+1) x**(p(alpha+lam))."""
    Q = params.qp
    return (q_number(params.p, params.q) ** (-alpha)
            * q_gamma(lam + 1.0, Q) / q_gamma(alpha + lam + 1.0, Q)
            * x ** (params.p * (alpha + lam)))


def monomial_derivative_oracle(x, alpha, lam, params):
    """Closed form of the fractional derivative of w -> w**(p lam), a = 0:
    [p]_q**alpha Gamma_Q(lam+1)/Gamma_Q(1+lam-alpha) x**(p(lam-alpha))."""
    Q = params.qp
    return (q_number(params.p, params.q) ** alpha
            * q_gamma(lam + 1.0, Q) / q_gamma(1.0 + lam - alpha, Q)
            * x ** (params.p * (lam - alpha)))


class TestFracIntegral:
    def test_zero_function(self):
        ctx = OperatorContext(QParams(0.5, 2.0))
        assert frac_integral(lambda w: 0.0, 1.0, FracOrder(0.5), ctx) == 0.0

    def test_constant_one(self):
        for q in QS:
            for p in PS:
                params = QParams(q, p)
                ctx = OperatorContext(params)
                for alpha in (0.25, 0.5, 0.75):
                    got = frac_integral(lambda w: 1.0, 1.3, FracOrder(alpha),
                                        ctx)
                    want = monomial_integral_oracle(1.3, alpha, 0.0, params)
                    assert got == pytest.approx(want, rel=1e-10)

    def test_monomials(self):
        for q in QS:
            for p in PS:
                params = QParams(q, p)
                ctx = OperatorContext(params)
                for lam in (0.5, 1.0, 2.0):
                    f = lambda w, e=p * lam: w**e
                    got = frac_integral(f, 0.8, FracOrder(0.5), ctx)
                    want = monomial_integral_oracle(0.8, 0.5, lam, params)
                    assert got == pytest.approx(want, rel=1e-10)

    @given(c1=st.floats(-2.0, 2.0), c2=st.floats(-2.0, 2.0),
           q=st.sampled_from(QS), p=st.sampled_from(PS))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, c1, c2, q, p):
        ctx = OperatorContext(QParams(q, p))
        f = lambda w: w * w
        g = lambda w: 1.0 + w
        combo = frac_integral(lambda w: c1 * f(w) + c2 * g(w), 1.0,
                              FracOrder(0.5), ctx)
        split = (c1 * frac_integral(f, 1.0, FracOrder(0.5), ctx)
                 + c2 * frac_integral(g, 1.0, FracOrder(0.5), ctx))
        assert combo == pytest.approx(split, rel=1e-10, abs=1e-12)

    def test_semigroup_on_monomials(self):
        # J^alpha (J^beta f) = J^(alpha+beta) f, inner integral numeric
        for q, p in ((0.5, 1.0), (0.5, 2.0), (0.9, 1.0)):
            params = QParams(q, p)
            ctx = OperatorContext(params)
            alpha, beta, lam = 0.3, 0.4, 1.0
            inner = lambda s: frac_integral(lambda w: w ** (p * lam), s,
                                            beta, ctx)
            got = frac_integral(inner, 1.0, alpha, ctx)
            want = monomial_integral_oracle(1.0, alpha + beta, lam, params)
            assert got == pytest.approx(want, rel=1e-8)

    def test_needs_x_above_a(self):
        ctx = OperatorContext(QParams(0.5), a=0.5)
        with pytest.raises(DomainError,
                           match="evaluation point must exceed the lower"):
            frac_integral(lambda w: 1.0, 0.25, FracOrder(0.5), ctx)


class TestBetaIntegralLemma:
    def test_reduces_to_plain_power(self):
        # alpha = 1, lambda = 0, p = 1 collapses to x - a
        params = QParams(0.5, 1.0)
        got = lemma_beta_integral(0.25, 1.0, 1.0, 0.0, params)
        assert got == pytest.approx(0.75, rel=1e-12)

    def test_vs_jackson_oracle(self):
        for q in QS:
            for p in PS:
                params = QParams(q, p)
                for alpha, lam in ((0.5, 0.5), (1.2, 0.0), (0.3, 1.0)):
                    x = 1.0

                    def integrand(t):
                        return (t ** (p - 1.0)
                                * q_power_general(x, q * t, alpha - 1.0,
                                                  params)
                                * t ** (p * lam))

                    lhs = jackson_integral(integrand, 0.0, x, q)
                    rhs = lemma_beta_integral(0.0, x, alpha, lam, params)
                    assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_vanishes_toward_lower_limit(self):
        params = QParams(0.5, 1.0)
        near = lemma_beta_integral(0.5, 0.5 + 1e-6, 0.5, 0.5, params)
        assert abs(near) < 1e-5

    def test_domain(self):
        params = QParams(0.5)
        with pytest.raises(DomainError):
            lemma_beta_integral(0.0, 1.0, -0.5, 0.0, params)
        with pytest.raises(DomainError):
            lemma_beta_integral(0.0, 1.0, 0.5, -1.5, params)
        with pytest.raises(DomainError):
            lemma_beta_integral(1.0, 0.5, 0.5, 0.0, params)

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
    @pytest.mark.parametrize("p", (1.0, 2.0))
    def test_arrays_of_orders_are_the_scalar_calls(self, q, p):
        params = QParams(q, p)
        cases = [(a, lam) for a in (0.3, 0.7, 1.2) for lam in (0.0, 0.5, 1.0)]
        alphas, lams = np.array(cases).T[:, :, None]
        xs = (0.5, 1.0, 2.0)
        got = lemma_beta_integral(0.0, np.array(xs), alphas, lams, params)
        assert got.shape == (9, 3)
        assert got.tolist() == [
            [lemma_beta_integral(0.0, x, a, lam, params) for x in xs]
            for a, lam in cases]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 18: the kernel sums are sized for terms that decay "
        "like q**i, and the cut tail of w**lam, -1 < lam < 0, is lost "
        "(1.7e-8, 7.5e-4 and 0.164 relative; 9.7606 for 11.6753 at x = 1)"))
    @pytest.mark.parametrize("lam", (-0.5, -0.8, -0.95))
    def test_integral_of_slowly_decaying_power(self, lam):
        """J^(1/2) w**lam is the lemma's closed form times
        [p]_q**(1-alpha) / Gamma_Q(alpha)."""
        q, p, alpha = 0.9, 1.0, 0.5
        params = QParams(q, p)
        lattice = QLattice(1.0, q, 20)
        got = frac_integral(lambda w: w ** lam, lattice, alpha,
                            OperatorContext(params))
        want = (lemma_beta_integral(0.0, np.array(lattice.nodes), alpha, lam,
                                    params)
                * q_number(p, q) ** (1.0 - alpha) / q_gamma(alpha, params.qp))
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_domain_of_arrays(self):
        params, x = QParams(0.5), np.array([0.5, 1.0])
        with pytest.raises(DomainError, match="alpha must be positive, got"):
            lemma_beta_integral(0.0, x, np.array([[0.5], [-0.5]]), 0.0,
                                params)
        with pytest.raises(DomainError, match="lambda must exceed -1, got"):
            lemma_beta_integral(0.0, x, 0.5, np.array([[0.0], [-1.0]]),
                                params)
        # a 2-D x names its first failing point, on one line
        with pytest.raises(DomainError) as raised:
            lemma_beta_integral(0.5, np.array([[1.0], [0.25]]), 0.5, 0.0,
                                params)
        assert str(raised.value) == "need x > a >= 0, got x=0.25, a=0.5"


class TestRLDerivative:
    def test_order_zero_is_identity(self):
        ctx = OperatorContext(QParams(0.5, 2.0))
        assert frac_derivative_rl(lambda w: w**3, 1.2, 0.0, ctx) == 1.2**3
        # an all-zero ndarray of orders keeps its orders axis, one row of
        # the order-0 call's bits per order
        ctx, lattice = OperatorContext(QParams(0.5)), QLattice(1.0, 0.5, 3)
        for op in (frac_derivative_rl, caputo_derivative):
            want = op(lambda w: w**3, lattice, 0.0, ctx)
            got = op(lambda w: w**3, lattice, np.zeros(2), ctx)
            assert got.shape == (2, 3)
            assert got.tolist() == [want.tolist()] * 2
            with pytest.raises(DomainError, match="got 0.0"):
                op(lambda w: w**3, lattice, np.array([0.0, 0.5]), ctx)

    def test_monomials(self):
        for q in QS:
            for p in PS:
                params = QParams(q, p)
                ctx = OperatorContext(params)
                for alpha in (0.25, 0.5, 0.75):
                    for lam in (0.5, 1.0, 2.0):
                        f = lambda w, e=p * lam: w**e
                        got = frac_derivative_rl(f, 0.9, FracOrder(alpha),
                                                 ctx)
                        want = monomial_derivative_oracle(0.9, alpha, lam,
                                                          params)
                        assert got == pytest.approx(want, rel=1e-8)

    def test_stencil_domain(self):
        ctx = OperatorContext(QParams(0.3), a=0.25)
        # qx = 0.18 falls below a even though x does not
        with pytest.raises(DomainError,
                           match=r"stencil leaves the domain at x=0\.6"):
            frac_derivative_rl(lambda w: w, 0.6, FracOrder(0.5), ctx)


@pytest.mark.parametrize("q", (0.5, 0.9, 0.99, 0.999))
def test_reference_q_gamma_matches_30_digits(q):
    """The reference q-Gamma, a math.fsum of its factors' logs, holds 1e-14
    relative against 30-digit values up to q = 0.999, where plain products
    of its factors underflow."""
    pytest.importorskip("mpmath")
    for t in (0.25, 0.5, 1.5, 2.7, 4.0):
        want = reference.mp_q_gamma(t, q)
        assert abs(reference.q_gamma(t, q) - want) <= 1e-14 * want, t


class TestDerivativeNearQOne:
    """D^alpha at q = 0.999, p = 1 against closed forms, where the digits
    of a q-difference run out: D w**lam = Gamma_q(lam + 1) / Gamma_q(lam +
    1 - alpha) x**(lam - alpha) at a = 0, and D 1 = (x - a)^(-alpha) /
    Gamma_q(1 - alpha) at a = 0.25, its q-power x**-alpha (a/x; q)_inf /
    (q**-alpha a/x; q)_inf. The oracle sums the factors' logs (log1p, or
    expm1 near 1) with math.fsum; mpmath checks it once."""

    Q, CTRL = 0.999, SeriesControl(max_terms=40000)

    def test_oracle_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        q, a = self.Q, 0.25
        with mpmath.workdps(30):
            mq = mpmath.mpf(q)
            ratio = (mpmath.exp(reference.mp_log_poch(mq**2.75, mq)
                                - reference.mp_log_poch(mq**3, mq))
                     * (1 - mq) ** mpmath.mpf(-0.25))
            power = (reference.mp_log_poch(mpmath.mpf(a), mq)
                     - reference.mp_log_poch(a * mq**-0.5, mq))
        assert reference.gamma_ratio(3.0, 2.75, q) == pytest.approx(
            float(ratio), rel=1e-14)
        logs = (reference.log_poch_terms(0.0, q, c=a)
                + [-v for v in reference.log_poch_terms(-0.5, q, c=a)])
        assert math.fsum(logs) == pytest.approx(float(power), abs=1e-15)

    @pytest.mark.parametrize("alpha,lams,bound", [
        (0.5, (0.0, 1.0), 3e-13), (0.25, (2.0,), 5e-14)])
    def test_powers_at_a_0(self, alpha, lams, bound):
        q = self.Q
        ctx = OperatorContext(QParams(q), ctrl=self.CTRL)
        lattice = QLattice(1.0, q, 30)
        got = frac_derivative_rl(lambda w: sum(w**lam for lam in lams),
                                 lattice, FracOrder(alpha), ctx)
        x = np.array(lattice.nodes)
        want = sum(reference.gamma_ratio(lam + 1.0, lam + 1.0 - alpha, q)
                   * x ** (lam - alpha) for lam in lams)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_constant_at_a_025(self):
        q, a, alpha = self.Q, 0.25, 0.5
        ctx = OperatorContext(QParams(q), a=a, ctrl=self.CTRL)
        lattice = QLattice(1.0, q, 40, floor_a=a / q)
        assert len(lattice.nodes) == 40
        got = frac_derivative_rl(lambda w: 1.0, lattice, FracOrder(alpha),
                                 ctx)
        # node k is q**k, so a/x = a q**-k: (a/x; q)_inf is (a; q)_inf
        # times the factors m = -k..-1
        lead = len(got) - 1
        num = reference.log_poch_terms(0.0, q, lead, a)
        den = [-v for v in reference.log_poch_terms(-alpha, q, lead, a)]
        tail = math.fsum(num[lead:] + den[lead:])
        want = np.array([
            x**-alpha * math.exp(math.fsum([tail] + num[lead - k:lead]
                                           + den[lead - k:lead]))
            for k, x in enumerate(lattice.nodes)])
        want /= reference.gamma_ratio(1.0 - alpha, 1.0, q)
        assert np.max(np.abs(got / want - 1.0)) <= 2e-13


class TestCaputoDerivative:
    def test_constant_annihilated(self):
        for q in QS:
            for p in PS:
                ctx = OperatorContext(QParams(q, p))
                got = caputo_derivative(lambda w: 7.0, 1.0, FracOrder(0.5),
                                        ctx)
                assert abs(got) < 1e-10

    def test_monomials_match_rl_at_zero_base(self):
        # with a = 0 and f(0) = 0 the two derivative types coincide
        params = QParams(0.5, 2.0)
        ctx = OperatorContext(params)
        for alpha in (0.25, 0.75):
            f = lambda w: w**2
            got = caputo_derivative(f, 1.0, FracOrder(alpha), ctx)
            want = monomial_derivative_oracle(1.0, alpha, 1.0, params)
            assert got == pytest.approx(want, rel=1e-8)

    def test_simplified_constant(self):
        ctx = OperatorContext(QParams(0.5))
        got = caputo_derivative_simplified(lambda w: 3.0, lambda w: 0.0,
                                           1.0, FracOrder(0.5), ctx)
        assert got == 0.0

    def test_simplified_linear_closed_form(self):
        # cD^alpha of w at x is x**(1-alpha) / Gamma_q(2 - alpha) for p = 1
        for q in QS:
            ctx = OperatorContext(QParams(q, 1.0))
            for alpha in (0.25, 0.5, 0.75):
                for x in (0.5, 1.0):
                    got = caputo_derivative_simplified(
                        lambda w: w, lambda w: 1.0, x, FracOrder(alpha), ctx)
                    want = x ** (1.0 - alpha) / q_gamma(2.0 - alpha, q)
                    assert got == pytest.approx(want, rel=1e-10)

    def test_equivalence_of_forms(self):
        for q in (0.5, 0.9):
            for p in PS:
                ctx = OperatorContext(QParams(q, p))
                f = lambda w: w**3
                dqf = lambda w: q_number(3, q) * w * w
                for x in QLattice(1.0, q, 6).nodes:
                    d1 = caputo_derivative(f, x, FracOrder(0.5), ctx)
                    d2 = caputo_derivative_simplified(f, dqf, x,
                                                      FracOrder(0.5), ctx)
                    assert d1 == pytest.approx(d2, abs=1e-9)

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.9, 0.99))
    @pytest.mark.parametrize("p", (0.5, 1.0, 2.0, 5.0, 15.0))
    @pytest.mark.parametrize("a", (0.0, 0.25))
    def test_simplified_is_the_integral_at_tilt_one_minus_p(self, q, p, a):
        """cD^alpha w**e through D_q w**e = [e]_q w**(e-1) is J^(1-alpha) of
        w**(1-p) D_q w**e = [e]_q w**(e-p): the tilt 1 - p sits in f's
        table here, not in the kernel's head."""
        # q = 0.99, p = 0.5 needs more terms than the default budget
        ctx = OperatorContext(QParams(q, p), a, SeriesControl(40000))
        lattice = QLattice(1.0, q, 12, floor_a=a)
        alphas = np.array([0.25, 0.5, 0.75])
        for e in (1.0, 2.0, 3.0):
            c = q_number(e, q)
            got = caputo_derivative_simplified(
                lambda w: w ** e, tabled(lambda w: c * w ** (e - 1.0)),
                lattice, alphas, ctx)
            want = frac_integral(tabled(lambda w: c * w ** (e - p)), lattice,
                                 1.0 - alphas, ctx)
            assert got.shape == (3, len(lattice.nodes))
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_rl_relation_residual(self):
        ctx = OperatorContext(QParams(0.5), a=0.25)
        for f in (lambda w: 2.0, lambda w: w, lambda w: w * w + 1.0):
            res = caputo_rl_relation_residual(f, 1.0, FracOrder(0.5), ctx)
            assert abs(res) < 1e-9

    @pytest.mark.parametrize("q,p", [(0.5, 1.0), (0.9, 2.0)])
    def test_rl_relation_residual_is_its_two_derivatives(self, q, p):
        """The residual's one family pass over [f, f - f(a)] gives the bits
        of D f - cD f - shift from two separate derivative calls."""
        params = QParams(q, p)
        ctx = OperatorContext(params, a=0.25)
        compiled = exprparse.compile(exprparse.parse("1 + x*x - x^3", {"x"}),
                                     ("x",), {})
        family = tabled(lambda w: np.stack([m(w) for m in MEMBERS[:2]]))
        for f in (lambda w: w * w + 1.0, compiled, family):
            for alpha, x in ((0.25, 0.9), (0.5, 1.0), (0.75, 1.0)):
                shift = (f(0.25) * (q_number(p, q) ** alpha
                                    / q_gamma(1.0 - alpha, params.qp))
                         * q_power_general(x, 0.25, -alpha, params))
                want = (frac_derivative_rl(f, x, alpha, ctx)
                        - caputo_derivative(f, x, alpha, ctx) - shift)
                got = caputo_rl_relation_residual(f, x, alpha, ctx)
                assert type(got) is type(want)
                assert np.array(got).tolist() == np.array(want).tolist()

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_rl_relation_residual_on_a_lattice(self, q):
        """A lattice gives the residual at each node, the bits of D f -
        cD f - shift each from its own call, for a function and a family
        and for a float and an ndarray of orders."""
        params = QParams(q, 2.0)
        ctx = OperatorContext(params, a=0.25)
        # nodes whose q-difference stencil stays above a
        depth = sum(1 for x in QLattice(2.0, q, 12, floor_a=0.25).nodes
                    if q * x > 0.25)
        lattice = QLattice(2.0, q, depth, floor_a=0.25)
        family = tabled(lambda w: np.stack([m(w) for m in MEMBERS[:2]]))
        for f in (lambda w: w * w + 1.0, family):
            for order in (0.5, np.array([0.25, 0.75])):
                want = []
                for alpha in np.ravel(order).tolist():
                    shift = np.stack([
                        f(0.25) * (q_number(2.0, q) ** alpha
                                   / q_gamma(1.0 - alpha, params.qp))
                        * q_power_general(x, 0.25, -alpha, params)
                        for x in lattice.nodes], axis=-1)
                    want.append(frac_derivative_rl(f, lattice, alpha, ctx)
                                - caputo_derivative(f, lattice, alpha, ctx)
                                - shift)
                want = np.stack(want) if np.ndim(order) else want[0]
                got = caputo_rl_relation_residual(f, lattice, order, ctx)
                assert got.shape == want.shape
                assert got.shape[-1] == depth > 1
                assert got.tobytes() == want.tobytes()


LATTICE = QLattice(1.0, 0.5, 4)
CTX = OperatorContext(QParams(0.5))


class TestChecks:
    """The argument checks of the order and context types and of each
    operator, and the kernel's pole."""

    @pytest.mark.parametrize("make,message", [
        (lambda: FracOrder(1.5), "alpha must lie in (0, 1), got 1.5"),
        (lambda: OperatorContext(QParams(0.5), a=-1.0),
         "lower limit a must be nonnegative, got -1.0"),
        (lambda: OperatorContext(QParams(0.5), a=math.nan),
         "lower limit a must be nonnegative, got nan"),
        (lambda: frac_integral(lambda w: w, LATTICE, -0.5, CTX),
         "integral order must be positive, got -0.5"),
        (lambda: frac_derivative_rl(lambda w: w, LATTICE, 1.0, CTX),
         "derivative order must lie in [0, 1), got 1.0"),
        (lambda: caputo_derivative_simplified(
            lambda w: w, lambda w: 1.0, LATTICE, 0.0, CTX),
         "derivative order must lie in (0, 1), got 0.0"),
        (lambda: bound_constant(FracOrder(0.5), CTX, 0.0),
         "need b > a, got b=0.0, a=0.0"),
        # an ndarray of orders: one line naming the first failing order
        (lambda: lemma_beta_integral(0.0, np.array([0.5, 1.0]), np.array(
            [[0.5], [-0.5]]), 0.0, QParams(0.5)),
         "alpha must be positive, got -0.5"),
        (lambda: lemma_beta_integral(0.0, 1.0, 0.5, np.array([[0.0], [-1.0]]),
                                     QParams(0.5)),
         "lambda must exceed -1, got -1.0"),
        (lambda: frac_integral(lambda w: w, LATTICE, np.array([0.5, -0.25]),
                               CTX),
         "integral order must be positive, got -0.25"),
        (lambda: frac_derivative_rl(lambda w: w, LATTICE,
                                    np.array([0.5, 1.0]), CTX),
         "derivative order must lie in [0, 1), got 1.0"),
        (lambda: frac_derivative_rl(lambda w: w, LATTICE,
                                    np.array([0.0, 0.5]), CTX),
         "derivative order must lie in (0, 1), got 0.0"),
        (lambda: caputo_derivative_simplified(
            lambda w: w, lambda w: 1.0, LATTICE, np.array([[0.5], [1.0]]),
            CTX),
         "derivative order must lie in (0, 1), got 1.0"),
    ])
    def test_domain_error(self, make, message):
        with pytest.raises(DomainError) as err:
            make()
        assert str(err.value) == message

    def test_kernel_pole_at_beta_minus_one(self):
        with pytest.raises(PoleError, match=re.escape(
                "kernel denominator product vanishes (beta=-1.0)")):
            LatticeKernel(QParams(0.5), -1.0, 0.0, DEFAULT_INTEGRATION_CTRL,
                          np.array([1.0, 0.5]))


class TestBoundConstant:
    def test_zero_base_closed_form(self):
        # p=1, a=0, b=1: the lattice max is at x = 1 and the bound collapses
        # to 1 / Gamma_q(alpha + 1)
        for q in QS:
            ctx = OperatorContext(QParams(q, 1.0))
            for alpha in (0.25, 0.5, 0.75):
                got = bound_constant(FracOrder(alpha), ctx, 1.0)
                want = 1.0 / q_gamma(alpha + 1.0, q)
                assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("b", [1e-3, 2.5, 8.7, 1e3])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 20.0])
    def test_zero_lower_limit_keeps_the_q_power_bits(self, p, alpha, b):
        # at a = 0 the q-power is q_power_general's b**(p alpha), numpy's
        # power by an array; numpy's power by a float 0.5 is sqrt, an ulp
        # off its pow at 8.7
        params = QParams(0.5, p)
        coef = q_number(p, 0.5) ** (1.0 - alpha) / (
            q_number(p * alpha, 0.5) * q_gamma(alpha, params.qp))
        want = coef * abs(q_power_general(b, 0.0, alpha, params))
        got = bound_constant(FracOrder(alpha), OperatorContext(params), b)
        assert got == want

    @pytest.mark.parametrize("a", [0.0, 0.25])
    def test_array_of_orders_is_the_per_order_calls(self, a):
        # one bound per order, each the bits of its own call; at a = 0 each
        # is also coef * b**(p alpha) by numpy's array power, the bits an
        # a = 0 special case once gave (among them p alpha = 0.5, where
        # numpy's power by a float 0.5 is sqrt and rounds apart)
        alphas = [0.1, 0.25, 0.5, 0.75, 0.9]
        for q in (0.3, 0.5, 0.9, 0.99):
            for p in (0.5, 1.0, 2.0, 5.0):
                params = QParams(q, p)
                ctx = OperatorContext(params, a, SeriesControl(40_000))
                coefs = [q_number(p, q) ** (1.0 - alpha) / (
                    q_number(p * alpha, q)
                    * q_gamma(alpha, params.qp, ctx.ctrl)) for alpha in alphas]
                for b in (a + np.geomspace(1e-2, 1e2, 60)).tolist():
                    got = bound_constant(np.array(alphas), ctx, b)
                    each = [bound_constant(alpha, ctx, b) for alpha in alphas]
                    assert got.tobytes() == np.array(each).tobytes()
                    if a == 0.0:
                        assert each == [coef * float(
                            (np.array([b]) ** np.array([p * alpha]))[0])
                            for coef, alpha in zip(coefs, alphas)]

    def test_monotone_in_b(self):
        ctx = OperatorContext(QParams(0.5, 2.0))
        b1 = bound_constant(FracOrder(0.5), ctx, 1.0)
        b2 = bound_constant(FracOrder(0.5), ctx, 2.0)
        assert 0.0 < b1 < b2

    def test_actual_boundedness(self):
        import numpy as np
        rng = np.random.default_rng(7)
        from qfrac.qcalc import sup_norm
        for q, p in ((0.5, 1.0), (0.9, 2.0)):
            ctx = OperatorContext(QParams(q, p))
            bound = bound_constant(FracOrder(0.5), ctx, 1.0)
            norm_lattice = QLattice(1.0, q, 200)
            lattice = QLattice(1.0, q, 12)
            for _ in range(5):
                coeffs = rng.uniform(-1.0, 1.0, size=5)
                f = lambda w, c=coeffs: float(np.polyval(c, w))
                jf = lambda x, g=f: frac_integral(g, x, FracOrder(0.5), ctx)
                assert sup_norm(jf, lattice) <= bound * sup_norm(
                    f, norm_lattice) + 1e-12


class TestInversion:
    def test_zero_function(self):
        ctx = OperatorContext(QParams(0.5))
        r1, r2 = inversion_residuals(lambda w: 0.0, QLattice(1.0, 0.5, 6),
                                     FracOrder(0.5), ctx)
        assert r1 == 0.0 and r2 == 0.0

    def test_smooth_function(self):
        for q in QS:
            ctx = OperatorContext(QParams(q, 1.0))
            r1, r2 = inversion_residuals(lambda w: w * w,
                                         QLattice(1.0, q, 8),
                                         FracOrder(0.5), ctx)
            assert r1 < 1e-7 and r2 < 1e-7

    def test_no_node_with_qx_above_a(self):
        ctx = OperatorContext(QParams(0.5), a=0.6)
        assert inversion_residuals(lambda w: w, QLattice(1.0, 0.5, 3),
                                   FracOrder(0.5), ctx) == (0.0, 0.0)
        # a family with an ndarray of orders: zeros of the result's shape
        family = tabled(lambda w: np.stack([m(w) for m in MEMBERS[:2]]))
        for residual in inversion_residuals(family, QLattice(1.0, 0.5, 3),
                                            np.array([0.25, 0.75]), ctx):
            assert residual.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_constant_right_residual(self):
        # cD kills constants, so J(cD f) recovers f - f(a) = 0 exactly
        ctx = OperatorContext(QParams(0.5, 2.0))
        _, r2 = inversion_residuals(lambda w: 4.0, QLattice(1.0, 0.5, 6),
                                    FracOrder(0.5), ctx)
        assert r2 < 1e-9


class TestLatticePath:
    """One lattice-kernel pass over a QLattice against the plain-Python
    reference sums at each of its nodes."""

    @given(q=st.floats(0.3, 0.97), p=st.sampled_from(PS),
           alpha=st.floats(0.1, 0.9), a=st.sampled_from((0.0, 0.25)),
           c=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_at_every_node(self, q, p, alpha, a, c):
        ctx = OperatorContext(QParams(q, p), a=a)
        f = lambda w: c[0] + c[1] * w + c[2] * w * w + c[3] * math.exp(-w)
        dqf = lambda w: (f(w) - f(q * w)) / ((1.0 - q) * w)
        # nodes whose q-difference stencil stays above a
        depth = sum(1 for x in QLattice(1.0, q, 6, floor_a=a).nodes
                    if q * x > a)
        lattice = QLattice(1.0, q, depth, floor_a=a)
        order = FracOrder(alpha)
        for got, ref, scale in (
                (frac_integral(f, lattice, order, ctx),
                 lambda x: reference.integral(f, x, alpha, ctx), 1.0),
                (frac_derivative_rl(f, lattice, order, ctx),
                 lambda x: reference.derivative_rl(f, x, alpha, ctx),
                 1.0 / (1.0 - q)),
                (caputo_derivative(f, lattice, order, ctx),
                 lambda x: reference.caputo(f, x, alpha, ctx),
                 1.0 / (1.0 - q)),
                (caputo_derivative_simplified(f, dqf, lattice, order, ctx),
                 lambda x: reference.caputo_simplified(dqf, x, alpha, ctx),
                 1.0 / (1.0 - q))):
            assert len(got) == depth
            for x, v in zip(lattice.nodes, got):
                want = ref(x)
                assert abs(v - want) <= 1e-13 * max(1.0, abs(want)) * scale

    def test_derivative_rows_at_q_0930_within_the_drawn_bound(self):
        # a drawn case of test_matches_scalar_at_every_node: D's q-difference
        # cancels 5 digits at x = 0.6948, so the reference must form its
        # kernel argument at base = s as q**p itself
        q, alpha = 0.9297532035181111, 0.875
        ctx = OperatorContext(QParams(q, 1.0))
        f = lambda w: 2.0 + math.exp(-w)
        lattice = QLattice(1.0, q, 6)
        got = frac_derivative_rl(f, lattice, FracOrder(alpha), ctx)
        for x, v in zip(lattice.nodes, got):
            want = reference.derivative_rl(f, x, alpha, ctx)
            assert abs(v - want) <= 1e-13 * max(1.0, abs(want)) / (1.0 - q)

    def test_kernels_of_equal_arguments_are_equal(self):
        """Two kernels of the same arguments hold the same gamma and
        weight tables: a build reads nothing but its arguments."""
        ctx = OperatorContext(QParams(0.9, 2.0), a=0.25)
        nodes = QLattice(1.0, 0.9, 12).nodes
        k1, k2 = (LatticeKernel(ctx.params, -0.4, ctx.a, ctx.ctrl, nodes)
                  for _ in range(2))
        assert k1.gamma == k2.gamma
        for table in ("upper", "lower"):
            assert (getattr(k1, table).tolist()
                    == getattr(k2, table).tolist())

    def test_stencil_leaving_the_domain(self):
        ctx = OperatorContext(QParams(0.5), a=0.25)
        lattice = QLattice(1.0, 0.5, 4, floor_a=0.25)  # nodes 1, 0.5
        assert len(frac_integral(lambda w: w, lattice, 0.5, ctx)) == 2
        with pytest.raises(DomainError, match="stencil leaves the domain"):
            frac_derivative_rl(lambda w: w, lattice, 0.5, ctx)

    def test_lattice_ratio_must_be_q(self):
        ctx = OperatorContext(QParams(0.5))
        with pytest.raises(DomainError, match="lattice ratio"):
            frac_integral(lambda w: w, QLattice(1.0, 0.6, 4), 0.5, ctx)


def tabled(table):
    """A function given by its table; a call is the table at one node."""
    f = lambda w: table(np.array([w], dtype=float))[..., 0]
    f.table = table
    return f


MEMBERS = (lambda w: 1.0 + 0.5 * w, lambda w: (w - 0.3) * w,
           lambda w: ((0.2 * w - 1.0) * w + 0.7) * w - 2.0,
           lambda w: 1.0 / (1.0 + w))


class TestFamilies:
    """A family of k functions, one callable whose table is a (k, N)
    stack, shares one kernel pass: each of its rows is the single call."""

    # q <= 0.013: kernels of at most 11 terms
    @pytest.mark.parametrize("q,depth", [(0.5, 10), (0.9, 12), (0.99, 4),
                                         (0.99, 130), (0.005, 4), (0.01, 4),
                                         (0.013, 4)])
    @pytest.mark.parametrize("a", (0.0, 0.25))
    @pytest.mark.parametrize("p", PS)
    def test_rows_equal_single_calls(self, q, depth, a, p):
        ctx = OperatorContext(QParams(q, p), a=a)
        # floor a/q: every node's q-difference stencil stays above a (at
        # a small q, b lies above the floor)
        lattice = QLattice(max(1.0, 2.0 * a / q), q, depth, floor_a=a / q)
        rows = len(lattice.nodes)
        singles = [tabled(m) for m in MEMBERS]
        d_singles = [tabled(lambda w, m=m: m(w) * w - 1.0) for m in MEMBERS]
        family = tabled(lambda w: np.stack([m(w) for m in MEMBERS]))
        d_family = tabled(lambda w: np.stack([d.table(w) for d in d_singles]))
        order = FracOrder(0.4)
        for call in (lambda f, df, x: frac_integral(f, x, order, ctx),
                     lambda f, df, x: frac_derivative_rl(f, x, order, ctx),
                     lambda f, df, x: caputo_derivative(f, x, order, ctx),
                     lambda f, df, x: caputo_derivative_simplified(
                         f, df, x, order, ctx)):
            got = call(family, d_family, lattice)
            assert got.shape == (len(MEMBERS), rows)
            at_point = call(family, d_family, lattice.nodes[-1])
            assert at_point.shape == (len(MEMBERS),)
            for row, value, f, df in zip(got, at_point, singles, d_singles):
                assert row.tolist() == call(f, df, lattice).tolist()
                assert value == call(f, df, lattice.nodes[-1])

    def test_family_without_table(self):
        ctx = OperatorContext(QParams(0.5), a=0.25)
        lattice = QLattice(1.0, 0.5, 8, floor_a=0.5)
        family = tabled(lambda w: np.stack([m(w) for m in MEMBERS]))
        by_node = lambda w: np.array([m(w) for m in MEMBERS])
        for op in (frac_integral, caputo_derivative):
            assert (op(by_node, lattice, 0.4, ctx).tolist()
                    == op(family, lattice, 0.4, ctx).tolist())
        assert (np.array(inversion_residuals(by_node, lattice, 0.4, ctx))
                .tolist() == np.array(inversion_residuals(
                    family, lattice, 0.4, ctx)).tolist())

    def test_inversion_residuals_per_member(self):
        ctx = OperatorContext(QParams(0.5, 2.0))
        lattice = QLattice(1.0, 0.5, 10)
        family = tabled(lambda w: np.stack([m(w) for m in MEMBERS]))
        left, right = inversion_residuals(family, lattice, 0.6, ctx)
        for k, m in enumerate(MEMBERS):
            assert (left[k], right[k]) == inversion_residuals(
                tabled(m), lattice, 0.6, ctx)

    def test_errors_name_the_same_node(self):
        ctx = OperatorContext(QParams(0.5), a=0.25)
        lattice = QLattice(1.0, 0.5, 4)  # nodes 1, 0.5, 0.25, 0.125
        single = tabled(MEMBERS[0])
        family = tabled(lambda w: np.stack([m(w) for m in MEMBERS]))
        for op, text in (
                (frac_integral, "s=0.25, a=0.25"),
                (lambda f, x, o, c: caputo_derivative_simplified(
                    f, f, x, o, c), "s=0.25, a=0.25"),
                (frac_derivative_rl, "at x=0.5: qx=0.25"),
                (caputo_derivative, "at x=0.5: qx=0.25")):
            messages = []
            for f in (single, family):
                with pytest.raises(DomainError) as err:
                    op(f, lattice, 0.5, ctx)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
            assert text in messages[0]


DEEP_LATTICES = [(0.9, 659), (0.99, 1000), (0.99, 3000)]
# down to the last node above 2**-1075: at p >= 5 the integrand weight
# w**(p-1) alone leaves float range there, while many values do not
RANGE_LATTICES = [(0.5, 1075), (0.9, 7073)]


class TestChangeOfVariable:
    """With Q = q**p, y = x**p and g(y) = f(y**(1/p)), the operators at
    (q, p) are [p]_q**(-alpha) (J) or [p]_q**alpha (D and Caputo) times
    the p = 1 operators at base Q applied to g at y, with lower limit a**p
    (Annaby and Mansour, q-Fractional Calculus and Equations, LNM 2056,
    2012). The p = 1 path shares no head power, (q**e)**i table or [p]_q
    factor with the p != 1 one."""

    @staticmethod
    def f(x):
        return math.exp(x) + x**3 + 1.0

    @pytest.mark.parametrize("op,sign", [
        (frac_integral, -1.0), (frac_derivative_rl, 1.0),
        (caputo_derivative, 1.0)], ids=["J", "D", "caputo"])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("a", [0.0, 0.25])
    @pytest.mark.parametrize("p", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_p_is_base_q_to_the_p(self, q, p, a, alpha, op, sign):
        f = self.f
        ctrl = SeriesControl(max_terms=40000)  # q = 0.99, p = 0.5: 6,877
        ctx = OperatorContext(QParams(q, p), a=a, ctrl=ctrl)
        base = OperatorContext(QParams(q**p), a=a**p, ctrl=ctrl)
        scale = q_number(p, q) ** (sign * alpha)
        for x in (0.7, 1.0):
            got = op(f, x, FracOrder(alpha), ctx)
            want = scale * op(lambda y: f(y ** (1.0 / p)), x**p,
                              FracOrder(alpha), base)
            assert abs(got / want - 1.0) <= 1e-13


class TestDeepRows:
    """Every row of a deep lattice against a closed form, relative to the
    row's own value: the head t**(1 + p beta) of a small node must not
    magnify the error of the larger sums."""

    @pytest.mark.parametrize("q,depth", DEEP_LATTICES)
    @pytest.mark.parametrize("p", (0.5, 1.0, 2.0, 5.0))
    @pytest.mark.parametrize("lam", (0.0, 1.0))
    @pytest.mark.parametrize("alpha", (0.25, 0.75))
    def test_integral_of_a_power_is_the_lemma(self, q, depth, p, lam,
                                              alpha):
        # 6894 terms at q**p = 0.995
        ctx = OperatorContext(QParams(q, p), ctrl=SeriesControl(
            max_terms=8000))
        lattice = QLattice(1.0, q, depth)
        got = frac_integral(tabled(lambda w: w ** (p * lam)), lattice,
                            alpha, ctx)
        want = (lemma_beta_integral(0.0, np.array(lattice.nodes), alpha, lam,
                                    ctx.params, ctx.ctrl)
                * q_number(p, q) ** (1.0 - alpha)
                / q_gamma(alpha, ctx.params.qp, ctx.ctrl))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("q,depth", RANGE_LATTICES)
    @pytest.mark.parametrize("p", (5.0, 20.0))
    @pytest.mark.parametrize("lam", (0.0, 1.0))
    @pytest.mark.parametrize("alpha", (0.25, 0.75))
    def test_every_normal_row_at_large_p_is_the_lemma(self, q, depth, p,
                                                      lam, alpha):
        ctx = OperatorContext(QParams(q, p))
        lattice = QLattice(1.0, q, depth)
        got = frac_integral(tabled(lambda w: w ** (p * lam)), lattice,
                            alpha, ctx)
        want = (lemma_beta_integral(0.0, np.array(lattice.nodes), alpha, lam,
                                    ctx.params, ctx.ctrl)
                * q_number(p, q) ** (1.0 - alpha)
                / q_gamma(alpha, ctx.params.qp, ctx.ctrl))
        normal = want >= np.finfo(float).tiny
        assert normal.sum() >= 30
        assert np.all(got[normal] != 0.0)
        assert np.all(np.abs(got - want)[normal] <= 1e-13 * want[normal])

    # at p = 0.01 the sum runs to q**i = 2.7e-312 at q = 0.5, where
    # (q**i)**(p-1) alone would leave float range
    @pytest.mark.parametrize("q,p,alpha,depth", [(0.5, 0.01, 0.5, 4),
                                                 (0.9, 0.02, 0.25, 30)])
    def test_integral_of_one_at_small_p_is_the_closed_form(self, q, p,
                                                           alpha, depth):
        ctx = OperatorContext(QParams(q, p), ctrl=SeriesControl(
            max_terms=40000))
        lattice = QLattice(1.0, q, depth)
        got = frac_integral(tabled(np.ones_like), lattice, alpha, ctx)
        want = (q_number(p, q) ** -alpha
                / q_gamma(alpha + 1.0, ctx.params.qp, ctx.ctrl)
                * np.array(lattice.nodes) ** (p * alpha))
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("q,depth", DEEP_LATTICES)
    @pytest.mark.parametrize("p", (1.0, 2.0, 5.0))
    @pytest.mark.parametrize("alpha", (0.25, 0.75))
    def test_caputo_is_the_simplified_form(self, q, depth, p, alpha):
        ctx = OperatorContext(QParams(q, p))
        lattice = QLattice(1.0, q, depth)
        for f, dqf in ((lambda w: w, lambda w: np.ones_like(w)),
                       (lambda w: w * w, lambda w: (1.0 + q) * w)):
            got = caputo_derivative(tabled(f), lattice, alpha, ctx)
            want = caputo_derivative_simplified(tabled(f), tabled(dqf),
                                                lattice, alpha, ctx)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def mixed_sign_table(size, seed):
    """A smooth integrand of mixed sign plus noise, at size nodes."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 6.0, size)
    return np.sin(3.0 * x) - 0.4 + 0.1 * rng.standard_normal(size)


# D's deep rows at p > 1: its heads carry the outer x**(1-p), which alone
# leaves float range at 5.6e-17 (q = 0.5, p = 20) and 7.9e-78 (q = 0.9,
# p = 5, alpha = 1/4) while the values stay finite
D_RANGE_CASES = [(0.5, 20.0, 0.25, 60), (0.5, 20.0, 0.5, 60),
                 (0.9, 5.0, 0.25, 3000)]


class TestDeepDerivativeRows:
    """D and the Caputo derivative on lattices whose rows reach far past
    the point where x**(1-p) leaves float range."""

    @pytest.mark.parametrize("q,p,alpha,depth", D_RANGE_CASES)
    def test_derivative_of_one_is_the_closed_form(self, q, p, alpha, depth):
        """D^alpha 1 = [p]_q**alpha / Gamma_Q(1-alpha) x**(-p alpha) on
        every row whose value is a normal float."""
        params = QParams(q, p)
        lattice = QLattice(1.0, q, depth)
        got = frac_derivative_rl(tabled(np.ones_like), lattice, alpha,
                                 OperatorContext(params))
        with np.errstate(over="ignore"):
            want = (q_number(p, q) ** alpha / q_gamma(1.0 - alpha, params.qp)
                    * np.array(lattice.nodes) ** (-p * alpha))
        normal = want <= np.finfo(float).max
        assert normal.sum() >= 55 and np.all(got[normal] != 0.0)
        assert np.all(np.abs(got - want)[normal] <= 2e-15 * want[normal])

    # depth 2000 at q = 0.9, p = 5: deeper, f = w**3 itself falls below
    # float range (below w ~ 6e-103) before the value x**1.75 does. At
    # p = 1, where p alpha < 1, the inner sums carry the value's own power
    # and every row keeps its digits.
    @pytest.mark.parametrize("q,p,alpha,depth", D_RANGE_CASES[:2] + [
        (0.9, 5.0, 0.25, 2000), (0.9, 1.0, 0.5, 2200),
        (0.9, 1.0, 0.25, 2200), (0.5, 1.0, 0.25, 330),
        pytest.param(*D_RANGE_CASES[2], marks=pytest.mark.xfail(
            strict=True, reason="w**3 itself is subnormal below node 6e-103, "
            "so the inner sums that read it underflow and 642 rows read 0 "
            "(ROADMAP item 21)"))])
    def test_caputo_is_the_simplified_form(self, q, p, alpha, depth):
        ctx = OperatorContext(QParams(q, p))
        lattice = QLattice(1.0, q, depth)
        for e in (1.0, 2.0, 3.0):
            got = caputo_derivative(tabled(lambda w: w ** e), lattice, alpha,
                                    ctx)
            want = caputo_derivative_simplified(
                tabled(lambda w: w ** e),
                tabled(lambda w: q_number(e, q) * w ** (e - 1.0)), lattice,
                alpha, ctx)
            assert np.all(np.isfinite(want))
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("q,p", [(0.9, 2.0), (0.9, 5.0), (0.99, 3.0)])
    def test_derivative_of_one_above_a_is_the_q_power(self, q, p):
        """At a > 0, D^alpha 1 = [p]_q**alpha / Gamma_Q(1-alpha)
        (x**p - a**p)^(-alpha), on every node whose stencil stays above a."""
        ctx = OperatorContext(QParams(q, p), a=0.25)
        lattice = QLattice(1.0, q, 200, floor_a=0.25 / q)
        got = frac_derivative_rl(tabled(np.ones_like), lattice, 0.5, ctx)
        want = (q_number(p, q) ** 0.5 / q_gamma(0.5, ctx.params.qp)
                * q_power_general(np.array(lattice.nodes), 0.25, -0.5,
                                  ctx.params))
        assert np.all(np.abs(got - want) <= 1e-13 * want)


class TestKernelConvolutions:
    """The Toeplitz lower-limit sums against the dense matrix of one weight
    row per node."""

    @pytest.mark.parametrize("q", (0.5, 0.9, 0.99))
    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("beta", (-0.5, -0.15, -1.5, -1.15))
    def test_toeplitz_lower_matches_dense(self, q, p, beta):
        a, ctrl = 0.25, DEFAULT_INTEGRATION_CTRL
        params = QParams(q, p)
        nodes = QLattice(1.0, q, 200, floor_a=a).nodes  # 138 at q = 0.99
        # each weight v(w) = w**(p-1+tilt) at the lower nodes w = a q**i
        # of row t: J's (tilt 0) and the simplified Caputo form's (1 - p)
        for tilt, v in ((0.0, lambda w, t: w ** (p - 1.0)),
                        (1.0 - p, lambda w, t: np.ones_like(w))):
            kernel = LatticeKernel(params, beta, a, ctrl, nodes, tilt)
            n = kernel.n
            w = a * np.power(q, np.arange(n))
            dense = np.array([
                (1.0 - q) * w * v(w, t) * t ** (p * beta)
                * reference.kernel_weights(params.qp, beta, (a * q / t) ** p,
                                           n, _SUM_ABS_TOL)
                for t in nodes])
            g_low = mixed_sign_table(n, seed=len(nodes))
            want = dense @ g_low
            got = -kernel.apply(np.zeros(len(nodes) + n - 1), g_low)
            assert len(got) == len(nodes)
            assert np.all(np.abs(got - want)
                          <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("q,p,a,first", [
        (0.5, 50.0, 0.0, 2.0**-43), (0.99, 1070.0, 0.25, 0.99**133)])
    def test_head_past_float_range_names_p_and_the_node(self, q, p, a,
                                                        first):
        """Without the integrand weight, as the simplified Caputo form
        builds it (tilt 1 - p), (1 - q) t**(1 + p beta) overflows at the
        small nodes of a large p: one ConvergenceError, and no
        RuntimeWarning (an error here)."""
        nodes = QLattice(1.0, q, 200, floor_a=a).nodes
        with pytest.raises(ConvergenceError) as info:
            LatticeKernel(QParams(q, p), -0.5, a, DEFAULT_INTEGRATION_CTRL,
                          nodes, 1.0 - p)
        assert str(info.value) == (
            f"kernel row factor t**{1 - p / 2!r} leaves float range at "
            f"p={p!r}; first at node t={first!r}")

