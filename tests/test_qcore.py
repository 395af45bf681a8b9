import importlib
import math
import pkgutil
import re
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kernel_reference as reference
import qfrac
from qfrac import cauchy, errors, operators, qcalc, qcore
from qfrac.errors import ConvergenceError, DomainError, PoleError
from qfrac.qcore import (
    QParams,
    SeriesControl,
    _checked_product,
    _kernel_weights,
    _power,
    q_factorial,
    q_gamma,
    q_number,
    q_power_general,
)


def brute_pochhammer(a, q, terms):
    """Independent oracle: plain finite product."""
    out = 1.0
    for j in range(terms):
        out *= 1.0 - q**j * a
    return out


def brute_qpower_integer(x, y, n, params):
    """Telescoping oracle for integer orders:
    prod_{k=0}^{n-1} (x**p - y**p q**(p k))."""
    Q = params.q**params.p
    out = 1.0
    for k in range(n):
        out *= x**params.p - y**params.p * Q**k
    return out


class TestQNumber:
    def test_one(self):
        assert q_number(1, 0.3) == 1.0

    def test_zero(self):
        assert q_number(0, 0.7) == 0.0

    def test_two(self):
        assert q_number(2, 0.5) == pytest.approx(1.5, rel=1e-15)
        assert q_number(2, 0.5) == pytest.approx(1.0 + 0.5, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_number(1, 1.0)
        with pytest.raises(DomainError):
            q_number(1, 0.0)

    def test_classical_limit(self):
        q = 1.0 - 1e-6
        for a in range(1, 11):
            assert abs(q_number(a, q) - a) < 1e-4 * a


class TestQFactorial:
    def test_zero(self):
        assert q_factorial(0, 0.5) == 1.0

    def test_small(self):
        assert q_factorial(2, 0.5) == pytest.approx(1.5, rel=1e-15)
        assert q_factorial(3, 0.5) == pytest.approx(2.625, rel=1e-15)

    def test_negative(self):
        with pytest.raises(DomainError):
            q_factorial(-1, 0.5)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5])
    def test_non_integer_is_named(self, n):
        with pytest.raises(DomainError) as err:
            q_factorial(n, 0.5)
        assert str(err.value) == f"n must be a nonnegative integer, got {n}"


class TestQGamma:
    def test_one(self):
        assert q_gamma(1.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_integer(self):
        # Gamma_q(n + 1) = [n]_q!
        for q in (0.3, 0.5, 0.9):
            for n in range(9):
                assert q_gamma(n + 1.0, q) == pytest.approx(
                    q_factorial(n, q), rel=1e-12)

    def test_vs_brute_product(self):
        t, q = 1.5, 0.9
        want = (brute_pochhammer(q, q, 500) / brute_pochhammer(q**t, q, 500)
                * (1 - q) ** (1 - t))
        assert q_gamma(t, q) == pytest.approx(want, rel=1e-12)

    @given(t=st.floats(0.1, 5.0), q=st.sampled_from([0.3, 0.5, 0.9]))
    @settings(max_examples=100, deadline=None)
    def test_ratio_identity(self, t, q):
        assert q_gamma(t + 1.0, q) == pytest.approx(
            q_number(t, q) * q_gamma(t, q), rel=1e-10)

    def test_nonconvergence(self):
        ctrl = SeriesControl(max_terms=5)  # (q; q)_inf needs 3897 factors
        with pytest.raises(ConvergenceError, match=re.escape(
                "base 0.99 and q=0.99 needs 3897 factors, exceeding "
                "max_terms=5")):
            q_gamma(1.5, 0.99, ctrl)

    def test_pole(self):
        with pytest.raises(PoleError):
            q_gamma(0.0, 0.5)
        with pytest.raises(PoleError):
            q_gamma(-2.0, 0.5)

    def test_nan_is_named_before_the_product_pass(self):
        for t in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(DomainError) as err:
                q_gamma(t, 0.5)
            assert str(err.value) == "q-Gamma argument t must not be NaN"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinity_is_named_before_the_pole_check(self, t):
        for arg in (t, np.array([0.5, t])):
            with pytest.raises(DomainError) as err:
                q_gamma(arg, 0.5)
            assert str(err.value) == (
                f"q-Gamma argument t must be finite, got {t}")


class TestQPowerGeneral:
    def test_y_zero(self):
        p = QParams(0.4, 1.0)
        assert q_power_general(2.0, 0.0, 0.5, p) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)

    def test_coincident(self):
        assert q_power_general(1.0, 1.0, 0.7, QParams(0.5)) == 0.0

    def test_alpha_one_telescopes(self):
        params = QParams(0.5, 1.0)
        got = q_power_general(2.0, 1.0, 1.0, params)
        want = brute_qpower_integer(2.0, 1.0, 1, params)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.0, rel=1e-12)

    @given(n=st.integers(1, 4), q=st.sampled_from([0.3, 0.5, 0.9]),
           p=st.sampled_from([1.0, 2.0]), x=st.floats(0.5, 2.0),
           frac=st.floats(0.0, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_integer_order_matches_finite_product(self, n, q, p, x, frac):
        params = QParams(q, p)
        y = frac * x
        got = q_power_general(x, y, float(n), params)
        want = brute_qpower_integer(x, y, n, params)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @given(q=st.sampled_from([0.3, 0.5, 0.9]), p=st.sampled_from([1.0, 2.0]),
           alpha=st.floats(0.2, 1.8), x=st.floats(0.5, 2.0),
           frac=st.floats(0.05, 0.85))
    @settings(max_examples=80, deadline=None)
    def test_q_derivative_identities(self, q, p, alpha, x, frac):
        # frac bounded away from 0: the y-difference quotient cancels
        # catastrophically as y -> 0
        params = QParams(q, p)
        y = frac * q * x
        qn = q_number(p * alpha, q)
        dx = (q_power_general(x, y, alpha, params)
              - q_power_general(q * x, y, alpha, params)) / ((1 - q) * x)
        rhs_x = x ** (p - 1) * qn * q_power_general(x, y, alpha - 1, params)
        assert dx == pytest.approx(rhs_x, rel=1e-8, abs=1e-10)
        if y > 0:
            dy = (q_power_general(x, y, alpha, params)
                  - q_power_general(x, q * y, alpha, params)) / ((1 - q) * y)
            rhs_y = (-(y ** (p - 1)) * qn
                     * q_power_general(x, q * y, alpha - 1, params))
            assert dy == pytest.approx(rhs_y, rel=1e-8, abs=1e-10)

    @given(q=st.sampled_from([0.3, 0.5, 0.9]), p=st.sampled_from([1.0, 2.0]),
           alpha=st.floats(0.1, 2.0), beta=st.floats(0.1, 2.0),
           x=st.floats(0.5, 2.0), frac=st.floats(0.0, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_order_splitting(self, q, p, alpha, beta, x, frac):
        # (x**p - y**p)^(alpha + beta)
        #     = (x**p - y**p)^(alpha) (x**p - (q**alpha y)**p)^(beta)
        params = QParams(q, p)
        y = frac * x
        whole = q_power_general(x, y, alpha + beta, params)
        split = (q_power_general(x, y, alpha, params)
                 * q_power_general(x, q**alpha * y, beta, params))
        assert split == pytest.approx(whole, rel=1e-10, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_power_general(1.0, 2.0, 0.5, QParams(0.5))
        with pytest.raises(DomainError):
            q_power_general(-1.0, 0.0, 0.5, QParams(0.5))

    @pytest.mark.parametrize("y,alpha,message", [
        (math.nan, 0.5, "y must be nonnegative, got nan"),  # not y = 0
        (0.5, math.nan, "alpha must not be NaN"),
        (0.5, np.array([0.5, math.nan]), "alpha must not be NaN"),
    ])
    def test_nan_is_rejected(self, y, alpha, message):
        with pytest.raises(DomainError) as err:
            q_power_general(1.0, y, alpha, QParams(0.5))
        assert str(err.value) == message


class TestArrayProducts:
    """q-products over ndarrays: each element is the scalar call's value."""

    @given(q=st.floats(0.3, 0.99), p=st.sampled_from([1.0, 2.0]),
           alpha=st.lists(st.floats(-1.0, 2.0, exclude_min=True,
                                    exclude_max=True), min_size=1,
                          max_size=6),
           x=st.floats(0.5, 2.0), fracs=st.lists(st.floats(0.0, 1.0),
                                                 min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_elements_equal_scalar_calls(self, q, p, alpha, x, fracs):
        params = QParams(q, p)
        alpha = np.array(alpha)
        ys = (x * np.array(fracs[:len(alpha)]))[:, None]
        try:
            want = [[q_power_general(x, y, a, params) for a in alpha]
                    for y in ys[:, 0]]
        except PoleError:
            return
        got = q_power_general(x, ys, alpha, params)
        assert got.shape == (len(ys), len(alpha))
        assert got.tolist() == want

    @pytest.mark.parametrize("n", (1, 40))
    def test_blocked_pass_equals_element_calls(self, monkeypatch, n):
        """A pass over more elements than a block holds runs its blocks
        inside the one call; each element keeps the bits, values and signs,
        of a call of its own, whatever its product length or block."""
        q = 0.9
        log_q = math.log(q)
        rng = np.random.default_rng(48)
        # bases q**u from q**-6 (above 1) down to q**40, and a zero base
        u = rng.uniform(-6.0, 40.0, 200)
        log_r = u * log_q
        log_r[17] = -np.inf
        log_s = log_r + rng.uniform(-1.5, 1.5, 200) * log_q
        blocks = []

        def counting(*args):
            blocks.append(np.size(args[0]))
            return block(*args)

        block = qcore._ratio_block
        monkeypatch.setattr(qcore, "_ratio_block", counting)
        ctrl = SeriesControl()
        logs, sign = qcore._log_q_ratio(log_r, log_s, log_q, n, ctrl)
        monkeypatch.undo()
        assert len(blocks) > 2 and sum(blocks) == 200
        sign = np.broadcast_to(sign, logs.shape)
        for i in range(200):
            one, one_sign = qcore._log_q_ratio(log_r[i], log_s[i], log_q, n,
                                               ctrl)
            assert logs[i].tobytes() == one.tobytes()
            assert sign[i].tobytes() == np.broadcast_to(
                one_sign, (n,)).tobytes()
        assert np.any(sign < 0.0)

    def test_edges(self):
        params = QParams(0.5, 2.0)
        got = q_power_general(np.array([1.5, 1.5, 2.0]),
                              np.array([1.5, 0.0, 1.0]), 0.7, params)
        assert got.tolist() == [0.0, 1.5 ** 1.4,
                                q_power_general(2.0, 1.0, 0.7, params)]

    def test_errors_still_raise(self):
        params = QParams(0.5)
        with pytest.raises(DomainError, match="y must not exceed x"):
            q_power_general(np.array([1.0, 1.0]), np.array([0.5, 2.0]), 0.5,
                            params)
        with pytest.raises(DomainError, match="x must be positive"):
            q_power_general(np.array([1.0, -1.0]), 0.0, 0.5, params)
        # (q**alpha y/x; q)_inf has the factor 1 - 2 * 0.5 = 0
        with pytest.raises(PoleError) as err:
            q_power_general(1.0, 0.5, -1.0, params)
        assert str(err.value) == (
            "kernel denominator product vanishes (beta=-1.0) at c=0.5")
        with pytest.raises(PoleError):
            q_power_general(np.ones(2), np.array([0.25, 0.5]), -1.0, params)


class TestLatticeQPower:
    """The kernel weights at c = (y/x)**p: x**(p alpha) k_i is the q-power
    at y q**i, from one suffix-sum pass."""

    @given(q=st.sampled_from([0.3, 0.5, 0.9]), p=st.sampled_from([1.0, 2.0]),
           alpha=st.floats(-0.95, 1.95), x=st.floats(0.5, 2.0),
           frac=st.floats(0.0, 1.0), n=st.integers(1, 80))
    @settings(max_examples=80, deadline=None)
    @example(q=0.3, p=1.0, alpha=0.0, x=2.0, frac=5e-324, n=2)
    def test_matches_scalar_q_power(self, q, p, alpha, x, frac, n):
        params = QParams(q, p)
        y = frac * x
        log_Q = p * math.log(q)
        log_c = p * math.log(y / x) if y > 0.0 else -math.inf
        # a denominator base q**(p alpha) (y/x)**p < 1 keeps every factor
        # away from zero, the poles near which the two forms part
        assume(log_c + alpha * log_Q < 0.0)
        got = x ** (p * alpha) * _kernel_weights(
            log_Q, alpha, log_c, n, SeriesControl())
        want = np.array([q_power_general(x, y * q**i, alpha, params)
                         for i in range(n)])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("alpha", (0.0, 0.5, -0.5))
    def test_underflowed_ratio_is_a_zero_base(self, alpha):
        # 5e-324 / 2 rounds to 0: the value at y = 0, with no RuntimeWarning
        params = QParams(0.3)
        want = q_power_general(2.0, 0.0, alpha, params)
        assert q_power_general(2.0, 5e-324, alpha, params) == want
        assert q_power_general(np.array([2.0, 2.0]), np.array([5e-324, 0.0]),
                               alpha, params).tolist() == [want, want]


class TestCheckedPower:
    """_checked_product names a power past float range, _power's too: the
    factor, the exponent, p and the first such node."""

    def test_python_float_overflow(self):
        with pytest.raises(ConvergenceError, match=re.escape(
                "f t**400.0 leaves float range at p=2.0; first at node "
                "t=10.0")):
            _power(10.0, 400.0, 2.0, "f")

    def test_array_exponent_names_its_own(self):
        with pytest.raises(ConvergenceError, match=re.escape(
                "f t**-1100.0 leaves float range at p=3.0; first at node "
                "t=0.5")):
            _power(np.array([2.0, 0.5]), np.array([1.0, -1100.0]), 3.0, "f")

    def test_non_finite_table_passes_through(self):
        nodes, table = np.array([1.0, 2.0]), np.array([np.inf, 1.0])
        out = np.array([np.inf, 1.0])
        assert _checked_product(out, nodes, 2.0, 1.0, "f", table) is out
        with pytest.raises(ConvergenceError, match=re.escape(
                "f t**2.0 times its table leaves float range at p=1.0; "
                "first at node t=2.0")):
            _checked_product(out[::-1], nodes, 2.0, 1.0, "f", table)


class TestInvariantsOfTypes:
    def test_qparams_validation(self):
        with pytest.raises(DomainError):
            QParams(1.2, 1.0)
        with pytest.raises(DomainError):
            QParams(0.5, 0.0)

    @pytest.mark.parametrize("q,p", [(0.5, 1e6), (0.5, math.inf),
                                     (0.9, 1e4)])
    def test_qparams_rejects_an_underflowing_base(self, q, p):
        """q**p = 0 is no base: every base-q**p quantity divides by it or
        takes its log."""
        with pytest.raises(DomainError, match=r"q\*\*p underflows to 0"):
            QParams(q, p)
        assert QParams(q, 500.0).qp > 0.0  # tiny, yet a base

    @pytest.mark.parametrize("q,p", [(0.5, 1e-300), (0.5, 1e-20),
                                     (0.99, 1e-15)])
    def test_qparams_rejects_a_base_that_rounds_to_1(self, q, p):
        """q**p = 1 is no deformation: q_gamma refuses it as a q, and the
        sum length divides by its log."""
        with pytest.raises(DomainError) as raised:
            QParams(q, p)
        assert str(raised.value) == f"q**p rounds to 1 at q={q}, p={p}"
        assert QParams(q, 1e-14).qp < 1.0  # near 1, yet a base

    def test_series_control_validation(self):
        # every sum holds at least its 3 terms past _SUM_ABS_TOL
        with pytest.raises(DomainError, match="max_terms must be >= 3"):
            SeriesControl(max_terms=2)
        assert SeriesControl(max_terms=3).max_terms == 3

    def test_public_names_exist(self):
        """Every name in a module's __all__ exists, and the package's public
        names are exactly those of cauchy, operators, qcalc and qcore and
        errors' exception classes (errors has no __all__)."""
        for info in pkgutil.iter_modules(qfrac.__path__):
            module = importlib.import_module(f"qfrac.{info.name}")
            missing = [n for n in getattr(module, "__all__", ())
                       if not hasattr(module, n)]
            assert not missing, (info.name, missing)
        exported = {n for n, v in vars(errors).items()
                    if isinstance(v, type) and issubclass(v, Exception)
                    and v.__module__ == errors.__name__}
        for module in (cauchy, operators, qcalc, qcore):
            exported.update(module.__all__)
        public = {n for n, v in vars(qfrac).items() if not n.startswith("_")
                  and not isinstance(v, types.ModuleType)}
        assert public == exported, public ^ exported


def mpmath_tolerance(q):
    """2e-14, widened near q = 1: the products hold ~36 / (1 - q) factors,
    each rounded once, so double precision cannot do better than a few
    eps / (1 - q) there."""
    return max(2e-14, 8 * 2.2e-16 / (1.0 - q))


class TestMpmathOracles:
    """Cross-checks against mpmath at 30 digits (test-only dependency)."""

    QS = (0.3, 0.5, 0.9, 0.95, 0.99)

    def test_q_gamma(self):
        mpmath = pytest.importorskip("mpmath")
        # q = 0.999 needs 39127 factors, past the default budget of 5000
        ctrl = SeriesControl(max_terms=40_000)
        with mpmath.workdps(30):  # the product and series against qp once
            mq = mpmath.mpf(0.9)
            assert abs(reference.mp_log_poch(mq**0.5, mq) - mpmath.log(
                mpmath.qp(mq**0.5, mq))) < 1e-27
        for q in self.QS + (0.998, 0.999):
            for t in (0.25, 0.5, 1.5, 2.7, 4.0):
                want = reference.mp_q_gamma(t, q)
                assert abs(q_gamma(t, q, ctrl) - want) <= (
                    mpmath_tolerance(q) * abs(want)), (q, t)

    def test_q_gamma_negative_t(self):
        """At t < 0 the bases q**(t + m) above 1 flip factor signs."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for q in (0.3, 0.5, 0.9):
                for t in (-0.1, -0.5, -1.5, -2.7, -3.25, -4.9):
                    want = float(mpmath.qgamma(t, q))
                    assert abs(q_gamma(t, q) - want) <= (
                        mpmath_tolerance(q) * abs(want)), (q, t)

    def test_q_power_general_negative_alpha(self):
        """x**(p alpha) (r; Q)_inf / (Q**alpha r; Q)_inf at r = (y/x)**p,
        Q = q**p: alpha < 0 puts the denominator base above 1."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for q in (0.3, 0.5, 0.9):
                for p in (1.0, 2.0):
                    Q = mpmath.mpf(q) ** p
                    for x, y, alpha in ((1.0, 0.9, -1.5), (2.0, 1.7, -0.5),
                                        (1.0, 0.95, -2.5), (1.5, 1.2, -3.3)):
                        r = (mpmath.mpf(y) / x) ** p
                        want = float(mpmath.mpf(x) ** (p * alpha)
                                     * mpmath.qp(r, Q, maxterms=10**6)
                                     / mpmath.qp(Q**alpha * r, Q,
                                                 maxterms=10**6))
                        got = q_power_general(x, y, alpha, QParams(q, p))
                        assert abs(got - want) <= (
                            mpmath_tolerance(q) * abs(want)), (q, p, x, y,
                                                               alpha)
