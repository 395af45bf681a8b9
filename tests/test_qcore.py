import importlib
import math
import pkgutil
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qfrac
from qfrac.errors import ConvergenceError, DomainError, PoleError
from qfrac.qcore import (
    QParams,
    SeriesControl,
    _kernel_weights,
    q_factorial,
    q_gamma,
    q_number,
    q_pochhammer_infinite,
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


class TestPochhammer:
    def test_infinite_trivial(self):
        assert q_pochhammer_infinite(0.0, 0.5) == 1.0
        assert q_pochhammer_infinite(1.0, 0.5) == 0.0

    def test_infinite_vs_brute(self):
        got = q_pochhammer_infinite(0.5, 0.5)
        want = brute_pochhammer(0.5, 0.5, 200)
        assert got == pytest.approx(want, rel=1e-12)

    def test_nonconvergence(self):
        ctrl = SeriesControl(max_terms=5)  # the product needs 3829 factors
        with pytest.raises(ConvergenceError):
            q_pochhammer_infinite(0.5, 0.99, ctrl)

    @given(a=st.floats(0.0, 0.99), q=st.floats(0.05, 0.95),
           n=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_splitting_identity(self, a, q, n):
        whole = q_pochhammer_infinite(a, q)
        split = (brute_pochhammer(a, q, n)
                 * q_pochhammer_infinite(a * q**n, q))
        assert split == pytest.approx(whole, rel=1e-10, abs=1e-12)


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

    def test_pole(self):
        with pytest.raises(PoleError):
            q_gamma(0.0, 0.5)
        with pytest.raises(PoleError):
            q_gamma(-2.0, 0.5)


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

    def test_domain(self):
        with pytest.raises(DomainError):
            q_power_general(1.0, 2.0, 0.5, QParams(0.5))
        with pytest.raises(DomainError):
            q_power_general(-1.0, 0.0, 0.5, QParams(0.5))


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
        rs = (ys[:, 0] / x) ** p
        assert q_pochhammer_infinite(rs, params.qp).tolist() == [
            q_pochhammer_infinite(r, params.qp) for r in rs.tolist()]

    def test_edges(self):
        params = QParams(0.5, 2.0)
        got = q_power_general(np.array([1.5, 1.5, 2.0]),
                              np.array([1.5, 0.0, 1.0]), 0.7, params)
        assert got.tolist() == [0.0, 1.5 ** 1.4,
                                q_power_general(2.0, 1.0, 0.7, params)]
        assert q_pochhammer_infinite(np.zeros(2), 0.5).tolist() == [1.0, 1.0]

    def test_errors_still_raise(self):
        params = QParams(0.5)
        with pytest.raises(DomainError, match="y must not exceed x"):
            q_power_general(np.array([1.0, 1.0]), np.array([0.5, 2.0]), 0.5,
                            params)
        with pytest.raises(DomainError, match="x must be positive"):
            q_power_general(np.array([1.0, -1.0]), 0.0, 0.5, params)
        # (q**alpha y/x; q)_inf has the factor 1 - 2 * 0.5 = 0
        with pytest.raises(PoleError):
            q_power_general(1.0, 0.5, -1.0, params)
        with pytest.raises(PoleError):
            q_power_general(np.ones(2), np.array([0.25, 0.5]), -1.0, params)
        with pytest.raises(DomainError):
            q_pochhammer_infinite(np.array([0.5]), 1.5)


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

    def test_memoized_table_is_read_only(self):
        table = _kernel_weights(math.log(0.5), -0.5, math.log(0.25), 8,
                                SeriesControl())
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0

    @pytest.mark.parametrize("alpha", (0.0, 0.5, -0.5))
    def test_underflowed_ratio_is_a_zero_base(self, alpha):
        # 5e-324 / 2 rounds to 0: the value at y = 0, with no RuntimeWarning
        params = QParams(0.3)
        want = q_power_general(2.0, 0.0, alpha, params)
        assert q_power_general(2.0, 5e-324, alpha, params) == want
        assert q_power_general(np.array([2.0, 2.0]), np.array([5e-324, 0.0]),
                               alpha, params).tolist() == [want, want]


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

    def test_series_control_validation(self):
        # a sum stops after a run of 3 small terms, so a budget needs 3
        with pytest.raises(DomainError, match="max_terms must be >= 3"):
            SeriesControl(max_terms=2)
        assert SeriesControl(max_terms=3).max_terms == 3

    def test_public_names_exist(self):
        """Every name in a module's __all__ exists, and every public name
        of the package is one of them (or of errors, which has no
        __all__)."""
        exported = set()
        for info in pkgutil.iter_modules(qfrac.__path__):
            module = importlib.import_module(f"qfrac.{info.name}")
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n in vars(module) if not n.startswith("_")]
            missing = [n for n in names if not hasattr(module, n)]
            assert not missing, (info.name, missing)
            exported.update(names)
        public = {n for n, v in vars(qfrac).items() if not n.startswith("_")
                  and not isinstance(v, types.ModuleType)}
        assert public <= exported, public - exported


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
        with mpmath.workdps(30):
            for q in self.QS + (0.998, 0.999):
                # mpmath.qgamma's own formula, with each infinite product
                # formed once: (q**t; q)_inf = (q**f; q)_inf / (q**f; q)_n
                # for t = f + n, f in (0, 1]; f = 1 gives (q; q)_inf
                mq = mpmath.mpf(q)
                prods = {1.0: mpmath.qp(mq, q, maxterms=10**6)}
                for t in (0.25, 0.5, 1.5, 2.7, 4.0):
                    n = math.ceil(t) - 1
                    f = t - n
                    if f not in prods:
                        prods[f] = mpmath.qp(mq**f, q, maxterms=10**6)
                    den = prods[f] / mpmath.qp(mq**f, q, n)
                    want = float(prods[1.0] / den * (1 - mq) ** (1 - t))
                    assert abs(q_gamma(t, q, ctrl) - want) <= (
                        mpmath_tolerance(q) * abs(want)), (q, t)

    def test_q_pochhammer_infinite(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for q in self.QS:
                for a in (0.01, 0.5, 0.9, -0.7, q):
                    want = float(mpmath.qp(a, q, maxterms=10**6))
                    assert abs(q_pochhammer_infinite(a, q) - want) <= (
                        mpmath_tolerance(q) * abs(want)), (q, a)
