"""The identity registry: how its checks fail, how many kernels, q-ratio
passes and Jackson sums they make, the test families they evaluate as
whole tables, and that each batched pass gives every case the bits of its
own call."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import kernel_reference as reference
from qfrac import operators, qcalc, qcore, verify
from qfrac.cli import main
from qfrac.operators import (FracOrder, OperatorContext, caputo_derivative,
                             caputo_derivative_simplified,
                             caputo_rl_relation_residual, frac_integral,
                             inversion_residuals)
from qfrac.qcalc import QLattice, _FromTable, _tabulate
from qfrac.qcore import (DEFAULT_INTEGRATION_CTRL, QParams, SeriesControl,
                         _kernel_weights, _power, _sum_length,
                         q_power_general)


def write_cfg(tmp_path, text):
    path = tmp_path / "v.cfg"
    path.write_text(text)
    return str(path)


def nan_at(fn, index):
    """fn with NaN written into its result at index."""
    def wrapped(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        out[index] = math.nan
        return out
    return wrapped


class TestNaNFails:
    """A NaN residual makes max_error NaN and fails its identity."""

    def test_nan_at_one_node(self, monkeypatch):
        monkeypatch.setattr(verify, "caputo_derivative_simplified",
                            nan_at(verify.caputo_derivative_simplified,
                                   (..., 3)))
        result = verify.run_identity("caputo_equivalence", {"q": 0.5})
        assert math.isnan(result.max_error)
        assert result.passed is False

    def test_all_nan_integral(self, monkeypatch):
        monkeypatch.setattr(verify, "frac_integral",
                            nan_at(verify.frac_integral, ...))
        for name in ("integral_boundedness", "caputo_via_rl_corollary"):
            result = verify.run_identity(name, {"q": 0.5, "p": 2.0})
            assert math.isnan(result.max_error), name
            assert result.passed is False, name

    def test_cli_exits_1_and_writes_null(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setattr(verify, "caputo_derivative_simplified",
                            nan_at(verify.caputo_derivative_simplified,
                                   (..., 3)))
        path = write_cfg(tmp_path, "q = 0.5\n")
        assert main(["verify", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == "failing identities: caputo_equivalence\n"
        results = {r["name"]: r
                   for r in json.loads(captured.out)["identity_results"]}
        assert results["caputo_equivalence"]["max_error"] is None
        assert results["caputo_equivalence"]["passed"] is False
        assert all(r["passed"] for name, r in results.items()
                   if name != "caputo_equivalence")


LARGE_P = [
    (0.9, 15.0, 1e-12), (0.9, 19.0, 1e-12), (0.99, 10.0, 1e-12),
    (0.99, 15.0, 1e-12),
    # the integrand's head x**(p (alpha + lambda) - 1) shares the closed
    # form's rounded exponent: a head x**(p (alpha - 1)) apart from it
    # rounds apart, an error growing like p eps (8.9e-14 at p = 400)
    (0.5, 100.0, 2e-15), (0.9, 200.0, 2e-15), (0.9, 400.0, 2e-15)]


@pytest.mark.parametrize("q,p,bound", LARGE_P,
                         ids=[f"{q}-{p}" for q, p, _ in LARGE_P])
def test_lemma_holds_at_large_p(q, p, bound):
    """At a large p the lemma's Jackson sums at x = 0.5 hold terms far
    below 1e-15, which the sum must still add up."""
    result = verify.run_identity("beta_integral_lemma", {"q": q, "p": p})
    assert result.max_error <= bound


@pytest.mark.parametrize("restrict", [
    {"p": 0.5}, {"q": 0.9, "p": 0.5},
    *({"q": 0.99, "p": p} for p in (5.0, 10.0, 15.0, 20.0))])
def test_registry_passes_on_deep_tables(restrict):
    """Where q**p nears 1 the kernel tables run thousands of rows deep, and
    at a large p the small nodes' heads t**(1 + p beta) are huge: every
    row of every operator sum must keep its own digits."""
    failed = [r for r in verify.run_registry(restrict) if not r.passed]
    assert failed == []


@pytest.mark.parametrize("p", [5.0, 10.0, 20.0])
def test_caputo_equivalence_is_relative_past_its_tolerance_ulp(p):
    """At q = 0.5 the values reach 5e21 (p = 10), whose ulp is 1e6: there
    the two routes are compared relative to the value, and agree."""
    result = verify.run_identity("caputo_equivalence", {"q": 0.5, "p": p})
    assert result.passed and result.max_error <= 1e-8


def test_cli_verify_at_q_099_p_20_exits_0(tmp_path, capsys):
    assert main(["verify", "--config",
                 write_cfg(tmp_path, "q = 0.99\np = 20\n")]) == 0
    assert capsys.readouterr().err == ""


def test_one_kernel_per_lattice_and_family(monkeypatch):
    """The checks pass whole families and vectors of orders and points, so
    a registry builds few kernels (1,142 when every function and node had
    its own, 294 with one per order) and makes few q-ratio passes (273
    with one kernel per order); the lemma's sums are one kernel weight
    pass per (q, p) pair and make no Jackson sum (162 with one per lemma
    case and x)."""
    counts = {"kernels": 0, "ratios": 0, "jackson": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    class Counting(operators.LatticeKernel):
        def __init__(self, *args, **kwargs):
            counts["kernels"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(operators, "LatticeKernel", Counting)
    ratio = counting("ratios", qcore._log_q_ratio)
    monkeypatch.setattr(qcore, "_log_q_ratio", ratio)
    monkeypatch.setattr(verify, "_log_q_ratio", ratio)
    monkeypatch.setattr(qcalc, "jackson_integral_zero",
                        counting("jackson", qcalc.jackson_integral_zero))
    assert all(r.passed for r in verify.run_registry())
    assert 0 < counts["kernels"] <= 60
    assert 0 < counts["ratios"] <= 108
    assert counts["jackson"] == 0


def test_qpower_check_holds_blocks_not_its_whole_table():
    """The q-power check's one q-ratio pass per (q, p) pair, about 130
    bases of some 374 factors at q = 0.9, runs in blocks of at most
    qcore._BLOCK entries: 0.92 MB were traced when it held the pass
    whole."""
    verify.run_identity("qpower_q_derivatives")  # imports and caches
    tracemalloc.start()
    try:
        assert verify.run_identity("qpower_q_derivatives").passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6e6


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
@pytest.mark.parametrize("p", (1.0, 2.0))
def test_families_give_their_table_bits_node_by_node(q, p):
    """A family called at one node gives its table's bits there, so a
    caller that drops the table (tabulating node by node) computes the
    same residuals."""
    nodes = np.power(q, np.arange(40))
    coeffs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 5))
    for family in (*verify._family(q, p), verify._horner(coeffs)):
        by_node = _tabulate(lambda w: family(w), nodes)
        assert by_node.tolist() == family.table(nodes).tolist()


LEMMA_CASES = [(alpha, lam) for alpha in (0.3, 0.7, 1.2)
               for lam in (0.0, 0.5, 1.0)]


@pytest.mark.parametrize("q,p", [(0.3, 1.0), (0.9, 2.0), (0.99, 5.0)])
def test_lemma_cases_are_lemma_beta_integral(q, p):
    """The lemma check's closed forms, from one q-Gamma pass, are the bits
    of one lemma_beta_integral call per case."""
    params = QParams(q, p)
    _, closed = verify._lemma_sums(params, DEFAULT_INTEGRATION_CTRL)
    assert closed.tolist() == [
        value for alpha, lam in LEMMA_CASES
        for value in operators.lemma_beta_integral(
            0.0, np.array(verify._LEMMA_XS), alpha, lam, params).tolist()]


class TestDrawnCases:
    """The q-power and boundedness checks draw their cases from
    random.Random streams of fixed seeds."""

    @pytest.mark.parametrize("name", ["qpower_q_derivatives",
                                      "integral_boundedness"])
    def test_repeat_runs_give_the_same_bits(self, name):
        first, second = (verify.run_identity(name) for _ in range(2))
        assert first.max_error.hex() == second.max_error.hex()

    @pytest.mark.parametrize("restrict", [None, {"q": 0.5}, {"p": 1.0},
                                          {"q": 0.9, "p": 15.0}])
    def test_qpower_draws_lie_in_range_and_cover_the_grid(self, restrict):
        draws = verify._qpower_draws(restrict)
        assert len(draws) == 100
        for _, _, alpha, x, u in draws:
            assert 0.2 <= alpha <= 1.8 and 0.5 <= x <= 2.0 and 0.0 <= u < 1.0
        assert {d[:2] for d in draws} == set(verify._pairs(restrict))

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("p", [1.0, 2.0, 5.0, 20.0])
    def test_drawn_identities_pass(self, q, p):
        for name in ("qpower_q_derivatives", "integral_boundedness"):
            assert verify.run_identity(name, {"q": q, "p": p}).passed

    @pytest.mark.xfail(strict=True, reason=(
        "at a large p the weight w**(p-1) concentrates J^(1/2) f(1) on "
        "f(1), so the bound is attained: J^(1/2) of 1 at x = 1 exceeds "
        "bound_constant by 1.1e-16 at p = 50, over the 0.0 tolerance"))
    @pytest.mark.parametrize("p", [50.0, 100.0])
    def test_boundedness_at_large_p(self, p):
        assert verify.run_identity("integral_boundedness",
                                   {"q": 0.3, "p": p}).passed


def test_boundedness_sup_reads_every_node_the_sums_read():
    """At q = 0.99, p = 0.2 the 12-node lattice's sums read f down to 1e-15,
    far past the 200-node lattice (down to 0.135), whose sup of |f| falls
    short of the bound's: the sup is over all the nodes the sums read."""
    result = verify.run_identity("integral_boundedness", {"q": 0.99, "p": 0.2},
                                 SeriesControl(40000))
    assert result.passed


# ROADMAP item 13's verify sweep, q unset or 0.5, 0.9, 0.99 by p: each
# cell's exit code and stderr line, those of a case-by-case loop
SWEEP = [
    (None, 0.05, 3,
     'numerical error: q-product with base 0.998421 and q=0.994746 needs '
     '7434 factors, exceeding max_terms=5000; raise SeriesControl.max_terms '
     '(the CLI reads it from QFRAC_MAX_TERMS)'),
    (None, 0.2, 0, ""),
    (None, 0.5, 0, ""),
    (None, 1, 0, ""),
    (None, 2, 0, ""),
    (None, 5, 1,
     'failing identities: caputo_equivalence'),
    (None, 10, 1,
     'failing identities: caputo_equivalence'),
    (None, 15, 1,
     'failing identities: caputo_equivalence'),
    (None, 20, 3,
     'numerical error: corollary integrand factor t**-19.0 leaves float '
     'range at p=20.0; first at node t=4.323713773987623e-17'),
    (None, 50, 3,
     'numerical error: corollary integrand factor t**-49.0 leaves float '
     'range at p=50.0; first at node t=3.720086999999998e-07'),
    (None, 100, 3,
     'numerical error: kernel row factor t**-75.0 leaves float range at '
     'p=100.0; first at node t=6.560999999999998e-05'),
    (None, 1100, 2,
     'p: q**p underflows to 0 at q=0.3, p=1100.0'),
    (None, 2000, 2,
     'p: q**p underflows to 0 at q=0.3, p=2000.0'),
    # the lemma's sums read no node, so none underflows to t = 0
    (0.3, 0.05, 0, ""),
    (0.5, 0.05, 0, ""),
    (0.5, 0.2, 0, ""),
    (0.5, 0.5, 0, ""),
    (0.5, 1, 0, ""),
    (0.5, 2, 0, ""),
    (0.5, 5, 0, ""),
    (0.5, 10, 0, ""),
    (0.5, 15, 1,
     'failing identities: caputo_equivalence'),
    (0.5, 20, 0, ""),
    (0.5, 50, 3,
     'numerical error: corollary integrand factor t**-49.0 leaves float '
     'range at p=50.0; first at node t=3.337860107421875e-07'),
    (0.5, 100, 3,
     'numerical error: corollary integrand factor t**-99.0 leaves float '
     'range at p=100.0; first at node t=0.00068359375'),
    (0.5, 1100, 2,
     'p: q**p underflows to 0 at q=0.5, p=1100.0'),
    (0.5, 2000, 2,
     'p: q**p underflows to 0 at q=0.5, p=2000.0'),
    (0.9, 0.05, 3,
     'numerical error: q-product with base 0.998421 and q=0.994746 needs '
     '7434 factors, exceeding max_terms=5000; raise SeriesControl.max_terms '
     '(the CLI reads it from QFRAC_MAX_TERMS)'),
    (0.9, 0.2, 0, ""),
    (0.9, 0.5, 0, ""),
    (0.9, 1, 0, ""),
    (0.9, 2, 0, ""),
    (0.9, 5, 0, ""),
    (0.9, 10, 0, ""),
    (0.9, 15, 0, ""),
    (0.9, 20, 0, ""),
    (0.9, 50, 3,
     'numerical error: corollary integrand factor t**-49.0 leaves float '
     'range at p=50.0; first at node t=4.654111829205032e-07'),
    (0.9, 100, 3,
     'numerical error: corollary integrand factor t**-99.0 leaves float '
     'range at p=100.0; first at node t=0.0007427816283975318'),
    (0.9, 1100, 3,
     'numerical error: q-power factor t**1430.0 leaves float range at '
     'p=1100.0; first at node t=2.0'),
    (0.9, 2000, 3,
     'numerical error: q-power factor t**1600.0 leaves float range at '
     'p=2000.0; first at node t=2.0'),
    (0.99, 0.05, 3,
     'numerical error: q-product with base 0.999849 and q=0.999498 needs '
     '77899 factors, exceeding max_terms=5000; raise SeriesControl.max_terms'
     ' (the CLI reads it from QFRAC_MAX_TERMS)'),
    (0.99, 0.2, 3,
     'numerical error: q-product with base 0.999397 and q=0.997992 needs '
     '19477 factors, exceeding max_terms=5000; raise SeriesControl.max_terms'
     ' (the CLI reads it from QFRAC_MAX_TERMS)'),
    (0.99, 0.5, 3,
     'numerical error: q-product with base 0.998494 and q=0.994987 needs '
     '7793 factors, exceeding max_terms=5000; raise SeriesControl.max_terms '
     '(the CLI reads it from QFRAC_MAX_TERMS)'),
    (0.99, 1, 0, ""),
    (0.99, 2, 0, ""),
    (0.99, 5, 0, ""),
    (0.99, 10, 0, ""),
    (0.99, 15, 0, ""),
    (0.99, 20, 0, ""),
    (0.99, 50, 3,
     'numerical error: corollary integrand factor t**-49.0 leaves float '
     'range at p=50.0; first at node t=5.107185639407543e-07'),
    (0.99, 100, 3,
     'numerical error: corollary integrand factor t**-99.0 leaves float '
     'range at p=100.0; first at node t=0.0007687054800791219'),
    (0.99, 1100, 3,
     'numerical error: q-power factor t**1430.0 leaves float range at '
     'p=1100.0; first at node t=2.0'),
    (0.99, 2000, 3,
     'numerical error: q-power factor t**1600.0 leaves float range at '
     'p=2000.0; first at node t=2.0'),
]


@pytest.mark.parametrize("q,p,code,line", SWEEP,
                         ids=[f"{q}-{p}" for q, p, _, _ in SWEEP])
def test_verify_sweep_cell(tmp_path, capsys, q, p, code, line):
    text = ("" if q is None else f"q = {q}\n") + f"p = {p}\n"
    out = str(tmp_path / "report.json")
    assert main(["verify", "--config", write_cfg(tmp_path, text),
                 "--out", out]) == code
    assert capsys.readouterr().err == (line + "\n" if line else "")


def _lemma_case_sum(params, alpha, lam, x, ctrl):
    """One lemma case's Jackson sum at x, from its own kernel weights:
    x**(p (alpha + lam)) (1 - q) sum_i k_i Q**(i (1 + lam)), c = Q."""
    q, p, log_Q = params.q, params.p, params.p * math.log(params.q)
    n = _sum_length(q, p, ctrl)
    weights = _kernel_weights(log_Q, alpha - 1.0, log_Q, n, ctrl)
    powers = np.exp((1.0 + lam) * np.arange(n) * log_Q)
    return ((1.0 - q) * np.vecdot(weights, powers)
            * q_power_general(x, 0.0, alpha + lam, params, ctrl))


@pytest.mark.parametrize("q, p", [(0.5, 1.0), (0.9, 0.5), (0.9, 2.0)])
def test_lemma_sums_are_the_jackson_integrals_of_the_integrand(q, p):
    """The x = 1 kernel sum times x**(p (alpha + lam)) is the Jackson
    integral over [0, x] of the lemma's integrand t**(p (1 + lam) - 1)
    (x**p - (qt)**p)^(alpha - 1), summed term by term by the reference
    with its kernel weight from plain products. The reference stops once
    its terms fall below 1e-13 of the partial sum; its terms shrink by
    Q = q**p or faster, so its tail is within 1e-13 Q / (1 - Q) of it."""
    ctrl, Q = DEFAULT_INTEGRATION_CTRL, q ** p
    got = verify._lemma_sums(QParams(q, p), ctrl)[0]
    want = np.array([reference.jackson_sum(
        lambda t: t ** (p * (1.0 + lam) - 1.0) * x ** (p * (alpha - 1.0))
        * reference.kernel_weights(Q, alpha - 1.0, (q * t / x) ** p, 1,
                                   1e-17)[0], x, q, ctrl)
        for alpha, lam in LEMMA_CASES for x in verify._LEMMA_XS])
    assert np.max(np.abs(got - want) / np.abs(want)) <= (
        1e-13 * Q / (1.0 - Q) + 1e-14)


@pytest.mark.parametrize("restrict", [None, {"p": 0.5}, {"q": 0.99, "p": 5.0}],
                         ids=str)
def test_batched_passes_give_each_case_its_own_calls_bits(restrict):
    """Each identity's batched pass (a family over cases, a vector of
    orders, a vector of points) gives every case the bits of the call a
    case-by-case loop makes."""
    ctrl, orders = DEFAULT_INTEGRATION_CTRL, verify._ORDERS.tolist()
    for q, p in verify._pairs(restrict):
        params = QParams(q, p)
        assert verify._lemma_sums(params, ctrl)[0].tolist() == [
            _lemma_case_sum(params, alpha, lam, x, ctrl)
            for alpha, lam in LEMMA_CASES for x in verify._LEMMA_XS]

        ctx = OperatorContext(params, a=0.25, ctrl=ctrl)
        f, _ = verify._family(q, p, 2)
        got = caputo_rl_relation_residual(f, np.array((0.9, 1.0)),
                                          verify._ORDERS, ctx)
        for i, alpha in enumerate(orders):
            for j, x in enumerate((0.9, 1.0)):
                want = caputo_rl_relation_residual(f, x, FracOrder(alpha), ctx)
                assert got[i, :, j].tolist() == want.tolist()

        ctx = OperatorContext(params, a=0.0, ctrl=ctrl)
        f, _ = verify._family(q, p, 3)
        e, c = verify._exponents(q, p, 3)
        g = _FromTable(lambda w: c * _power(w, e - p, p))
        xs = (0.7, 1.0, 0.7 * q, q)
        got = caputo_derivative(f, np.array(xs[:2]), verify._ORDERS, ctx)
        both = [1.0 - a for a in orders] + [2.0 - a for a in orders]
        j_got = frac_integral(g, np.array(xs), np.array(both), ctx)
        for j, x in enumerate(xs):
            for i, alpha in enumerate(orders):
                if j < 2:
                    assert got[i, :, j].tolist() == caputo_derivative(
                        f, x, FracOrder(alpha), ctx).tolist()
            for i, order in enumerate(both):
                assert j_got[i, :, j].tolist() == frac_integral(
                    g, x, order, ctx).tolist()

        lattice = QLattice(1.0, q, 12)
        f, dqf = verify._family(q, p)
        inverted = inversion_residuals(f, lattice, verify._ORDERS, ctx)
        for i, alpha in enumerate(orders):
            order = FracOrder(alpha)
            for route in (caputo_derivative, caputo_derivative_simplified):
                args = (f, lattice) if route is caputo_derivative else (
                    f, dqf, lattice)
                assert route(*args, verify._ORDERS, ctx)[i].tolist() == route(
                    *args, order, ctx).tolist()
            for k, want in enumerate(inversion_residuals(f, lattice, order,
                                                         ctx)):
                assert inverted[k][i].tolist() == want.tolist()
