"""The identity registry: how its checks fail, how many kernels they build,
and the test families they evaluate as whole tables."""

import json
import math

import numpy as np
import pytest

from qfrac import operators, qcore, verify
from qfrac.cli import main
from qfrac.qcalc import _tabulate
from qfrac.qcore import DEFAULT_INTEGRATION_CTRL, QParams


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
    """The checks pass whole families, so a registry builds few kernels
    (1,142 when every function and node had its own)."""
    built = []

    class Counting(operators.LatticeKernel):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(operators, "LatticeKernel", Counting)
    assert all(r.passed for r in verify.run_registry())
    assert 0 < len(built) <= 350


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


def test_registry_bits_do_not_depend_on_the_kernel_memo():
    """A memoized kernel table gives the bits of a fresh one."""
    warm = [r.max_error for r in verify.run_registry()]
    cold = []
    for name in verify.IDENTITY_NAMES:
        qcore._kernel_weights.cache_clear()
        cold.append(verify.run_identity(name).max_error)
    assert cold == warm


def test_kernel_memo_stays_bounded(tmp_path, capsys):
    """A q = 0.99 solve and a verify in one process keep at most the
    memo's constant number of kernel tables."""
    solve = write_cfg(tmp_path, "q = 0.99\nalpha = 0.5\nzeta = 1\n"
                                "rhs = u\nr = 10\n")
    assert main(["solve", "--config", solve, "--format", "json"]) == 0
    info = qcore._kernel_weights.cache_info()
    assert info.maxsize == qcore._KERNEL_MEMO
    assert info.currsize <= qcore._KERNEL_MEMO
    assert main(["verify", "--config", write_cfg(tmp_path, "")]) == 0
    assert qcore._kernel_weights.cache_info().currsize <= qcore._KERNEL_MEMO
    capsys.readouterr()


@pytest.mark.parametrize("q,p", [(0.3, 1.0), (0.9, 2.0), (0.99, 5.0)])
def test_lemma_cases_are_lemma_beta_integral(q, p):
    """The lemma check's closed forms, from one q-Gamma pass, are the bits
    of one lemma_beta_integral call per case."""
    params = QParams(q, p)
    cases = list(verify._lemma_cases(params, DEFAULT_INTEGRATION_CTRL))
    assert len(cases) == 9
    for alpha, lam, closed in cases:
        assert closed == operators.lemma_beta_integral(
            0.0, np.array(verify._LEMMA_XS), alpha, lam, params).tolist()


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
