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


@pytest.mark.parametrize("q,p", [(0.9, 15.0), (0.9, 19.0), (0.99, 10.0),
                                 (0.99, 15.0)])
def test_lemma_holds_at_large_p(q, p):
    """At a large p the lemma's Jackson sums at x = 0.5 hold terms far
    below 1e-15, which the sum must still add up."""
    result = verify.run_identity("beta_integral_lemma", {"q": q, "p": p})
    assert result.max_error <= 1e-12


@pytest.mark.parametrize("restrict", [
    {"p": 0.5}, {"q": 0.9, "p": 0.5},
    *({"q": 0.99, "p": p} for p in (5.0, 10.0, 15.0, 20.0))])
def test_registry_passes_on_deep_tables(restrict):
    """Where q**p nears 1 the kernel tables run thousands of rows deep, and
    at a large p the small nodes' heads t**(1 + p beta) are huge: every
    row of every operator sum must keep its own digits."""
    failed = [r for r in verify.run_registry(restrict) if not r.passed]
    assert failed == []


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


class TestPcg64:
    """The registry's generator draws what np.random.default_rng draws."""

    @pytest.mark.parametrize("seed", sorted(verify._PCG64_SEEDS))
    def test_seed_states_are_numpys(self, seed):
        state = np.random.default_rng(seed).bit_generator.state["state"]
        assert verify._PCG64_SEEDS[seed] == (state["state"], state["inc"])

    @pytest.mark.parametrize("qs,ps", [((0.3, 0.5, 0.9), (1.0, 2.0)),
                                       ((0.5,), (1.0, 2.0)),
                                       ((0.3, 0.5, 0.9), (1.0,)),
                                       ((0.9,), (15.0,))])
    def test_qpower_draws(self, qs, ps):
        """The q-power check's 100 draws, q and p each restricted or not."""
        def draws(rng):
            return [(float(rng.choice(qs)), float(rng.choice(ps)),
                     float(rng.uniform(0.2, 1.8)),
                     float(rng.uniform(0.5, 2.0)), float(rng.random()))
                    for _ in range(100)]
        assert draws(verify._Pcg64(1234)) == draws(
            np.random.default_rng(1234))

    def test_uniform_tables(self):
        """The boundedness check's dealt 50x5 table and six 8x5 tables."""
        assert np.array_equal(
            verify._Pcg64(20240817).uniform(-1.0, 1.0, size=(50, 5)),
            np.random.default_rng(20240817).uniform(-1.0, 1.0, size=(50, 5)))
        ours, numpys = verify._Pcg64(99), np.random.default_rng(99)
        for _ in range(6):
            assert np.array_equal(ours.uniform(-1.0, 1.0, size=(8, 5)),
                                  numpys.uniform(-1.0, 1.0, size=(8, 5)))

    def test_long_run_of_choices(self):
        """20,000 three-way choices, with doubles between some of them:
        the buffered 32-bit half lasts across choices, never doubles."""
        ours, numpys = verify._Pcg64(99), np.random.default_rng(99)
        seq = (0.3, 0.5, 0.9)
        for i in range(20000):
            assert ours.choice(seq) == numpys.choice(seq)
            if i % 7 == 0:
                assert ours.random() == numpys.random()
