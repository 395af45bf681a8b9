"""The identity registry: how its checks fail, how many kernels they build,
and the test families they evaluate as whole tables."""

import json
import math

import numpy as np
import pytest

from qfrac import operators, verify
from qfrac.cli import main
from qfrac.qcalc import _tabulate


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
