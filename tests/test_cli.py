import builtins
import dataclasses
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import typing

import numpy as np
import pytest

import qfrac
from qfrac import cauchy, cli, exprparse
from qfrac.cli import _report_json, load_config, main
from qfrac.cli import ConfigError, RunConfig
from qfrac.cauchy import SolverReport, q_mittag_leffler
from qfrac.operators import FracOrder, OperatorContext, lemma_beta_integral
from qfrac.qcore import (QParams, SeriesControl, q_gamma, q_number,
                         q_power_general)
from qfrac.verify import run_registry

import expr_reference
import kernel_reference


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SOLVE_CFG = """
# linear test problem
q = 0.5
alpha = 0.5
zeta = 1
rhs = u
r = 10
max_iter = 150
lattice_depth = 8
"""


class TestLoadConfig:
    def test_defaults_and_comments(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "a.cfg", SOLVE_CFG), "solve")
        assert cfg.q == 0.5
        assert cfg.p == 1.0  # default
        assert cfg.b == 1.0  # default
        assert cfg.rhs == "u"
        assert cfg.max_iter == 150

    def test_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg", "q = 0.5\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            load_config(path, "verify")

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg", "q = 0.5\nq = 0.6\n")
        with pytest.raises(ConfigError, match="duplicate key 'q'"):
            load_config(path, "verify")

    def test_command_mismatch(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg",
                         "command = solve\nq = 0.5\nalpha = 0.5\n")
        with pytest.raises(ConfigError, match="command"):
            load_config(path, "eval")

    def test_range_validation(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 1.5\nalpha = 0.5\nm_terms = 2\n")
        with pytest.raises(ConfigError, match="q: must lie in"):
            load_config(path, "ml")

    def test_unknown_command(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg", "q = 0.5\n")
        with pytest.raises(ConfigError, match=re.escape(
                "command: must be one of eval, solve, verify, ml")):
            load_config(path, "bogus")

    def test_missing_required(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg", "q = 0.5\nalpha = 0.5\n")
        with pytest.raises(ConfigError, match="required for command 'solve'"):
            load_config(path, "solve")


def cfg_text(values):
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float)
                   else f"{k} = {v}\n" for k, v in values.items())


# a value of each RunConfig field's type; together a valid solve config
FIELD_SAMPLES = {
    "command": "solve", "q": 0.5, "p": 2.0, "alpha": 0.75, "a": 0.25,
    "b": 2.0, "zeta": 1.5, "rhs": "u - t", "r": 3.0, "lipschitz_a": 1.25,
    "lattice_depth": 4, "tol": 1e-9, "max_iter": 20, "operator": "J",
    "function": "x^2", "m_terms": 3,
}


class TestSchemas:
    """The config keys are RunConfig's fields and the solve report's keys
    are SolverReport's, with nothing listed twice."""

    def test_every_field_is_a_key_of_its_type(self, tmp_path):
        hints = typing.get_type_hints(RunConfig)
        assert [f.name for f in dataclasses.fields(RunConfig)] == list(
            FIELD_SAMPLES)
        cfg = load_config(write_cfg(tmp_path, "a.cfg",
                                    cfg_text(FIELD_SAMPLES)), "solve")
        resolved = cfg.resolved()
        assert resolved == FIELD_SAMPLES
        for key, value in resolved.items():
            assert type(value) is type(FIELD_SAMPLES[key]), key
            assert isinstance(value, hints[key]), key
        # round trip: the resolved view, written back, loads to itself
        assert load_config(write_cfg(tmp_path, "b.cfg", cfg_text(resolved)),
                           "solve") == cfg

    def test_defaults_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "a.cfg", "q = 0.5\n"),
                          "verify")
        assert cfg.resolved() == {
            f.name: f.default for f in dataclasses.fields(RunConfig)
            if f.default not in (None, dataclasses.MISSING)
        } | {"command": "verify", "q": 0.5}

    @pytest.mark.parametrize("key,text,typ", [
        ("lattice_depth", "1.5", "int"), ("max_iter", "1e3", "int"),
        ("q", "half", "float"), ("m_terms", "x", "int")])
    def test_a_value_not_of_its_type(self, tmp_path, key, text, typ):
        path = write_cfg(tmp_path, "a.cfg", f"{key} = {text}\n")
        with pytest.raises(ConfigError,
                           match=f"^{key}: cannot parse '{text}' as {typ}$"):
            load_config(path, "verify")

    def test_solve_report_carries_every_solver_report_field(self, tmp_path,
                                                            capsys):
        record = {f.name for f in dataclasses.fields(SolverReport)} - {
            "solution"}
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        assert main(["solve", "--config", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.keys() == record | {"schema", "config", "table"}
        assert report["table"].keys() == {"x", "u"}
        table = report.pop("table")
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "--config", path, "--out", out]) == 0
        sidecar = json.loads(open(out + ".report.json").read())
        assert main(["solve", "--config", path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.err) == sidecar == report
        assert captured.out == open(out).read()
        assert [tuple(map(float, line.split(",")))
                for line in captured.out.splitlines()[1:]] == list(
                    zip(table["x"], table["u"]))


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg", "nonsense\n")
        assert main(["solve", "--config", path]) == 2
        assert "expected key = value" in capsys.readouterr().err

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"q = 0.5\377\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"cannot read config {path}: 'utf-8' codec can't decode byte "
            f"0xff in position 7: invalid start byte\n")

    def test_malformed_expression_is_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\nzeta = 1\nrhs = t +\n")
        assert main(["solve", "--config", path]) == 2
        assert "1:4: expected expression" in capsys.readouterr().err

    @pytest.mark.parametrize("too_deep, col, at_bound", [
        ("-" * 3000 + "u", 101, "-" * 100 + "u"),
        ("(" * 400 + "u" + ")" * 400, 101, "(" * 100 + "u" + ")" * 100),
        ("u" + "+u" * 1199, 202, "u" + "+0" * 100),
    ], ids=["minuses", "parentheses", "sum"])
    def test_nesting_past_the_bound_is_2(self, tmp_path, capsys, too_deep,
                                         col, at_bound):
        assert exprparse.MAX_DEPTH == 100
        base = "q = 0.5\nalpha = 0.5\nzeta = 1\nr = 10\nmax_iter = 150\nrhs = "
        path = write_cfg(tmp_path, "a.cfg", base + too_deep + "\n")
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == f"1:{col}: expression nests deeper than 100 levels\n"
        # at the bound the same rhs, u, solves to the same report
        reports = []
        for rhs in (at_bound, "u"):
            path = write_cfg(tmp_path, "b.cfg", base + rhs + "\n")
            assert main(["solve", "--config", path, "--format", "json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            assert reports[-1]["config"].pop("rhs") == rhs
        assert reports[0] == reports[1]

    def test_max_iter_exhaustion_is_4(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\nzeta = 1\nrhs = u\n"
                         "r = 10\nmax_iter = 2\n")
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "--config", path, "--out", out]) == 4
        assert "did not converge" in capsys.readouterr().err

    def test_divergent_iteration_names_its_ratio(self, tmp_path, capsys):
        # rhs = u diverges where |lambda| (b**p (1 - q))**alpha = 50**0.5 > 1
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\nzeta = 1\nrhs = u\n"
                         "b = 100\nr = 1e300\nmax_iter = 300\n")
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "--config", path, "--out", out]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "ratio 7.07" in err

    def test_trust_region_exit_is_5(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\nzeta = 1\nrhs = u\n"
                         "r = 0.05\nmax_iter = 50\n")
        assert main(["solve", "--config", path]) == 5
        assert "trust-region exit" in capsys.readouterr().err

    def test_series_budget_exhaustion_is_3(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("QFRAC_MAX_TERMS", "5")
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\nzeta = 1\nrhs = u\nr = 10\n")
        assert main(["solve", "--config", path]) == 3
        assert "non-convergence" in capsys.readouterr().err


class TestEval:
    def test_integral_of_one_matches_closed_form(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\noperator = J\n"
                         "function = 1\nlattice_depth = 4\n")
        assert main(["eval", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        xs = payload["table"]["x"]
        vals = payload["table"]["value"]
        for x, v in zip(xs, vals):
            want = x**0.5 / q_gamma(1.5, 0.5)
            assert v == pytest.approx(want, rel=1e-10)

    def test_caputo_kills_constants(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\noperator = caputo\n"
                         "function = 1\nlattice_depth = 4\n")
        assert main(["eval", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"]["value"] == pytest.approx([0.0] * 4,
                                                          abs=1e-12)

    def test_expression_sees_config_constants(self, tmp_path, capsys):
        # alpha is bound inside the expression language
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\noperator = J\n"
                         "function = alpha*0 + 1\nlattice_depth = 2\n")
        assert main(["eval", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"]["value"][0] == pytest.approx(
            1.0 / q_gamma(1.5, 0.5), rel=1e-10)

    def test_csv_has_full_precision(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\noperator = J\n"
                         "function = 1\nlattice_depth = 3\n")
        out = str(tmp_path / "t.csv")
        assert main(["eval", "--config", path, "--out", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 4
        x0 = float(lines[1].split(",")[0])
        assert x0 == 1.0
        # round-trip through repr must be exact at 17 significant digits
        v0 = lines[1].split(",")[1]
        assert float(v0) == pytest.approx(1.0 / q_gamma(1.5, 0.5), rel=1e-15)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    @pytest.mark.parametrize("operator", ["D", "caputo"])
    def test_rows_whose_qx_is_at_or_below_a(self, tmp_path, capsys, q,
                                            operator):
        """D and caputo are defined at every x > a: a row with qx <= a
        reads its inner sum at qx as int_0^qx - int_0^a, as the reference
        q-difference does. At x = a/q = 0.5 that sum is 0, so D f(x) is
        (1 - q)**(-alpha) x**(-alpha) f(x): 2.5, and 0.375 for caputo's
        f - f(a)."""
        path = write_cfg(tmp_path, "a.cfg",
                         f"q = {q}\nalpha = 0.5\na = 0.25\n"
                         f"operator = {operator}\nfunction = 1 + x^2\n"
                         "lattice_depth = 20\n")
        assert main(["eval", "--config", path, "--format", "json"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        table = json.loads(out.out)["table"]
        below = [(x, v) for x, v in zip(table["x"], table["value"])
                 if q * x <= 0.25]
        assert len(below) == 1
        ctx = OperatorContext(QParams(q), a=0.25)
        ref = (kernel_reference.derivative_rl if operator == "D"
               else kernel_reference.caputo)
        x, v = below[0]
        want = ref(lambda w: 1.0 + w * w, x, 0.5, ctx)
        assert abs(v - want) <= 1e-12 * abs(want)
        if q == 0.5:
            want = 2.5 if operator == "D" else 0.375
            assert x == 0.5 and abs(v - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_x_column_is_the_grid_node(self, tmp_path, capsys, fmt):
        """x is the node b q**k the kernel grid holds, the node the value
        was computed at; a Python b * q**k may be one ulp away from it."""
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.99\nalpha = 0.5\na = 0.25\noperator = D\n"
                         "function = 1 + x^2\nlattice_depth = 12\n")
        assert main(["eval", "--config", path, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            xs = json.loads(out)["table"]["x"]
        else:
            xs = [float(line.split(",")[0])
                  for line in out.splitlines()[1:]]
        assert xs == np.power(0.99, np.arange(12)).tolist()


class TestEvalSweep:
    """`eval` at a = 0 of x**(p lam) against its closed form c x**(p (lam
    +- alpha)), c = [p]_q**(-+alpha) Gamma_Q(lam + 1) / Gamma_Q(lam + 1 +-
    alpha) with Q = q**p and [p]_q = (1 - Q) / (1 - q). J takes the upper
    signs, D and caputo (equal to D on a power that vanishes at 0) the
    lower. Gamma_Q is kernel_reference's, plain products independent of
    qcore (ROADMAP item 31's first step). At q = 0.99, p = 0.5 the sums
    need more terms than the default budget."""

    @pytest.mark.parametrize("operator", ["J", "D", "caputo"])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_rows_are_the_closed_form(self, tmp_path, capsys, monkeypatch,
                                      q, p, alpha, lam, operator):
        path = write_cfg(tmp_path, "a.cfg", cfg_text({
            "q": q, "p": p, "alpha": alpha, "operator": operator,
            "function": f"x^{p * lam!r}", "lattice_depth": 20}))
        argv = ["eval", "--config", path, "--format", "json"]
        if q == 0.99 and p == 0.5:  # Q = 0.995: 6,877 terms
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                f"operator {operator} failed: operator Jackson sum needs "
                "6877 terms, exceeding max_terms=5000; raise "
                "SeriesControl.max_terms (the CLI reads it from "
                "QFRAC_MAX_TERMS)\n")
            monkeypatch.setenv("QFRAC_MAX_TERMS", "40000")
        assert main(argv) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        Q, shift = q**p, (alpha if operator == "J" else -alpha)
        c = (((1.0 - Q) / (1.0 - q)) ** -shift  # [p]_q ** -shift
             * kernel_reference.q_gamma(lam + 1.0, Q)
             / kernel_reference.q_gamma(lam + 1.0 + shift, Q))
        x = np.array(table["x"])
        assert len(x) == 20
        want = c * x ** (p * (lam + shift))
        assert np.max(np.abs(np.array(table["value"]) / want - 1.0)) <= 1e-12


class TestMl:
    def test_zero_terms_is_all_ones(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\nm_terms = 0\n"
                         "lattice_depth = 3\n")
        assert main(["ml", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"]["value"] == [1.0, 1.0, 1.0]

    def test_one_term_manual(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\nm_terms = 1\n"
                         "lattice_depth = 1\n")
        assert main(["ml", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = 1.0 + 1.0 / q_gamma(1.5, 0.5)
        assert payload["table"]["value"][0] == pytest.approx(want, rel=1e-13)

    def test_m_terms_is_a_term_budget(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, "a.cfg",
                         "q = 0.5\nalpha = 0.5\nm_terms = 6000\n")
        assert main(["ml", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "exceeding max_terms=5000" in err and "QFRAC_MAX_TERMS" in err
        monkeypatch.setenv("QFRAC_MAX_TERMS", "8000")
        assert main(["ml", "--config", path]) == 0

    def test_nodes_past_the_radius_exit_3(self, tmp_path, capsys):
        # at q = 0.5, p = 1 the series converges for x < 2; at 400 terms
        # its sum would leave float range, so the radius is checked first
        for m_terms in (71, 400):
            path = write_cfg(tmp_path, "a.cfg", "q = 0.5\nalpha = 0.5\n"
                             f"b = 100\nm_terms = {m_terms}\n")
            out = tmp_path / "out.csv"
            assert main(["ml", "--config", path, "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err == ("q-Mittag-Leffler series diverges: node x=100.0 "
                           "has x**p (1 - q) >= 1\n"), m_terms
            assert not out.exists()

    def test_nodes_inside_the_radius_keep_their_values(self, tmp_path,
                                                        capsys):
        path = write_cfg(tmp_path, "a.cfg", "q = 0.5\nalpha = 0.5\n"
                         "b = 1.9\nm_terms = 71\nlattice_depth = 4\n")
        assert main(["ml", "--config", path, "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        assert table["value"] == [
            q_mittag_leffler(x, 71, FracOrder(0.5), QParams(0.5))
            for x in table["x"]]


class TestSolve:
    def test_linear_solution_matches_ml(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        assert main(["solve", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        ml_path = write_cfg(tmp_path, "m.cfg",
                            "q = 0.5\nalpha = 0.5\nm_terms = 120\n"
                            "lattice_depth = 8\n")
        assert main(["ml", "--config", ml_path, "--format", "json"]) == 0
        ml_payload = json.loads(capsys.readouterr().out)
        for u, e in zip(payload["table"]["u"], ml_payload["table"]["value"]):
            assert u == pytest.approx(e, abs=1e-8)

    def test_q_099_p_5_converges(self, tmp_path, capsys):
        # the Picard engine's FFT rows keep their digits at p != 1
        path = write_cfg(tmp_path, "s.cfg",
                         "q = 0.99\nalpha = 0.5\nzeta = 1\nrhs = u\n"
                         "r = 10\np = 5\n")
        assert main(["solve", "--config", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    def test_csv_writes_report_sidecar(self, tmp_path):
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "--config", path, "--out", out]) == 0
        assert open(out).readline().strip() == "x,u"
        report = json.loads(open(out + ".report.json").read())
        assert report["converged"] is True
        assert "table" not in report

    def test_bound_past_float_range_is_null(self, tmp_path, capsys):
        base = ("q = 0.5\nalpha = 0.5\nzeta = 1\nrhs = u\nr = 10\n"
                "max_iter = 150\n")
        payloads = []
        for a_const in ("1e5", "1"):
            path = write_cfg(tmp_path, "s.cfg",
                             f"{base}lipschitz_a = {a_const}\n")
            assert main(["solve", "--config", path, "--format", "json"]) == 0
            text = capsys.readouterr().out
            assert "Infinity" not in text and "NaN" not in text
            payloads.append(json.loads(text))
        assert payloads[0]["converged"] is True
        assert None in payloads[0]["apriori_bounds"]
        assert payloads[0]["table"] == payloads[1]["table"]

    def test_report_carries_the_run_record(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        assert main(["solve", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "--config", path, "--out", out]) == 0
        sidecar = json.loads(open(out + ".report.json").read())
        record = {"stop_reason": "converged", "n_nodes": 53,
                  "n_active": 53, "sum_length": 53}
        for report in (payload, sidecar):
            assert {k: report[k] for k in record} == record

    def test_report_carries_rhs_evals(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG + "lipschitz_a = 1\n")
        assert main(["solve", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "--config", path, "--out", out]) == 0
        sidecar = json.loads(open(out + ".report.json").read())
        # 484 points in 71 Picard steps, 17 u samples at each of 64 nodes
        assert payload["rhs_evals"] == sidecar["rhs_evals"] == 484 + 1088

    @pytest.mark.parametrize("q,max_terms,n_nodes,a", [
        (0.995, 8000, 6894, 0.0), (0.995, 8000, 6894, 0.25),
        # the q-products need 39127 factors, the Jackson sums 34525 terms
        (0.999, 40000, 34525, 0.0), (0.999, 40000, 34525, 0.25),
    ], ids=["0.0", "0.25", "q0.999-0.0", "q0.999-0.25"])
    def test_q_near_one_with_raised_term_budget(self, tmp_path, capsys,
                                                monkeypatch, q, max_terms,
                                                n_nodes, a):
        monkeypatch.setenv("QFRAC_MAX_TERMS", str(max_terms))
        path = write_cfg(tmp_path, "s.cfg",
                         f"q = {q}\nalpha = 0.5\nzeta = 1\nrhs = u\n"
                         f"r = 10\na = {a}\n")
        assert main(["solve", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["n_nodes"] == n_nodes
        if a == 0.0:
            order, params = FracOrder(0.5), QParams(q)
            ctrl = SeriesControl(max_terms=max_terms)
            m = payload["iterations_used"]
            for x, u in zip(payload["table"]["x"], payload["table"]["u"]):
                assert abs(u - q_mittag_leffler(x, m, order, params,
                                                ctrl)) <= 1e-10

    def test_deterministic_output(self, tmp_path):
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["solve", "--config", path, "--out", out1,
                     "--format", "json"]) == 0
        assert main(["solve", "--config", path, "--out", out2,
                     "--format", "json"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_output_files_get_the_modes_open_would_leave(self, tmp_path,
                                                         umask):
        """A new --out file and its sidecar get 0666 less the umask, as
        open(path, "w") gives them; an existing one keeps its mode."""
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        outs = [tmp_path / "sol.csv", tmp_path / "sol.csv.report.json"]

        def modes():
            assert main(["solve", "--config", path, "--out",
                         str(outs[0])]) == 0
            return [stat.S_IMODE(p.stat().st_mode) for p in outs]

        saved = os.umask(umask)
        try:
            created = modes()
            outs[0].chmod(0o640)
            outs[1].chmod(0o604)
            overwritten = modes()
        finally:
            os.umask(saved)
        assert created == [0o666 & ~umask] * 2
        assert overwritten == [0o640, 0o604]

    def test_out_through_a_symlink_replaces_its_target(self, tmp_path):
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target.name)
        assert main(["solve", "--config", path, "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("x,u\n")
        # the sidecar goes beside the name given
        assert json.loads((tmp_path / "link.csv.report.json").read_text())[
            "converged"] is True

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_new_out_leaves_the_umask_alone(self, tmp_path, monkeypatch,
                                            fmt):
        """Reading the umask sets it, for every thread of the process."""
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)

        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        assert main(["solve", "--config", path, "--out",
                     str(tmp_path / f"sol.{fmt}"), "--format", fmt]) == 0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_leaves_no_temporary_file(self, tmp_path, monkeypatch, fmt):
        """Each write goes through its own hidden file beside the target,
        new or replacing, and leaves only the table and the sidecar."""
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        out = tmp_path / f"sol.{fmt}"
        made = []

        def spy(file, mode="r", *args, **kwargs):
            if mode == "x":
                made.append(file)
            return builtins.open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", spy, raising=False)
        for _ in range(2):
            assert main(["solve", "--config", path, "--out", str(out),
                         "--format", fmt]) == 0
        files = [out.name] + [f"{out.name}.report.json"] * (fmt == "csv")
        assert sorted(os.listdir(tmp_path)) == sorted(["s.cfg", *files])
        assert len(set(made)) == len(made) == 2 * len(files)
        for tmp in made:
            assert os.path.dirname(tmp) == str(tmp_path)
            assert os.path.basename(tmp).startswith(".qfrac-")

    def test_temporary_names_a_crash_left_are_passed_over(self, tmp_path,
                                                          monkeypatch):
        """A file or a link at a temporary name is neither opened nor
        followed nor removed, whether the write succeeds or fails."""
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        out = tmp_path / "sol.json"
        stale = tmp_path / f".qfrac-{os.getpid()}-0"
        stale.write_text("stale\n")
        link = tmp_path / f".qfrac-{os.getpid()}-1"
        link.symlink_to("elsewhere")
        monkeypatch.setattr(cli, "_TMP_IDS", itertools.count())
        args = ["solve", "--config", path, "--out", str(out), "--format",
                "json"]
        assert main(args) == 0
        assert json.loads(out.read_text())["converged"] is True
        left = sorted(os.listdir(tmp_path))
        assert left == sorted(["s.cfg", "sol.json", stale.name, link.name])
        assert stale.read_text() == "stale\n"
        assert os.readlink(link) == "elsewhere"

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        monkeypatch.setattr(cli, "_TMP_IDS", itertools.count())
        assert main(args) == 2
        assert sorted(os.listdir(tmp_path)) == left
        assert stale.read_text() == "stale\n"

    def test_out_to_a_fifo_writes_into_it(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["solve", "--config", path, "--out", str(fifo),
                         "--format", "json"]) == 0
            chunks = []
            while chunk := os.read(reader, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert main(["solve", "--config", path, "--format", "json"]) == 0
        assert b"".join(chunks).decode() == capsys.readouterr().out

    def test_csv_out_to_a_fifo_sends_its_report_to_stderr(self, tmp_path,
                                                          capsys):
        """A FIFO has no place beside it for the sidecar: the report goes
        to stderr, as without --out."""
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["solve", "--config", path, "--out", str(fifo),
                         "--format", "csv"]) == 0
            chunks = []
            while chunk := os.read(reader, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(reader)
        err = capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo",
                                                               "s.cfg"]
        assert main(["solve", "--config", path, "--format", "csv"]) == 0
        plain = capsys.readouterr()
        assert b"".join(chunks).decode() == plain.out
        assert err == plain.err
        assert json.loads(err)["converged"] is True

    def test_out_with_the_longest_name_open_takes(self, tmp_path):
        """The temporary file's name is short: it never makes a write fail
        that open(path, "w") would make."""
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        out = tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 5)
                          + ".json")
        assert main(["solve", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        assert json.loads(out.read_text())["converged"] is True

    @pytest.mark.parametrize("name,reason", [
        ("missing/x.json", "No such file or directory"),
        ("adir", "Is a directory"),
    ], ids=["missing-directory", "a-directory"])
    def test_out_that_cannot_be_written_is_2(self, tmp_path, capsys, name,
                                             reason):
        path = write_cfg(tmp_path, "s.cfg", SOLVE_CFG)
        (tmp_path / "adir").mkdir()
        out = str(tmp_path / name)
        assert main(["solve", "--config", path, "--out", out,
                     "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            f"--out: cannot write {out}: {reason}\n")


class TestVerify:
    def test_restricted_registry_passes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "v.cfg", "q = 0.5\n")
        assert main(["verify", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in payload["identity_results"])
        assert len(payload["identity_results"]) == 7

    def test_small_y_over_x_passes(self, tmp_path):
        """At q = 0.3, p = 2 the q-power check meets y**p << x**p, where a
        plain difference of two O(1) q-powers cancels."""
        assert all(r.passed for r in run_registry({"q": 0.3, "p": 2.0}))
        path = write_cfg(tmp_path, "v.cfg", "q = 0.3\np = 2\n")
        assert main(["verify", "--config", path]) == 0

    @pytest.mark.parametrize("text,restrict", [
        ("", {}), ("q = 0.5\n", {"q": 0.5}), ("p = 1\n", {"p": 1.0}),
        ("q = 0.5\np = 1\n", {"q": 0.5, "p": 1.0}),
        ("q = 0.3\np = 2\nb = 4\n", {"q": 0.3, "p": 2.0})])
    def test_grid_is_restricted_where_the_file_sets_q_or_p(
            self, tmp_path, capsys, monkeypatch, text, restrict):
        """p = 1, the default, still restricts when the file sets it."""
        seen = []
        monkeypatch.setattr("qfrac.cli.run_registry",
                            lambda given, ctrl: seen.append(given) or [])
        assert main(["verify", "--config",
                     write_cfg(tmp_path, "v.cfg", text)]) == 0
        assert seen == [restrict]
        assert json.loads(capsys.readouterr().out)["config"]["p"] == (
            restrict.get("p", 1.0))


EVAL_BASE = "q = 0.5\nalpha = 0.5\n"
SOLVE_BASE = "q = 0.5\nalpha = 0.5\nzeta = 1\nr = 10\n"
# converges at once to u = 1, but its sampled k_estimate is inf
NON_FINITE_REPORT_CFG = SOLVE_BASE + "rhs = (u - 1)*1e308*10\n"
NON_FINITE_REPORT_MESSAGE = (
    "numerical error: report holds a non-finite number: Out of range float "
    "values are not JSON compliant: inf")


class TestFailurePaths:
    """Every failure ends in its documented exit code with a one-line
    message, never a traceback or a file holding NaN."""

    @pytest.mark.parametrize("command,cfg,max_terms,code,message", [
        ("solve", SOLVE_BASE + "rhs = exp(u)^400\n", None, 3,
         "evaluation error: "),
        ("eval", EVAL_BASE + "operator = J\nfunction = exp(x*1000)\n", None,
         3, "evaluation error: exp of 1000.0 is out of range"),
        ("eval", EVAL_BASE + "operator = caputo\nfunction = x^(-0.5)\n",
         None, 3, "evaluation error: zero to a negative power"),
        ("eval", EVAL_BASE + "operator = J\n"
         "function = exp(700*x)*exp(700*x)\n", None, 3,
         "operator J gave inf at node x=1"),
        ("solve", SOLVE_BASE + "rhs = (u*1e308*10)*0\n", None, 3,
         "Picard step 1 gave a non-finite value at node t=1.0"),
        # the step whose iterate leaves the trust region raises, also the
        # last step max_iter allows
        ("solve", EVAL_BASE + "zeta = 1\nrhs = u\nr = 0.01\nmax_iter = 1\n",
         None, 5, "trust-region exit: iterate left trust region at node "
         "t=1.0 (value 2.0859231828858142)"),
        ("solve", SOLVE_BASE + "rhs = u\n", "0", 2, "QFRAC_MAX_TERMS: "),
        ("solve", SOLVE_BASE + "rhs = u\nlattice_depth = 100\n", None, 2,
         "lattice_depth: "),
        ("solve", "q = 0.995\nalpha = 0.5\nzeta = 1\nrhs = u\n", None, 3,
         "numerical non-convergence: operator Jackson sum needs 6894 terms, "
         "exceeding max_terms=5000; raise SeriesControl.max_terms (the CLI "
         "reads it from QFRAC_MAX_TERMS)"),
        ("eval", "q = 0.995\nalpha = 0.5\noperator = J\nfunction = x\n",
         None, 3, "operator J failed: operator Jackson sum needs 6894 "
         "terms, exceeding max_terms=5000; raise SeriesControl.max_terms "
         "(the CLI reads it from QFRAC_MAX_TERMS)"),
        # enough for the Jackson sums (34525 terms), not for the q-products
        ("solve", "q = 0.999\nalpha = 0.5\nzeta = 1\nrhs = u\nr = 10\n",
         "36000", 3, "numerical non-convergence: q-product with base 0.9995 "
         "and q=0.999 needs 39127 factors, exceeding max_terms=36000; raise "
         "SeriesControl.max_terms (the CLI reads it from QFRAC_MAX_TERMS)"),
        # config floats the library cannot take
        *[(command, base + "p = inf\n", None, 2, "p: must be finite, got inf")
          for command, base in [("solve", SOLVE_BASE + "rhs = u\n"),
                                ("eval", EVAL_BASE + "operator = J\n"
                                                     "function = x\n"),
                                ("ml", EVAL_BASE + "m_terms = 2\n"),
                                ("verify", "q = 0.5\n")]],
        *[(command, base + "p = 1e6\n", None, 2,
           f"p: q**p underflows to 0 at q={q}, p=1000000.0")
          for command, base, q in [("solve", SOLVE_BASE + "rhs = u\n", 0.5),
                                   ("ml", EVAL_BASE + "m_terms = 2\n", 0.5),
                                   ("verify", "q = 0.5\n", 0.5),
                                   ("verify", "", 0.3)]],
        *[(command, base + "p = 1e-300\n", None, 2,
           f"p: q**p rounds to 1 at q={q}, p=1e-300")
          for command, base, q in [("solve", SOLVE_BASE + "rhs = u\n", 0.5),
                                   ("eval", EVAL_BASE + "operator = J\n"
                                                        "function = x\n", 0.5),
                                   ("ml", EVAL_BASE + "m_terms = 2\n", 0.5),
                                   ("verify", "q = 0.5\n", 0.5),
                                   ("verify", "", 0.3)]],
        # terms of 1/x do not decay: the sums over [0, x] (and [0, a]) diverge
        *[("eval", EVAL_BASE + f"operator = {op}\nfunction = 1/x\n{a}", None,
           3, f"operator {op} failed: Jackson sum at node t=1.0 decays too "
           f"slowly: its last two terms have ratio ")
          for op, a in [("J", ""), ("D", ""), ("caputo", "a = 0.25\n")]],
        ("solve", "q = 0.5\nalpha = 0.5\nzeta = inf\nrhs = u\n", None, 2,
         "zeta: must be finite, got inf"),
        ("solve", EVAL_BASE + "zeta = 1\nrhs = u\nr = -inf\n", None, 2,
         "r: must be finite, got -inf"),
        ("solve", EVAL_BASE + "zeta = 1\nrhs = u\nr = 1e308\n", None, 2,
         "r: the trust region [zeta - r, zeta + r] is wider than float "
         "range, got zeta=1.0, r=1e+308"),
        ("solve", SOLVE_BASE + "rhs = u\ntol = inf\n", None, 2,
         "tol: must be finite, got inf"),
        ("solve", SOLVE_BASE + "rhs = u\nb = inf\n", None, 2,
         "b: must be finite, got inf"),
        ("eval", "q = nan\nalpha = 0.5\noperator = J\nfunction = x\n",
         None, 2, "q: must be finite, got nan"),
        # a deep D row whose value x**(-p alpha) is past float range: the
        # row head, that same power, overflows
        ("eval", "q = 0.9\nalpha = 0.5\noperator = D\nfunction = 1\n"
         "p = 5\nlattice_depth = 3000\n", None, 3, "operator D failed: "
         "kernel row factor t**-2.5 leaves float range at p=5.0; first at "
         "node t=4.825729105966512e-124"),
        # verify's own grid at p = 20: the corollary's integrand
        # w**(1 - p) D_q f
        ("verify", "p = 20\n", None, 3, "numerical error: corollary "
         "integrand factor t**-19.0 leaves float range at p=20.0; first at "
         "node t="),
        # verify at p = 500 and at q = 0.9, p = 2000: the lemma's closed
        # form x**(p (alpha + lambda)) in the q-power, itself past float range
        ("verify", "p = 500\n", None, 3, "numerical error: q-power factor "
         "t**1100.0 leaves float range at p=500.0; first at node t=2.0"),
        ("verify", "q = 0.9\np = 2000\n", None, 3, "numerical error: q-power "
         "factor t**1600.0 leaves float range at p=2000.0; first at node "
         "t=2.0"),
        # verify at p = 0.05: at q = 0.9 the lemma's q-Gamma products
        # Gamma_Q(0.3), Q = q**p, need more factors than the budget
        ("verify", "p = 0.05\n", None, 3, "numerical error: q-product with "
         "base 0.998421 and q=0.994746 needs 7434 factors, exceeding "
         "max_terms=5000; raise SeriesControl.max_terms (the CLI reads it "
         "from QFRAC_MAX_TERMS)"),
        # a huge b: the kernel's row factor t**(p alpha) at the top node,
        # where the value b**(p alpha) is itself past float range
        ("solve", SOLVE_BASE + "rhs = u\np = 4\nb = 1e200\n", None, 3,
         "numerical non-convergence: kernel row factor t**2.0 leaves float "
         "range at p=4.0; first at node t=1e+200"),
        ("eval", EVAL_BASE + "operator = J\nfunction = 1\np = 4\n"
         "b = 1e200\n", None, 3, "operator J failed: kernel row factor "
         "t**2.0 leaves float range at p=4.0; first at node t=1e+200"),
        # a checked power times a table: the kernel's row factor times its
        # sums of f at a huge b, and D's value, its coefficient times the
        # row factor times its sums of a huge f, first past range at 0.125
        ("eval", EVAL_BASE + "operator = J\nfunction = 1 + x\np = 2\n"
         "b = 1e200\n", None, 3, "operator J failed: kernel row factor "
         "t**1.0 times its table leaves float range at p=2.0; first at node "
         "t=1e+200"),
        ("eval", EVAL_BASE + "operator = D\nfunction = 1e300*x\np = 20\n"
         "lattice_depth = 20\n", None, 3, "operator D failed: kernel row "
         "factor t**-10.0 times its table leaves float range at p=20.0; first "
         "at node t=0.125"),
        # ml: a node past the series radius, a series term x**(p n alpha)
        # inside it, and m_terms past the budget
        ("ml", EVAL_BASE + "p = 50\nb = 1e10\nm_terms = 10\n", None, 3,
         "q-Mittag-Leffler series diverges: node x=10000000000.0 has "
         "x**p (1 - q) >= 1"),
        ("ml", EVAL_BASE + "b = 1.9\nm_terms = 3000\n", None, 3,
         "q-Mittag-Leffler evaluation failed: series term factor t**1106.0 "
         "leaves float range at p=1.0; first at node t=1.9"),
        ("ml", EVAL_BASE + "m_terms = 6000\n", None, 3,
         "q-Mittag-Leffler evaluation failed: q-Mittag-Leffler partial sum "
         "needs m=6000 terms, exceeding max_terms=5000; raise "
         "SeriesControl.max_terms (the CLI reads it from QFRAC_MAX_TERMS)"),
        # a budget below the 3 terms every sum holds past its precision
        *[("solve", SOLVE_BASE + "rhs = u\n", budget, 2, "QFRAC_MAX_TERMS: "
           "max_terms must be >= 3") for budget in ("1", "2")],
        # a huge rhs: the row head times the sums of the rhs overflows
        ("solve", SOLVE_BASE + "p = 2\nb = 100\nrhs = u*1e307\n", None, 3,
         "numerical non-convergence: Picard step 1 gave a non-finite value "
         "at node t=100.0"),
        # the range checks of the config's keys
        ("solve", "q = 0.5\nalpha = 1.5\nzeta = 1\nrhs = u\n", None, 2,
         "alpha: must lie in (0, 1), got 1.5"),
        *[("solve", SOLVE_BASE + "rhs = u\n" + line, None, 2, message)
          for line, message in [
              ("p = -1\n", "p: must be positive, got -1.0"),
              ("a = -0.5\n", "a: must be nonnegative, got -0.5"),
              ("a = 0.5\nb = 0.5\n", "b: must exceed a, got a=0.5, b=0.5"),
              ("lattice_depth = 0\n", "lattice_depth: must be >= 1, got 0"),
              ("tol = 0\n", "tol: must be positive, got 0.0"),
              ("max_iter = 0\n", "max_iter: must be >= 1, got 0"),
              ("lipschitz_a = 0\n", "lipschitz_a: must be positive, got 0.0"),
          ]],
        ("solve", EVAL_BASE + "zeta = 1\nrhs = u\nr = 0\n", None, 2,
         "r: must be positive, got 0.0"),
        ("eval", EVAL_BASE + "operator = K\nfunction = x\n", None, 2,
         "operator: must be one of J, D, caputo"),
        ("ml", EVAL_BASE + "m_terms = -1\n", None, 2,
         "m_terms: must be nonnegative, got -1"),
        ("solve", SOLVE_BASE + "rhs = u\n", "abc", 2,
         "QFRAC_MAX_TERMS: cannot parse 'abc' as int"),
    ])
    def test_exit_code_and_one_line(self, tmp_path, capsys, monkeypatch,
                                    command, cfg, max_terms, code, message):
        if max_terms is not None:
            monkeypatch.setenv("QFRAC_MAX_TERMS", max_terms)
        path = write_cfg(tmp_path, "a.cfg", cfg)
        out = tmp_path / "out.json"
        assert main([command, "--config", path, "--out", str(out),
                     "--format", "json"]) == code
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_report_exits_3_and_writes_nothing(self, tmp_path,
                                                          capsys, fmt):
        """json's ValueError on a non-finite number ends the run, before
        the table or its CSV sidecar is written."""
        path = write_cfg(tmp_path, "a.cfg", NON_FINITE_REPORT_CFG)
        out = tmp_path / "out.dat"
        assert main(["solve", "--config", path, "--out", str(out),
                     "--format", fmt]) == 3
        assert capsys.readouterr().err == NON_FINITE_REPORT_MESSAGE + "\n"
        assert list(tmp_path.glob("out.dat*")) == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bound_of_zero_under_a_residual_writes_null_slack(
            self, tmp_path, capsys, monkeypatch, fmt):
        """A converged solve writes an infinite bound_slack, a bound of 0
        under a residual, as null."""
        solve = cauchy.solve
        monkeypatch.setattr(cauchy, "solve", lambda *args, **kwargs: (
            dataclasses.replace(solve(*args, **kwargs), bound_slack=math.inf)))
        record = self.zero_at_the_report_node(tmp_path, capsys, fmt)
        assert record["bound_slack"] is None and record["converged"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_zero_at_the_one_report_node_writes_finite_k_and_slack(
            self, tmp_path, capsys, fmt):
        """|t - 1| is 0 at the one report node, but k_estimate samples
        (0, 1], so the first residual of 0.246 sits under a bound."""
        record = self.zero_at_the_report_node(tmp_path, capsys, fmt)
        assert record["k_estimate"] == 1.0 and record["residuals"][0] > 0.0
        assert record["bound_slack"] == 0.0 and record["converged"]

    @staticmethod
    def zero_at_the_report_node(tmp_path, capsys, fmt):
        """The report of a solve of |t - 1| on the one-node lattice."""
        path = write_cfg(tmp_path, "a.cfg", "q = 0.5\nalpha = 0.5\nzeta = 1"
                         "\nrhs = abs(t - 1)\nlattice_depth = 1\n")
        out = tmp_path / f"out.{fmt}"
        assert main(["solve", "--config", path, "--out", str(out),
                     "--format", fmt]) == 0
        assert capsys.readouterr().err == ""
        report = out if fmt == "json" else tmp_path / f"out.{fmt}.report.json"
        return json.loads(report.read_text())

    def test_depth_message_names_the_largest_depth(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "a.cfg",
                         SOLVE_BASE + "rhs = u\nlattice_depth = 100\n")
        assert main(["solve", "--config", path]) == 2
        assert "largest depth it allows is 53" in capsys.readouterr().err

    @staticmethod
    def ends_cleanly(tmp_path, capsys, command, cfg, name):
        """cfg run in both formats (RuntimeWarnings are errors): a
        documented exit code, one stderr line on failure, and no NaN or
        inf in any file written."""
        def no_constant(constant):
            raise AssertionError(f"{constant} in a JSON output")

        path = write_cfg(tmp_path, "a.cfg", cfg)
        for fmt in ("json", "csv"):
            out = tmp_path / f"{name}.{fmt}"
            code = main([command, "--config", path, "--out", str(out),
                         "--format", fmt])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4, 5), (cfg, fmt, err)
            assert err.count("\n") == (code != 0), (cfg, fmt, err)
            for written in tmp_path.glob(f"{out.name}*"):
                text = written.read_text()
                if command == "verify" or written.suffix == ".json":
                    json.loads(text, parse_constant=no_constant)
                else:
                    values = [float(v) for line in text.splitlines()[1:]
                              for v in line.split(",")]
                    assert all(map(math.isfinite, values)), written

    @pytest.mark.parametrize("b", [1.0, 1e200])
    @pytest.mark.parametrize("q", [0.5, 0.99])
    @pytest.mark.parametrize("p", [0.5, 2.0, 20.0, 500.0])
    @pytest.mark.parametrize("a", [0.0, 0.25])
    def test_solve_sweep_ends_cleanly(self, tmp_path, capsys, a, p, q, b):
        """Huge rhs values, p and b end cleanly."""
        for i, rhs in enumerate(("u", "u*1e307", "exp(u)", "-u*1e300")):
            self.ends_cleanly(tmp_path, capsys, "solve",
                              f"q = {q}\nalpha = 0.5\nzeta = 1\nr = 10\n"
                              f"p = {p}\na = {a}\nb = {b}\nrhs = {rhs}\n"
                              "lattice_depth = 6\n", f"out-{i}")

    @pytest.mark.parametrize("b", [1.0, 1e200])
    @pytest.mark.parametrize("q", [0.5, 0.99])
    @pytest.mark.parametrize("p", [0.5, 2.0, 20.0, 500.0])
    def test_other_commands_sweep_ends_cleanly(self, tmp_path, capsys, p, q,
                                               b):
        """ml, verify, and eval of each operator on a plain and a huge
        function, at a = 0 and at a = 0.25 (the lower-limit sums), end
        cleanly at huge p and b."""
        base = f"q = {q}\nalpha = 0.5\np = {p}\nb = {b}\nlattice_depth = 6\n"
        runs = [("ml", "m_terms = 5\n"), ("verify", "")] + [
            ("eval", f"operator = {op}\nfunction = {f}\na = {a}\n")
            for op in ("J", "D", "caputo") for f in ("1 + x", "-1e300*x^2")
            for a in (0.0, 0.25)]
        for i, (command, keys) in enumerate(runs):
            self.ends_cleanly(tmp_path, capsys, command, base + keys,
                              f"out-{i}")


class TestLargeP:
    """At p > 1 the kernel's row head is one power of its node, so a row
    holds every value a float can: deep rows hold their closed forms, and
    a head leaves float range only where the value does (RuntimeWarnings
    are errors)."""

    @pytest.mark.parametrize("function,lam,p,depth,last", [
        ("1", 0.0, 20.0, 60, 3),  # 1.8e-172 ... 1.7e-178, where w**19 is 0
        ("x", 1.0 / 200.0, 200.0, 12, 11),  # t**(1 + p beta) is t**-99.0
    ])
    def test_eval_j_rows_hold_the_closed_form(self, tmp_path, function, lam,
                                              p, depth, last):
        path = write_cfg(tmp_path, "a.cfg", EVAL_BASE + (
            f"operator = J\nfunction = {function}\np = {p}\n"
            f"lattice_depth = {depth}\n"))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        table = json.loads(out.read_text())["table"]
        params = QParams(0.5, p)
        x, got = (np.array(table[key][-last:]) for key in ("x", "value"))
        want = (lemma_beta_integral(0.0, x, 0.5, lam, params)
                * q_number(p, 0.5) ** 0.5 / q_gamma(0.5, params.qp))
        normal = want >= np.finfo(float).tiny
        assert normal.sum() >= 2
        assert np.all(np.abs(got - want)[normal] <= 1e-13 * want[normal])

    # caputo of x, not 1 + x: below x = 1e-16, f(x) - f(0) cancels to 0
    @pytest.mark.parametrize("operator,function", [("D", "1 + x"),
                                                   ("caputo", "x")])
    @pytest.mark.parametrize("p,depth", [(20.0, 55), (500.0, 4)])
    def test_eval_derivative_rows_hold_the_closed_form(
            self, tmp_path, operator, function, p, depth):
        """D of 1 + x and caputo of x, where the outer x**(1 - p) alone
        leaves float range at the deep nodes: D 1 = C_0 x**(-p alpha) and
        D x = C_1 x**(1 - p alpha) (the monomial w**(p lam), lam = 1/p)."""
        path = write_cfg(tmp_path, "a.cfg", EVAL_BASE + (
            f"operator = {operator}\nfunction = {function}\np = {p}\n"
            f"lattice_depth = {depth}\n"))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        table = json.loads(out.read_text())["table"]
        Q, lam = QParams(0.5, p).qp, 1.0 / p
        x, got = (np.array(table[key]) for key in ("x", "value"))
        want = (q_number(p, 0.5) ** 0.5 * q_gamma(lam + 1.0, Q)
                / q_gamma(lam + 0.5, Q) * x ** (1.0 - p / 2.0))
        if operator == "D":
            want += q_number(p, 0.5) ** 0.5 / q_gamma(0.5, Q) * x ** (-p / 2)
        assert len(got) == depth
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    # above a the lower sums' head t**(p beta) and (a/t)**(p - 1) <= 1
    # stay apart: their product t**(p beta + 1 - p) alone would leave
    # float range at 0.0156 (p = 130) and 0.387 (p = 500)
    @pytest.mark.parametrize("q,p,a,depth", [
        (0.5, 130.0, 0.01, 6), (0.9, 500.0, 0.25, 12),
        (0.5, 130.0, 0.001, 9),  # x**(1 - p) alone leaves range at 0.0039
    ])
    def test_eval_d_above_a_is_the_q_power(self, tmp_path, q, p, a, depth):
        """D^alpha 1 = [p]_q**alpha / Gamma_Q(1-alpha) (x**p - a**p)^(-alpha)
        at a large p."""
        path = write_cfg(tmp_path, "a.cfg", (
            f"q = {q}\nalpha = 0.5\na = {a}\noperator = D\nfunction = 1\n"
            f"p = {p}\nlattice_depth = {depth}\n"))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        table = json.loads(out.read_text())["table"]
        params = QParams(q, p)
        x, got = (np.array(table[key]) for key in ("x", "value"))
        want = (q_number(p, q) ** 0.5 / q_gamma(0.5, params.qp)
                * q_power_general(x, a, -0.5, params))
        assert len(got) == depth
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    # the lower sums share the row head t**535 and take (a/t)**p <= 1: a
    # head of their own, t**-535, would leave float range at 0.263
    @pytest.mark.parametrize("q,p,a,depth", [(0.99, 1070.0, 0.25, 200)])
    def test_eval_j_above_a_is_the_q_power(self, tmp_path, q, p, a, depth):
        """J^alpha 1 = [p]_q**(-alpha) / Gamma_Q(1+alpha) (x**p -
        a**p)^(alpha) on every row whose value is a normal float."""
        path = write_cfg(tmp_path, "a.cfg", (
            f"q = {q}\nalpha = 0.5\na = {a}\noperator = J\nfunction = 1\n"
            f"p = {p}\nlattice_depth = {depth}\n"))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        table = json.loads(out.read_text())["table"]
        params = QParams(q, p)
        x, got = (np.array(table[key]) for key in ("x", "value"))
        want = (q_number(p, q) ** -0.5 / q_gamma(1.5, params.qp)
                * q_power_general(x, a, 0.5, params))
        normal = want >= np.finfo(float).tiny
        assert normal.sum() >= 130 and np.all(got != 0.0)
        assert np.all(np.abs(got - want)[normal] <= 1e-15 * want[normal])

    def test_verify_at_q_half_p_20_passes(self, tmp_path, capsys):
        """The inversion's D rows reach 5.6e-17, where x**(1 - p) alone
        leaves float range, and caputo_equivalence compares its values
        (up to 3.8e46) relatively."""
        path = write_cfg(tmp_path, "v.cfg", "q = 0.5\np = 20\n")
        assert main(["verify", "--config", path]) == 0
        results = json.loads(capsys.readouterr().out)["identity_results"]
        assert all(r["passed"] for r in results)

    def test_solve_at_p_50_converges_to_the_series(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg", SOLVE_BASE + (
            "rhs = u\np = 50\nmax_iter = 300\n"))
        out = tmp_path / "out.json"
        assert main(["solve", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        report = json.loads(out.read_text())
        assert report["converged"]
        m, table = report["iterations_used"], report["table"]
        for x, u in zip(table["x"], table["u"]):
            assert abs(u - q_mittag_leffler(x, m, FracOrder(0.5),
                                            QParams(0.5, 50.0))) <= 1e-15


def test_counting_wrapper_leaves_bytes_unchanged(tmp_path, monkeypatch):
    """Wrapping the parsed expression, as a tracer does, changes no output
    byte of eval or solve."""
    import qfrac.cli as cli

    configs = {
        "eval": "q = 0.9\nalpha = 0.4\na = 0.25\noperator = J\n"
                "function = 1 + x^2 - sin(x)\n",
        "solve": SOLVE_CFG,
    }

    def run(tag):
        outputs = {}
        for command, text in configs.items():
            path = write_cfg(tmp_path, f"{command}.cfg", text)
            out = tmp_path / f"{command}-{tag}.json"
            assert main([command, "--config", path, "--out", str(out),
                         "--format", "json"]) == 0
            outputs[command] = out.read_bytes()
        return outputs

    plain = run("plain")
    calls = []
    compiled = cli._compiled_function

    def counting(*args):
        fn = compiled(*args)

        def wrapped(*values):
            calls.append(1)
            return fn(*values)

        def table(*arrays):
            calls.append(1)
            return fn.table(*arrays)

        wrapped.table = table
        return wrapped

    monkeypatch.setattr(cli, "_compiled_function", counting)
    assert run("counted") == plain
    assert calls


# the rhs of the solve_grid benchmark workload (perfbench/workloads.py)
GRID_RHS = ("u", "-u + sin(t)", "u - u^2/8", "exp(-u) + t^2")


def test_compiled_bytes_equal_evaluate_bytes(tmp_path, monkeypatch):
    """eval and solve write the same bytes, sidecars included, whether the
    expression runs compiled (whole tables) or through the tree-walking
    reference node by node."""
    import qfrac.cli as cli

    configs = {}
    for a in (0.0, 0.25):
        for i, rhs in enumerate(GRID_RHS):
            for lip in ("", "lipschitz_a = 2\n"):
                configs[f"solve-{a}-{i}-{bool(lip)}"] = (
                    "solve", f"q = 0.9\nalpha = 0.55\na = {a}\nzeta = 1\n"
                             f"r = 10\nrhs = {rhs}\nmax_iter = 300\n{lip}")
        for op in ("J", "D", "caputo"):
            configs[f"eval-{a}-{op}"] = (
                "eval", f"q = 0.9\nalpha = 0.4\na = {a}\noperator = {op}\n"
                        "function = 0.5 + 1.5*x^3 - exp(-x)*sin(x)/q\n")

    def run(tag):
        outputs = {}
        for name, (command, text) in configs.items():
            path = write_cfg(tmp_path, f"{name}.cfg", text)
            for fmt in ("json", "csv"):
                out = tmp_path / f"{name}-{tag}.{fmt}"
                assert main([command, "--config", path, "--out", str(out),
                             "--format", fmt]) == 0
                sidecar = tmp_path / f"{out.name}.report.json"
                outputs[name, fmt] = (out.read_bytes(), sidecar.exists()
                                      and sidecar.read_bytes())
        return outputs

    compiled = run("compiled")

    def evaluate_backed(source, variables, cfg):
        expr = exprparse.parse(source, {*variables, "q", "p", "alpha"})
        consts = {"q": cfg.q, "p": cfg.p, "alpha": cfg.alpha}
        return lambda *values: expr_reference.evaluate(
            expr, dict(zip(variables, values)), consts)

    monkeypatch.setattr(cli, "_compiled_function", evaluate_backed)
    assert run("evaluated") == compiled


def test_real_stderr_is_one_line_without_warnings(tmp_path):
    """A run that fails ends in one stderr line in a real process, where
    numpy's RuntimeWarnings would reach stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qfrac.__file__)))
    for command, cfg, code, message in [
        ("solve", SOLVE_BASE + "rhs = (u*1e308*10)*0\n", 3,
         "Picard step 1 gave a non-finite value"),
        ("solve", EVAL_BASE + "zeta = 1\nrhs = u\nr = 1e308\n", 2,
         "r: the trust region"),
        ("eval", "q = 0.9\nalpha = 0.5\noperator = D\nfunction = 1\n"
         "p = 5\nlattice_depth = 3000\n", 3,
         "kernel row factor t**-2.5 leaves float range at p=5.0; first at "
         "node t=4.825729105966512e-124"),
        ("verify", "p = 20\n", 3,
         "corollary integrand factor t**-19.0 leaves float range at p=20.0"),
        ("verify", "p = 500\n", 3,
         "q-power factor t**1100.0 leaves float range at p=500.0"),
        ("verify", "q = 0.9\np = 1100\n", 3,
         "q-power factor t**1430.0 leaves float range at p=1100.0"),
        ("verify", "q = 0.9\np = 2000\n", 3,
         "q-power factor t**1600.0 leaves float range at p=2000.0"),
        ("solve", SOLVE_BASE + "rhs = u\np = 4\nb = 1e200\n", 3,
         "kernel row factor t**2.0 leaves float range at p=4.0"),
        ("eval", EVAL_BASE + "operator = J\nfunction = 1\np = 4\n"
         "b = 1e200\n", 3,
         "kernel row factor t**2.0 leaves float range at p=4.0"),
        ("ml", EVAL_BASE + "p = 50\nb = 1e10\nm_terms = 10\n", 3,
         "series diverges: node x=10000000000.0 has x**p (1 - q) >= 1"),
        ("ml", EVAL_BASE + "b = 1.9\nm_terms = 3000\n", 3,
         "series term factor t**1106.0 leaves float range at p=1.0"),
        ("ml", EVAL_BASE + "m_terms = 6000\n", 3,
         "needs m=6000 terms, exceeding max_terms=5000"),
        ("eval", EVAL_BASE + "operator = J\nfunction = 1 + x\np = 2\n"
         "b = 1e200\n", 3,
         "kernel row factor t**1.0 times its table leaves float range"),
        ("eval", EVAL_BASE + "operator = D\nfunction = 1e300*x\np = 20\n"
         "lattice_depth = 20\n", 3,
         "kernel row factor t**-10.0 times its table leaves float range"),
        ("solve", SOLVE_BASE + "p = 2\nb = 100\nrhs = u*1e307\n", 3,
         "Picard step 1 gave a non-finite value at node t=100.0"),
        *[(f"solve --format {fmt}", NON_FINITE_REPORT_CFG, 3,
           NON_FINITE_REPORT_MESSAGE) for fmt in ("json", "csv")],
    ]:
        path = write_cfg(tmp_path, "a.cfg", cfg)
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "qfrac.cli", *command.split(),
                               "--config", path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code
        assert done.stderr.count("\n") == 1, done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert message in done.stderr


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_command_leaves_numpy_random_unloaded(tmp_path, command):
    """The Lipschitz estimate samples an even grid and verify draws from
    random.Random: no command loads numpy.random."""
    path = write_cfg(tmp_path, "a.cfg",
                     {"solve": SOLVE_CFG, "verify": ""}[command])
    script = f"""
import sys
from qfrac import cli
argv = [{command!r}, "--config", {path!r}, "--out", "/dev/null"]
assert cli.main(argv) == 0
assert "numpy.random" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qfrac.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [lambda v: v, lambda v: [1.0, v],
                                   lambda v: [1, {"x": [v]}]])
def test_report_json_refuses_non_finite_numbers(bad, where):
    with pytest.raises(FloatingPointError) as exc:
        _report_json({"a": where(bad)})
    assert str(exc.value) == (
        f"report holds a non-finite number: Out of range float values are "
        f"not JSON compliant: {bad!r}")


def test_options_may_come_before_the_command(tmp_path, capsys):
    path = write_cfg(tmp_path, "a.cfg", SOLVE_CFG)
    outs = []
    for argv in (["solve", "--config", path, "--format", "json"],
                 ["--format", "json", "--config", path, "solve"],
                 ["--config", path, "solve", "--format", "json"]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_unknown_command_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, "a.cfg", SOLVE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--config", path])
    assert exc.value.code == 2
    assert "invalid choice: 'integrate'" in capsys.readouterr().err
