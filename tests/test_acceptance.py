"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with its measured worst error and runtime."""

import functools
import json
import math
import time

import numpy as np
import pytest

from qfrac.cauchy import (
    CauchyProblem,
    picard_iterate,
    q_mittag_leffler,
    solve,
    solver_nodes,
)
from qfrac.cli import main as cli_main
from qfrac.operators import FracOrder
from qfrac.qcalc import QLattice
from qfrac.qcore import QParams, q_factorial, q_gamma, q_number
from qfrac.verify import run_identity

QS = (0.3, 0.5, 0.9)
PS = (1.0, 2.0)


def criterion(number, description, runtime_limit):
    """Wrap a test so it prints one PASS/FAIL line and enforces its
    runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"FAIL criterion {number}: {description} "
                      f"({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
            assert elapsed < runtime_limit, (
                f"criterion {number} took {elapsed:.2f}s, "
                f"limit {runtime_limit}s")
        return wrapper

    return deco


@criterion(1, "beta-integral lemma vs Jackson evaluation, rel err < 1e-9", 10)
def test_criterion_1_lemma():
    worst = run_identity("beta_integral_lemma").max_error
    assert worst < 1e-9, f"worst relative error {worst:.3e}"


@criterion(2, "q-power q-derivative identities on 100 random draws, "
              "rel err < 1e-8", 5)
def test_criterion_2_qpower_derivatives():
    worst = run_identity("qpower_q_derivatives").max_error
    assert worst < 1e-8, f"worst relative error {worst:.3e}"


@criterion(3, "definitional vs simplified Caputo derivative, "
              "abs err < 1e-8", 30)
def test_criterion_3_caputo_equivalence():
    worst = run_identity("caputo_equivalence").max_error
    assert worst < 1e-8, f"worst absolute error {worst:.3e}"


@criterion(4, "inversion identities residuals < 1e-7 on the same family", 30)
def test_criterion_4_inversion():
    worst = run_identity("inversion_identities").max_error
    assert worst < 1e-7, f"worst residual {worst:.3e}"


@criterion(5, "fractional integral bounded by bound_constant, "
              "50 random degree-4 polynomials, zero violations", 10)
def test_criterion_5_boundedness():
    # max over the polynomials of sup |J f| - bound * sup |f|
    excess = run_identity("integral_boundedness").max_error
    assert excess <= 0.0, f"bound exceeded by {excess:.3e}"


@criterion(6, "second and third Picard iterates match their closed forms, "
              "abs err < 1e-9", 5)
def test_criterion_6_early_iterates():
    worst = 0.0
    for p in PS:
        problem = CauchyProblem(rhs=lambda t, u: u, a=0.0, b=1.0, zeta=1.0,
                                order=FracOrder(0.5), params=QParams(0.5, p),
                                radius_r=10.0)
        nodes = solver_nodes(problem)
        report = nodes[:12]
        phi2 = picard_iterate(np.full(len(nodes), 1.0), problem)
        phi3 = picard_iterate(phi2, problem)
        for k, t in enumerate(report):
            want2 = q_mittag_leffler(t, 1, problem.order, problem.params)
            want3 = q_mittag_leffler(t, 2, problem.order, problem.params)
            worst = max(worst, abs(phi2[k] - want2), abs(phi3[k] - want3))
    assert worst < 1e-9, f"worst absolute error {worst:.3e}"


@criterion(7, "converged solve matches the series partial sums at tol 1e-10 "
              "with fixed-point defect < 1e-9", 10)
def test_criterion_7_converged_solve():
    for p in PS:
        problem = CauchyProblem(rhs=lambda t, u: u, a=0.0, b=1.0, zeta=1.0,
                                order=FracOrder(0.5), params=QParams(0.5, p),
                                radius_r=10.0)
        lattice = QLattice(1.0, 0.5, 12)
        report = solve(problem, lattice, tol=1e-10, max_iter=150)
        assert report.converged
        m = report.iterations_used
        for x, u in zip(lattice.nodes, report.solution):
            want = q_mittag_leffler(x, m, problem.order, problem.params)
            assert u == pytest.approx(want, abs=1e-10)
        # reconstruct the full-table iterate and measure the defect of one
        # further Picard application on the report nodes
        nodes = solver_nodes(problem)
        phi = np.full(len(nodes), 1.0)
        for _ in range(m):
            phi = picard_iterate(phi, problem)
        defect = np.max(np.abs(picard_iterate(phi, problem)[:12] - phi[:12]))
        assert defect < 1e-9, f"fixed-point defect {defect:.3e}"


@criterion(8, "residuals dominated by the a-priori bound with A = 1, "
              "slack >= 0", 5)
def test_criterion_8_apriori_domination():
    problem = CauchyProblem(rhs=lambda t, u: u, a=0.0, b=1.0, zeta=1.0,
                            order=FracOrder(0.5), params=QParams(0.5, 1.0),
                            lipschitz_A=1.0, radius_r=10.0)
    report = solve(problem, QLattice(1.0, 0.5, 12), tol=1e-10, max_iter=150)
    assert report.converged
    assert report.bound_slack >= 0.0
    assert report.bound_slack == 0.0, (
        f"residuals exceed the bound (slack {report.bound_slack:.3e})")
    for r, bd in zip(report.residuals, report.apriori_bounds):
        assert r <= bd * (1.0 + 1e-12)


@criterion(9, "classical-limit sanity: solution near exp on [0, 1] "
              "within 2e-2", 5)
def test_criterion_9_classical_limit():
    # sanity check of the q -> 1, alpha -> 1 limit, not an exact identity
    problem = CauchyProblem(rhs=lambda t, u: u, a=0.0, b=1.0, zeta=1.0,
                            order=FracOrder(0.999), params=QParams(0.99, 1.0),
                            radius_r=5.0)
    lattice = QLattice(1.0, 0.99, 100)
    report = solve(problem, lattice, tol=1e-10, max_iter=60)
    assert report.converged
    worst = max(abs(u - math.exp(x))
                for x, u in zip(lattice.nodes, report.solution))
    assert worst < 2e-2, f"worst deviation from exp: {worst:.3e}"


@criterion(10, "q-Gamma recurrence and factorial identities", 2)
def test_criterion_10_gamma_identities():
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = float(rng.uniform(0.1, 5.0))
        q = float(rng.choice(QS))
        lhs = q_gamma(t + 1.0, q)
        rhs = q_number(t, q) * q_gamma(t, q)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10
    for q in QS:
        for n in range(9):
            lhs = q_gamma(n + 1.0, q)
            rhs = q_factorial(n, q)
            assert abs(lhs - rhs) / abs(rhs) < 1e-12


@criterion(11, "CLI determinism and clean verify run", 60)
def test_criterion_11_cli(tmp_path, capsys):
    solve_cfg = tmp_path / "solve.cfg"
    solve_cfg.write_text(
        "q = 0.5\nalpha = 0.5\nzeta = 1\nrhs = u\nr = 10\nmax_iter = 150\n")
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert cli_main(["solve", "--config", str(solve_cfg), "--out", str(out1),
                     "--format", "json"]) == 0
    assert cli_main(["solve", "--config", str(solve_cfg), "--out", str(out2),
                     "--format", "json"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["converged"] is True

    verify_cfg = tmp_path / "verify.cfg"
    verify_cfg.write_text("# default grid\n")
    assert cli_main(["verify", "--config", str(verify_cfg)]) == 0
    results = json.loads(capsys.readouterr().out)["identity_results"]
    assert all(r["passed"] for r in results)
