import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import qfrac

from qfrac import cauchy, exprparse
from qfrac.cauchy import (
    _FFT_MIN_MADDS,
    CauchyProblem,
    _Convolution,
    _fft_length,
    _PicardEngine,
    apriori_bound,
    estimate_lipschitz,
    picard_iterate,
    q_mittag_leffler,
    solve,
    solver_nodes,
)
from qfrac.errors import (
    ConvergenceError,
    DomainError,
    MissingLipschitzError,
    TrustRegionError,
)
from qfrac.operators import (
    FracOrder,
    LatticeKernel,
    OperatorContext,
    bound_constant,
    lemma_beta_integral,
)
from qfrac.qcalc import QLattice, _nodes, _tabulate
from qfrac.qcore import (
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
    q_gamma,
    q_number,
    q_power_general,
)

import kernel_reference as reference


def linear_problem(q=0.5, p=1.0, alpha=0.5, zeta=1.0, r=10.0, A=None):
    return CauchyProblem(rhs=lambda t, u: u, a=0.0, b=1.0, zeta=zeta,
                         order=FracOrder(alpha), params=QParams(q, p),
                         lipschitz_A=A, radius_r=r)


class TestSolverNodes:
    def test_geometric_descent(self):
        nodes = solver_nodes(linear_problem())
        assert nodes[0] == 1.0
        assert np.allclose(nodes[1:] / nodes[:-1], 0.5)

    def test_closed_under_q_shift(self):
        nodes = solver_nodes(linear_problem())
        assert 0.5 * nodes[0] == pytest.approx(nodes[1])

    @pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
    def test_report_lattice_nodes_are_the_table_nodes(self, q):
        """A report lattice holds the solver table's floats, bit for bit,
        so the x written beside a value is the node it was computed at."""
        nodes = solver_nodes(linear_problem(q=q),
                             SeriesControl(max_terms=40_000))
        assert QLattice(1.0, q, len(nodes)).nodes == nodes.tolist()


class TestPicardStep:
    def test_zero_rhs_is_fixed_at_zeta(self):
        problem = CauchyProblem(rhs=lambda t, u: 0.0, a=0.0, b=1.0, zeta=2.0,
                                order=FracOrder(0.5), params=QParams(0.5))
        nodes = solver_nodes(problem)
        out = picard_iterate(np.full(len(nodes), 2.0), problem)
        assert np.allclose(out, 2.0)

    def test_second_iterate_closed_form(self):
        # phi_2(t) = zeta (1 + [p]_q**(-alpha) / Gamma_Q(alpha+1) t**(p alpha))
        for p in (1.0, 2.0):
            problem = linear_problem(p=p, zeta=1.0)
            nodes = solver_nodes(problem)
            phi2 = picard_iterate(np.full(len(nodes), 1.0), problem)
            want = np.array([q_mittag_leffler(t, 1, problem.order,
                                              problem.params) for t in nodes])
            assert np.allclose(phi2, want, atol=1e-13)

    def test_third_iterate_closed_form(self):
        for p in (1.0, 2.0):
            problem = linear_problem(p=p)
            nodes = solver_nodes(problem)
            phi2 = picard_iterate(np.full(len(nodes), 1.0), problem)
            phi3 = picard_iterate(phi2, problem)
            want = np.array([q_mittag_leffler(t, 2, problem.order,
                                              problem.params) for t in nodes])
            assert np.allclose(phi3, want, atol=1e-12)

    def test_series_solution_is_a_fixed_point(self):
        problem = linear_problem()
        nodes = solver_nodes(problem)
        u = np.array([q_mittag_leffler(t, 60, problem.order, problem.params)
                      for t in nodes])
        out = picard_iterate(u, problem)
        # tail nodes see a truncated Jackson sum, so the defect floor is the
        # operator accuracy, not machine epsilon
        assert np.max(np.abs(out - u)) < 1e-8

    def test_shape_mismatch(self):
        problem = linear_problem()
        with pytest.raises(DomainError):
            picard_iterate([1.0, 2.0], problem)

    @pytest.mark.parametrize("q,p,a", [(0.5, 1.0, 0.0), (0.5, 2.0, 0.25),
                                       (0.9, 1.0, 0.25), (0.9, 2.0, 0.0),
                                       (0.3, 1.0, 0.1)])
    def test_step_matches_scalar_integral(self, q, p, a):
        # zeta + J^alpha of the tabulated rhs, node by node through the
        # plain-Python reference sum: zeta below a, and zero past the end
        # of the table, which the step's truncated sums do not read
        rhs = lambda t, u: math.sin(t) + u * u / 4
        problem = CauchyProblem(rhs=rhs, a=a, b=1.0, zeta=1.0,
                                order=FracOrder(0.6), params=QParams(q, p),
                                radius_r=10.0)
        nodes = solver_nodes(problem)
        phi = lambda t: 1.0 + t * t
        out = picard_iterate([phi(t) for t in nodes], problem)
        cut = nodes[-1] * math.sqrt(q)
        g = lambda w: 0.0 if w < cut else rhs(w, phi(w) if w > a else 1.0)
        ctx = OperatorContext(problem.params, a=a)
        for t, v in zip(nodes.tolist(), out.tolist()):
            if t <= a:
                assert v == 1.0
                continue
            want = 1.0 + reference.integral(g, t, problem.order.alpha, ctx)
            assert abs(v - want) <= 1e-13 * max(1.0, abs(want))

    def test_non_finite_step_names_node_and_iteration(self):
        problem = CauchyProblem(rhs=lambda t, u: (u * 1e308 * 10) * 0,
                                a=0.0, b=1.0, zeta=1.0, order=FracOrder(0.5),
                                params=QParams(0.5), radius_r=10.0)
        with pytest.raises(ConvergenceError,
                           match=r"Picard step 1 .* node t=1\.0"):
            solve(problem, QLattice(1.0, 0.5, 8))

    def test_trust_region_violation(self):
        problem = linear_problem(r=0.5)
        nodes = solver_nodes(problem)
        bad = np.full(len(nodes), problem.zeta + 0.6)
        with pytest.raises(TrustRegionError):
            picard_iterate(bad, problem)


class TestSolve:
    def test_zero_rhs(self):
        problem = CauchyProblem(rhs=lambda t, u: 0.0, a=0.0, b=1.0, zeta=3.0,
                                order=FracOrder(0.5), params=QParams(0.5))
        report = solve(problem, QLattice(1.0, 0.5, 8))
        assert report.converged
        assert report.iterations_used == 1
        assert report.solution == pytest.approx([3.0] * 8)

    def test_linear_rhs_matches_series(self):
        for p in (1.0, 2.0):
            problem = linear_problem(p=p)
            lattice = QLattice(1.0, 0.5, 10)
            report = solve(problem, lattice, tol=1e-10, max_iter=150)
            assert report.converged
            for x, u in zip(lattice.nodes, report.solution):
                want = q_mittag_leffler(x, 80, problem.order, problem.params)
                assert u == pytest.approx(want, abs=1e-9)

    def test_residuals_shrink(self):
        report = solve(linear_problem(), QLattice(1.0, 0.5, 8), tol=1e-10,
                       max_iter=150)
        r = report.residuals
        assert r[-1] < 1e-10
        assert all(r[i + 1] < r[i] for i in range(3, len(r) - 1))

    def test_residuals_under_apriori_bounds(self):
        # with the true Lipschitz constant supplied, every observed residual
        # must sit at or below its induction bound
        report = solve(linear_problem(A=1.0), QLattice(1.0, 0.5, 8),
                       tol=1e-10, max_iter=150)
        assert report.converged
        assert report.bound_slack == 0.0
        for r, bd in zip(report.residuals, report.apriori_bounds):
            assert r <= bd * (1.0 + 1e-12)

    def test_max_iter_exhaustion_is_reported(self):
        report = solve(linear_problem(), QLattice(1.0, 0.5, 8), tol=1e-10,
                       max_iter=3)
        assert not report.converged
        assert report.iterations_used == 3

    @pytest.mark.parametrize("q,a,max_iter,record", [
        (0.5, 0.0, 150, ("converged", 53, 53, 53)),
        (0.5, 0.0, 3, ("max_iter", 53, 53, 53)),
        (0.99, 0.25, 150, ("converged", 3440, 138, 3440)),
    ])
    def test_run_record(self, q, a, max_iter, record):
        problem = CauchyProblem(rhs=lambda t, u: u, a=a, b=1.0, zeta=1.0,
                                order=FracOrder(0.5), params=QParams(q),
                                radius_r=10.0)
        report = solve(problem, QLattice(1.0, q, 8, floor_a=a),
                       max_iter=max_iter)
        assert (report.stop_reason, report.n_nodes, report.n_active,
                report.sum_length) == record
        assert report.converged == (record[0] == "converged")

    def test_kernel_with_lower_limit_holds_only_1d_tables(self):
        # q = 0.995, a = 0.25: the former dense lower-limit matrix was
        # 277 x 6894 floats (15 MB)
        ctrl = SeriesControl(max_terms=8000)
        nodes = np.power(0.995, np.arange(277))
        kernel = LatticeKernel(QParams(0.995), -0.5, 0.25, ctrl, nodes)
        tables = [v for v in vars(kernel).values()
                  if isinstance(v, np.ndarray)]
        assert all(t.ndim == 1 and len(t) <= len(nodes) + kernel.n - 1
                   for t in tables)
        assert sum(t.nbytes for t in tables) < 1 << 20
        # the Picard engine, up to n = 34,525 nodes: O(n) floats in 1-D
        # tables, and at a = 0 one spectrum of the weight table
        ctrl = SeriesControl(max_terms=40000)
        for q in (0.995, 0.999):
            for a in (0.0, 0.25):
                problem = CauchyProblem(
                    rhs=compiled_rhs("u"), a=a, b=1.0, zeta=1.0,
                    order=FracOrder(0.5), params=QParams(q), radius_r=10.0)
                engine = _PicardEngine(problem, ctrl)
                convolutions = [v for v in vars(engine).values()
                                if isinstance(v, _Convolution)]
                tables = [v for obj in (engine, *convolutions)
                          for v in vars(obj).values()
                          if isinstance(v, np.ndarray)]
                assert all(t.ndim == 1 for t in tables)
                assert (sum(t.nbytes for t in tables)
                        < 16 * 8 * len(engine.nodes))
                if a == 0.0:
                    assert [c.size > 0 for c in convolutions] == [True]

    def test_trust_region_exit(self):
        with pytest.raises(TrustRegionError):
            solve(linear_problem(r=0.05), QLattice(1.0, 0.5, 8),
                  max_iter=150)

    def test_lattice_deeper_than_solver_table(self):
        # the q = 0.5 solver table holds 53 nodes
        with pytest.raises(DomainError, match="largest depth it allows is 53"):
            solve(linear_problem(), QLattice(1.0, 0.5, 100))

    def test_kernel_memory_stays_bounded(self):
        # six a > 0 solves at q = 0.99, each with its own kernel tables;
        # nothing may pile up across solves
        script = """
import resource
from qfrac import CauchyProblem, FracOrder, QLattice, QParams, solve

def run(alpha):
    problem = CauchyProblem(rhs=lambda t, u: u, a=0.25, b=1.0, zeta=1.0,
                            order=FracOrder(alpha), params=QParams(0.99),
                            radius_r=10.0)
    report = solve(problem, QLattice(1.0, 0.99, 12, floor_a=0.25),
                   tol=1e-10, max_iter=300)
    assert report.converged
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

first = run(0.41)
print(max(run(alpha) for alpha in (0.47, 0.53, 0.59, 0.65, 0.71)) - first)
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(qfrac.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        growth_kb = int(done.stdout)
        assert growth_kb < 64 * 1024, f"peak RSS grew {growth_kb} KB"

    def test_lattice_must_match_problem(self):
        with pytest.raises(DomainError):
            solve(linear_problem(), QLattice(2.0, 0.5, 8))

    def test_lattice_ratio_must_be_q(self):
        """Values at 0.5**k are not labelled as 0.9**k."""
        with pytest.raises(DomainError,
                           match=r"lattice ratio 0\.9 differs from q=0\.5"):
            solve(linear_problem(q=0.5), QLattice(1.0, 0.9, 4))

    def test_nonzero_lower_limit_constant_solution(self):
        problem = CauchyProblem(rhs=lambda t, u: 0.0, a=0.25, b=1.0,
                                zeta=1.5, order=FracOrder(0.5),
                                params=QParams(0.5))
        report = solve(problem, QLattice(1.0, 0.5, 8, floor_a=0.25))
        assert report.converged
        assert report.solution == pytest.approx([1.5, 1.5])

    def test_uniqueness_probe(self):
        # two admissible starting tables contract to the same fixed point
        problem = linear_problem()
        nodes = solver_nodes(problem)
        u1 = np.full(len(nodes), problem.zeta)
        u2 = np.full(len(nodes), problem.zeta + 2.0)
        for _ in range(80):
            u1 = picard_iterate(u1, problem)
            u2 = picard_iterate(u2, problem)
        assert np.max(np.abs(u1 - u2)) < 1e-10


SOLVE_GRID_RHS = ("u", "-u + sin(t)", "u - u^2/8", "exp(-u) + t^2")


def compiled_rhs(source):
    return exprparse.compile(exprparse.parse(source, {"t", "u"}), ("t", "u"))


class CountingRhs:
    """A plain Python rhs that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t, u):
        self.calls += 1
        return self.f(t, u)


class TestConvolution:
    """The engine's square convolution: past the crossover its FFT against
    np.convolve of the same table."""

    @pytest.mark.parametrize("q,rows", [(0.9, 331), (0.99, 331),
                                        (0.99, 633), (0.99, 1024),
                                        (0.99, 3440)])
    @pytest.mark.parametrize("p", (1.0, 2.0))
    @pytest.mark.parametrize("beta", (-0.5, -0.15))
    def test_fft_matches_direct(self, q, rows, p, beta):
        kernel = LatticeKernel(QParams(q, p), beta, 0.0,
                               DEFAULT_INTEGRATION_CTRL, [1.0])
        table = kernel.upper[kernel.n - rows:]
        conv = _Convolution(table)
        assert len(table) == rows
        assert (conv.size > 0) == (rows >= 633)
        x = np.linspace(0.0, 6.0, 2 * rows - 1)
        g = (np.sin(3.0 * x) - 0.4
             + 0.1 * np.random.default_rng(rows).standard_normal(len(x)))
        want = np.convolve(g, table, "valid")
        got = conv(g)
        assert len(got) == rows
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0,
                                                                np.abs(want)))

    def test_both_sides_of_the_crossover_are_reached(self):
        # a q = 0.9 solve at a = 0 has 331 active rows, q = 0.99 has 3440
        assert 632**2 < _FFT_MIN_MADDS <= 633**2

    def test_fft_length_is_the_least_5_smooth_length(self):
        top = 10**5
        smooth = sorted(2**i * 3**j * 5**k for i in range(18)
                        for j in range(12) for k in range(9)
                        if 2**i * 3**j * 5**k <= 2 * top)
        sizes = np.arange(1, top + 1)
        want = np.array(smooth)[np.searchsorted(smooth, sizes)]
        assert [_fft_length(n) for n in sizes.tolist()] == want.tolist()


class TestTiltedRows:
    """The engine convolves the rhs values alone: the integrand weight
    w**(p-1) sits in the kernel's row heads and weights, so at p != 1 its
    FFT rows keep the digits of the direct path."""

    @pytest.mark.parametrize("q,p", [(0.99, 0.5), (0.99, 1.0), (0.99, 2.0),
                                     (0.99, 5.0), (0.999, 1.0),
                                     (0.999, 2.0), (0.999, 5.0),
                                     (0.5, 50.0)])
    @pytest.mark.parametrize("alpha", (0.25, 0.75))
    def test_step_of_one_is_the_lemma(self, q, p, alpha):
        # from zeta = 0 one step of rhs = 1 is J^alpha 1; rows past n/8
        # lose the part of their sums past the table's end
        ctrl = SeriesControl(max_terms=40000)
        params = QParams(q, p)
        problem = CauchyProblem(rhs=lambda t, u: 1.0, a=0.0, b=1.0,
                                zeta=0.0, order=FracOrder(alpha),
                                params=params, radius_r=10.0)
        nodes = solver_nodes(problem, ctrl)
        got = picard_iterate(np.zeros(len(nodes)), problem, ctrl)
        rows = nodes[:len(nodes) // 8]
        want = (q_number(p, q) ** (1.0 - alpha)
                / q_gamma(alpha, params.qp, ctrl)
                * lemma_beta_integral(0.0, rows, alpha, 0.0, params, ctrl))
        assert np.all(np.abs(got[:len(rows)] - want) <= 1e-13 * want)

    @staticmethod
    def outcome(problem, lattice, ctrl):
        try:
            report = solve(problem, lattice, max_iter=300, ctrl=ctrl)
        except (ConvergenceError, TrustRegionError) as exc:
            return type(exc), None, None
        return report.converged, report.iterations_used, report.solution

    @pytest.mark.parametrize("source", SOLVE_GRID_RHS)
    @pytest.mark.parametrize("p", (0.5, 2.0, 5.0))
    def test_solve_ends_as_the_direct_path(self, monkeypatch, p, source):
        problem = CauchyProblem(rhs=compiled_rhs(source), a=0.0, b=1.0,
                                zeta=1.0, order=FracOrder(0.5),
                                params=QParams(0.99, p), radius_r=10.0)
        lattice = QLattice(1.0, 0.99, 12)
        ctrl = SeriesControl(max_terms=40000)
        got = self.outcome(problem, lattice, ctrl)
        monkeypatch.setattr(cauchy, "_FFT_MIN_MADDS", math.inf)
        want = self.outcome(problem, lattice, ctrl)
        assert got[:2] == want[:2]
        if want[2] is not None:
            u = np.array(want[2])
            assert np.all(np.abs(np.array(got[2]) - u) <= 1e-14 * np.abs(u))


class TestIncrementalStep:
    """One engine re-tabulates the rhs only where the iterate moved, and
    past _INCREMENTAL_MIN_ROWS active rows adds the change of the sums over
    the rows the move reached. Its g must equal a full tabulation bit for
    bit, the rows past a step's extent must keep their bits, and each step
    must match a fresh engine's step, which tabulates every node and forms
    every sum; below the row count, bit for bit."""

    @staticmethod
    def problem(rhs, q=0.9, a=0.0, zeta=1.0):
        return CauchyProblem(rhs=rhs, a=a, b=1.0, zeta=zeta,
                             order=FracOrder(0.6), params=QParams(q),
                             radius_r=10.0)

    @staticmethod
    def iterate_both(problem, steps=30):
        engine = _PicardEngine(problem, DEFAULT_INTEGRATION_CTRL)
        m = engine.n_active
        for _ in range(steps):
            prev = engine.phi.copy()
            e = len(engine.step())
            out = engine.phi
            full = _tabulate(problem.rhs, engine.active_nodes, prev[:m])
            assert engine.g[:m].tobytes() == full.tobytes()
            assert out[e:].tobytes() == prev[e:].tobytes()
            want = picard_iterate(prev, problem)
            assert np.all(np.abs(out - want)
                          <= 2e-15 * np.maximum(1.0, np.abs(want)))
            if m < cauchy._INCREMENTAL_MIN_ROWS:
                assert out.tobytes() == want.tobytes()
            if out.tobytes() == prev.tobytes():
                break
        return engine

    @pytest.mark.parametrize("source", SOLVE_GRID_RHS)
    @pytest.mark.parametrize("a", [0.0, 0.25])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_matches_fresh_engine_compiled(self, q, a, source):
        self.iterate_both(self.problem(compiled_rhs(source), q, a))

    @pytest.mark.parametrize("source", SOLVE_GRID_RHS + (
        "u + sin(t*u) - 0.5*exp(-t)*u^2",))
    @pytest.mark.parametrize("a", [0.0, 0.25])
    @pytest.mark.parametrize("q", [0.9, 0.99, 0.995, 0.999])
    def test_solve_matches_the_full_product_path(self, monkeypatch, q, a,
                                                 source):
        problem = CauchyProblem(rhs=compiled_rhs(source), a=a, b=1.0,
                                zeta=1.0, order=FracOrder(0.6),
                                params=QParams(q), lipschitz_A=1.0,
                                radius_r=10.0)
        lattice = QLattice(1.0, q, 12, floor_a=a)
        ctrl = SeriesControl(max_terms=40000)
        got = solve(problem, lattice, max_iter=300, ctrl=ctrl)
        monkeypatch.setattr(cauchy, "_INCREMENTAL_MIN_ROWS", math.inf)
        want = solve(problem, lattice, max_iter=300, ctrl=ctrl)
        assert ((got.iterations_used, got.converged, got.n_active)
                == (want.iterations_used, want.converged, want.n_active))
        u = np.array(want.solution)
        assert np.all(np.abs(np.array(got.solution) - u)
                      <= 1e-14 * np.maximum(1.0, np.abs(u)))

    def test_cached_corrections_stay_under_twice_the_full_transform(self):
        # q = 0.999, a = 0: 34,525 rows; the corrections of 2**k rows hold
        # 1-D tables, and their spectra sum to less than twice the full one
        problem = self.problem(compiled_rhs("u"), 0.999)
        engine = _PicardEngine(problem, SeriesControl(max_terms=40000))
        extents = [len(engine.step()) for _ in range(30)]
        assert extents[-1] < 1024 < extents[0] == engine.n_active
        extra = [c for rows, c in engine.corrections.items()
                 if rows < engine.n_active]
        assert len(extra) >= 6
        assert all(t.ndim == 1 for c in extra for t in vars(c).values()
                   if isinstance(t, np.ndarray))
        assert (sum(c.spectrum.nbytes for c in extra if c.size)
                < 2 * engine.active.spectrum.nbytes)

    @pytest.mark.parametrize("source", SOLVE_GRID_RHS)
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_fixed_tail_matches_the_full_table_sum(self, q, source):
        # a step sums only the active rows and adds the sums over the
        # frozen rows and [0, a] once formed; the full sum is the reference
        rhs = compiled_rhs(source)
        problem = self.problem(rhs, q, a=0.25)
        ctrl = DEFAULT_INTEGRATION_CTRL
        engine = _PicardEngine(problem, ctrl)
        nodes, m = engine.nodes, engine.n_active
        kernel = LatticeKernel(problem.params, -0.4, 0.25, ctrl, nodes[:m])
        coef = q_number(1.0, q) ** 0.4 / kernel.gamma
        g_low = rhs.table(_nodes(0.25, q, kernel.n), 1.0)
        for _ in range(20):
            prev = engine.phi.copy()
            engine.step()
            g = rhs.table(nodes, np.where(nodes > 0.25, prev, 1.0))
            want = np.full(len(nodes), 1.0)
            want[:m] += coef * kernel.apply(g, g_low)
            assert np.all(np.abs(engine.phi - want)
                          <= 1e-15 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("a", [0.0, 0.25])
    def test_matches_fresh_engine_python_rhs_with_fewer_calls(self, a):
        rhs = CountingRhs(lambda t, u: math.sin(t) - u)
        problem = self.problem(rhs, a=a)
        steps = self.iterate_both(problem, steps=25).steps
        engine = _PicardEngine(problem, DEFAULT_INTEGRATION_CTRL)
        rhs.calls = 0
        for _ in range(steps):
            engine.step()
        assert rhs.calls < steps * engine.n_active

    def test_sign_of_zero_counts_as_a_move(self):
        problem = self.problem(lambda t, u: math.copysign(1.0, u), zeta=0.0)
        engine = _PicardEngine(problem, DEFAULT_INTEGRATION_CTRL)
        engine.step()
        first = engine.phi.copy()
        signed = np.zeros(len(engine.nodes))
        signed[3] = -0.0
        engine.load(signed)
        engine.step()
        assert np.array_equal(engine.phi, picard_iterate(signed, problem))
        assert not np.array_equal(engine.phi, first)

    def test_nothing_moved_tabulates_empty_tables(self):
        sizes = []
        zero = compiled_rhs("0*u")

        class Spy:
            def table(self, t, u):
                sizes.append(np.size(u))
                return zero.table(t, u)

        problem = self.problem(Spy(), zeta=2.0)
        engine = _PicardEngine(problem, DEFAULT_INTEGRATION_CTRL)
        sizes.clear()  # the build tabulated the frozen rows below a
        prev = np.full(len(engine.nodes), 2.0)
        assert len(engine.step()) == engine.n_active
        assert engine.phi.tobytes() == prev.tobytes()
        assert len(engine.step()) == 0
        assert engine.phi.tobytes() == prev.tobytes()
        assert sizes == [engine.n_active, 0]

    def test_a_load_retabulates_every_active_row(self):
        sizes = []
        zero = compiled_rhs("0*u")

        class Spy:
            def table(self, t, u):
                sizes.append(np.size(u))
                return zero.table(t, u)

        engine = _PicardEngine(self.problem(Spy(), zeta=2.0),
                               DEFAULT_INTEGRATION_CTRL)
        engine.step()
        engine.load(engine.phi.copy())
        sizes.clear()
        engine.step()
        assert sizes == [engine.n_active] == [331]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_engine_holds_its_own_float_guard(self):
        # built and stepped with no errstate around it: u*1e307 overflows
        # to inf, which the step raises on, and numpy warns of nothing
        problem = CauchyProblem(rhs=compiled_rhs("u*1e307"), a=0.0, b=100.0,
                                zeta=1.0, order=FracOrder(0.5),
                                params=QParams(0.5, 2.0), radius_r=10.0)
        engine = _PicardEngine(problem, DEFAULT_INTEGRATION_CTRL)
        with pytest.raises(ConvergenceError, match=re.escape(
                "Picard step 1 gave a non-finite value at node t=100.0")):
            engine.step()

    def test_nan_in_prev_is_evaluated(self):
        problem = self.problem(lambda t, u: 0.0, zeta=2.0)
        nodes = solver_nodes(problem)
        out = picard_iterate(np.full(len(nodes), math.nan), problem)
        assert np.all(out == 2.0)

    def test_loaded_nan_is_tabulated_not_taken_for_the_seed(self):
        # a load marks every row moved, a loaded NaN among them; f does
        # not read u, so the step from NaN is the step from zeta
        problem = self.problem(lambda t, u: 1.0, zeta=2.0)
        want = _PicardEngine(problem, DEFAULT_INTEGRATION_CTRL)
        want.step()
        engine = _PicardEngine(problem, DEFAULT_INTEGRATION_CTRL)
        engine.load(np.full(len(engine.nodes), math.nan))
        engine.step()
        assert engine.phi.tobytes() == want.phi.tobytes()


class TestRhsEvals:
    @pytest.mark.parametrize("a,A,want", [
        # 484 step points + 17 u samples at 8 nodes + 64 x 64 pairs
        (0.0, None, 484 + 136 + 8192),
        # 122 step points (of 2 active nodes x 69 steps, those whose
        # iterate moved bit for bit) + 51 frozen and 53 lower nodes
        # + 17 x 3 samples
        (0.25, 1.0, 122 + 51 + 53 + 51),
    ])
    def test_exact_count(self, a, A, want):
        rhs = CountingRhs(lambda t, u: u)
        problem = CauchyProblem(rhs=rhs, a=a, b=1.0, zeta=1.0,
                                order=FracOrder(0.5), params=QParams(0.5),
                                lipschitz_A=A, radius_r=10.0)
        report = solve(problem, QLattice(1.0, 0.5, 8, floor_a=a),
                       max_iter=150)
        assert report.converged
        assert report.rhs_evals == rhs.calls == want

    def test_steps_evaluate_under_half_the_table_at_q_near_one(self):
        problem = CauchyProblem(rhs=compiled_rhs("-u + sin(t)"), a=0.0,
                                b=1.0, zeta=1.0, order=FracOrder(0.6),
                                params=QParams(0.99), lipschitz_A=1.0,
                                radius_r=10.0)
        lattice = QLattice(1.0, 0.99, 12)
        report = solve(problem, lattice, max_iter=300)
        assert report.converged
        steps = report.rhs_evals - 17 * len(lattice.nodes)
        assert steps < report.iterations_used * report.n_active / 2


class TestAprioriBound:
    def test_zero_k(self):
        assert apriori_bound(3, 1.0, linear_problem(A=1.0), 0.0) == 0.0

    def test_first_step_is_ct_times_k(self):
        problem = linear_problem(A=1.0)
        q, p, alpha = 0.5, 1.0, 0.5
        ct = (q_number(p, q) ** (1.0 - alpha)
              / (q_number(p * alpha, q) * q_gamma(alpha, q))
              * q_power_general(1.0, 0.0, alpha, problem.params))
        assert apriori_bound(1, 1.0, problem, 2.0) == pytest.approx(
            2.0 * ct, rel=1e-13)

    def test_power_growth(self):
        problem = linear_problem(A=1.0)
        b1 = apriori_bound(1, 1.0, problem, 1.0)
        b3 = apriori_bound(3, 1.0, problem, 1.0)
        assert b3 == pytest.approx(b1**3, rel=1e-12)

    def test_past_float_range_is_inf(self):
        problem = linear_problem(A=1e5)
        # 1e5 ** 79 alone overflows a float
        assert apriori_bound(80, 1.0, problem, 1.0) == math.inf
        # the powers overflow but the bound fits: (c A)**79 c K
        cA = apriori_bound(1, 1.0, problem, 1.0) * 1e5
        want = cA**40 * 1e-300 * cA**39 * (cA / 1e5)
        assert apriori_bound(80, 1.0, problem, 1e-300) == pytest.approx(
            want, rel=1e-12)

    def test_missing_lipschitz(self):
        with pytest.raises(MissingLipschitzError):
            apriori_bound(1, 1.0, linear_problem(A=None), 1.0)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            apriori_bound(0, 1.0, linear_problem(A=1.0), 1.0)


class TestBoundFromEngine:
    """solve passes its engine's Gamma_Q(alpha), the Gamma of every Picard
    step, to operators.bound_constant. C(b) must agree with bound_constant's
    own, and each reported bound with apriori_bound at the solve's A and K."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.0, 0.25])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99])
    def test_matches_bound_constant(self, q, a, p, alpha):
        ctrl = SeriesControl(max_terms=8000)  # q = 0.99, p = 0.5: 6877
        params = QParams(q, p)
        problem = CauchyProblem(rhs=compiled_rhs("u"), a=a, b=2.5,
                                zeta=1.0, order=FracOrder(alpha),
                                params=params, radius_r=10.0)
        ctx = OperatorContext(params, a, ctrl)
        got = bound_constant(FracOrder(alpha), ctx, 2.5,
                             _PicardEngine(problem, ctrl).gamma)
        want = bound_constant(FracOrder(alpha), ctx, 2.5)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("lipschitz_A", [None, 2.0])
    @pytest.mark.parametrize("a", [0.0, 0.25])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_report_bounds_match_apriori_bound(self, q, a, lipschitz_A):
        for source in SOLVE_GRID_RHS:
            rhs = compiled_rhs(source)
            problem = CauchyProblem(rhs=rhs, a=a, b=1.0, zeta=1.0,
                                    order=FracOrder(0.6), params=QParams(q),
                                    lipschitz_A=lipschitz_A, radius_r=10.0)
            report = solve(problem, QLattice(1.0, q, 12, floor_a=a),
                           max_iter=300)
            A = lipschitz_A or max(estimate_lipschitz(rhs, problem), 1e-300)
            with_A = replace(problem, lipschitz_A=A)
            assert report.converged and report.apriori_bounds
            for n, got in enumerate(report.apriori_bounds, 1):
                want = apriori_bound(n, 1.0, with_A, report.k_estimate)
                assert abs(got - want) <= 1e-13 * want


class TestMittagLeffler:
    def test_zeroth_partial_sum(self):
        assert q_mittag_leffler(0.7, 0, FracOrder(0.5), QParams(0.5)) == 1.0

    def test_at_origin(self):
        assert q_mittag_leffler(0.0, 5, FracOrder(0.5), QParams(0.5)) == 1.0

    def test_two_terms_manual(self):
        q, p, alpha, x = 0.5, 2.0, 0.5, 0.8
        params = QParams(q, p)
        pq = q_number(p, q)
        want = (1.0
                + pq ** -alpha / q_gamma(alpha + 1.0, params.qp) * x ** (p * alpha)
                + pq ** (-2 * alpha) / q_gamma(2 * alpha + 1.0, params.qp)
                * x ** (2 * p * alpha))
        got = q_mittag_leffler(x, 2, FracOrder(alpha), params)
        assert got == pytest.approx(want, rel=1e-14)

    def test_classical_limit_is_exp(self):
        params = QParams(0.99, 1.0)
        got = q_mittag_leffler(1.0, 60, FracOrder(0.999), params)
        assert got == pytest.approx(math.exp(1.0), abs=2e-2)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            q_mittag_leffler(-1.0, 3, FracOrder(0.5), QParams(0.5))


class TestClassicalLimit:
    """As q -> 1 the q-problem D^(1/2) u = lam u, u(0) = 1 tends to the
    classical one, solved by E_(1/2)(lam sqrt(t)) = exp(lam^2 t)
    erfc(-lam sqrt(t)): an oracle for the whole chain (q-products, kernel
    weights, solver) that none of it computes. The gap u_q(1) - E is
    positive and O(1 - q); at lam = 1 it measures 0.1485, 0.01337,
    0.00665 and 0.00132 at q = 0.9, 0.99, 0.995 and 0.999."""

    @pytest.mark.parametrize("lam", [1.0, -1.0, 0.5])
    def test_gap_shrinks_like_one_minus_q(self, lam):
        classical = math.exp(lam * lam) * math.erfc(-lam)
        ctrl = SeriesControl(max_terms=40000)

        def gap(q):
            problem = CauchyProblem(
                rhs=compiled_rhs(f"{lam} * u"), a=0.0, b=1.0, zeta=1.0,
                order=FracOrder(0.5), params=QParams(q),
                lipschitz_A=abs(lam), radius_r=10.0)
            report = solve(problem, QLattice(1.0, q, 1), max_iter=200,
                           ctrl=ctrl)
            assert report.converged
            return report.solution[0] - classical

        c = gap(0.9) / (1.0 - 0.9)
        for q in (0.99, 0.995, 0.999):
            assert 0.0 < gap(q) <= c * (1.0 - q)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_extrapolated_limit_is_mittag_leffler(self, alpha, lam):
        # D^alpha u = lam u, u(0) = 1 solves to E_alpha(lam t^alpha); u_q(1)
        # is smooth in h = 1 - q, so the parabola through three solves,
        # read at h = 0, meets E_alpha(lam) far inside the O(h) gap
        classical, k, term = 0.0, 0, 1.0
        while abs(term) > 1e-18:
            term = lam**k / math.gamma(alpha * k + 1.0)
            classical, k = classical + term, k + 1
        ctrl = SeriesControl(max_terms=40000)
        hs, us = (0.005, 0.002, 0.001), []
        for h in hs:
            q = 1.0 - h
            problem = CauchyProblem(
                rhs=compiled_rhs(f"{lam} * u"), a=0.0, b=1.0, zeta=1.0,
                order=FracOrder(alpha), params=QParams(q),
                lipschitz_A=abs(lam), radius_r=10.0)
            report = solve(problem, QLattice(1.0, q, 1), max_iter=200,
                           ctrl=ctrl)
            assert report.converged
            us.append(report.solution[0])
        # Lagrange's parabola through (h_i, u_i) at h = 0
        limit = sum(u * math.prod(g / (g - h) for g in hs if g != h)
                    for h, u in zip(hs, us))
        assert abs(limit - classical) <= 1e-7, (limit, classical)


class TestLipschitzEstimate:
    def test_linear(self):
        got = estimate_lipschitz(lambda t, u: u, linear_problem())
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_constant(self):
        got = estimate_lipschitz(lambda t, u: 5.0, linear_problem())
        assert got == 0.0

    def test_quadratic_stays_under_true_constant(self):
        problem = CauchyProblem(rhs=lambda t, u: u * u, a=0.0, b=1.0,
                                zeta=0.0, order=FracOrder(0.5),
                                params=QParams(0.5), radius_r=1.0)
        got = estimate_lipschitz(lambda t, u: u * u, problem)
        assert 0.5 < got <= 2.0

    # Lipschitz constants in u over u in [-9, 11] (zeta = 1, r = 10) and
    # t in [0, 1]: |1 - u/4| at u = -9, exp(9), 3 u^2 at u = 11, 5 t at t = 1
    @pytest.mark.parametrize("source,true", [
        ("u - u^2/8", 3.25), ("exp(-u) + t^2", math.exp(9.0)),
        ("u^3", 363.0), ("sin(5*u)*t", 5.0)])
    @pytest.mark.parametrize("a", [0.0, 0.25])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_within_a_tenth_under_the_true_constant(self, q, a, source,
                                                     true):
        rhs = compiled_rhs(source)
        problem = CauchyProblem(rhs=rhs, a=a, b=1.0, zeta=1.0,
                                order=FracOrder(0.5), params=QParams(q),
                                radius_r=10.0)
        got = estimate_lipschitz(rhs, problem)
        assert 0.9 * true <= got <= true
