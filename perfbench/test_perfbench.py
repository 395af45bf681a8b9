"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import checks  # noqa: E402



def _bench_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fake_run(n_ops: int) -> tuple[list[dict], dict]:
    ops = [{"config": {"q": 0.99 if i % 3 == 0 else 0.5}}
           for i in range(n_ops)]
    result = {"ops": [{"cpu": 0.001 * (i + 1)} for i in range(n_ops)],
              "cpu_s": 1.0, "peak_rss_mb": 30.0}
    return ops, result


def test_p90_reported_only_with_ten_ops_beyond_it():
    ops, result = _fake_run(99)
    assert "op_p90_ms" not in run.end_to_end(ops, [result], [0.2])
    ops, result = _fake_run(100)
    metrics = run.end_to_end(ops, [result], [0.2])
    assert metrics["op_p90_ms"] == (90.0, "ms")
    value, beyond = run.percentile([r["cpu"] for r in result["ops"]], 90)
    assert beyond == 10 and value == 0.09
    assert metrics["q099_p50_ms"][0] > 0.0


def test_same_seed_same_op_list():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7, 30)
        assert first == workloads.build(name, 7, 30)
        other = workloads.build(name, 8, 30)
        assert first != other
        # the seed moves parameters, never the amount of work
        assert len(first) == len(other)
        cells = [sorted((op["config"].get("q", 0.0),
                         op["config"].get("a", 0.0)) for op in ops)
                 for ops in (first, other)]
        assert cells[0] == cells[1]


def test_solve_grid_alphas_are_distinct():
    ops = [op for op in workloads.build("solve_grid", 3, 30)
           if "repeat_of" not in op]
    alphas = [op["config"]["alpha"] for op in ops]
    assert len(set(alphas)) == len(alphas)


def _small_ops() -> list[dict]:
    """Cheap ops of every kind, with repeats re-indexed."""
    grid = workloads.build("solve_grid", 5, 1)
    evals = workloads.build("operators_eval", 5, 1)
    keep = [op for op in grid + evals[:-1]
            if op["config"].get("q") != 0.99 and "repeat_of" not in op]
    return keep[:40] + [dict(keep[0], repeat_of=0)]


def test_traced_run_leaves_outputs_unchanged(tmp_path):
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps(_small_ops()))
    deadline = time.monotonic() + 150

    def worker(label, trace):
        return run._run_worker(str(ops_path), str(tmp_path), label, trace,
                               deadline)[1]

    plain, traced, again = (worker("plain", False), worker("traced", True),
                            worker("again", True))
    assert [r["digest"] for r in plain["ops"]] == \
        [r["digest"] for r in traced["ops"]]
    assert all(r["state"] != "incorrect" for r in plain["ops"])
    assert [r["state"] for r in plain["ops"]] == \
        [r["state"] for r in traced["ops"]]
    # counts repeat exactly between runs; every layer is reported with the
    # unit BENCHMARK.json declares
    units = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    assert {name: unit for name, (_, unit) in traced["layers"].items()} \
        == {k: v for k, v in units.items() if k != "trace.overhead"}
    for name, (value, unit) in traced["layers"].items():
        if unit == "count":
            assert again["layers"][name][0] == value, name
    assert traced["layers"]["cauchy.solves"][0] > 0
    assert traced["layers"]["operators.calls"][0] > 0
    assert (tmp_path / "traced" / "spans.jsonl").stat().st_size > 0


def _run_cli(*args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=run.ROOT if cwd is None else cwd,
                          capture_output=True, text=True, timeout=170)


def _args(workload: str) -> tuple[str, ...]:
    return ("--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0")


def test_one_command_prints_every_metric():
    good = _run_cli(*_args("solve_grid"))
    assert good.returncode == 0, good.stderr
    result = json.loads(good.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    lines = good.stdout.splitlines()
    for name, metric in result["metrics"].items():
        assert any(line.startswith(f"metric {name} ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
    declared = {m["name"] for m in _bench_json()["end_to_end"]}
    # one round per pass is too few ops for a p90 with ten samples beyond it
    assert set(result["metrics"]) == declared - {"op_p90_ms"}


def _bench_copy(tmp_path, edit=None) -> str:
    """The benchmark alone in tmp_path; with edit=(file, old, new), also a
    copy of src/qfrac with one line of that file broken."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    if edit is not None:
        pkg = tmp_path / "src" / "qfrac"
        shutil.copytree(os.path.join(run.ROOT, "src", "qfrac"), pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        name, old, new = edit
        text = (pkg / name).read_text(encoding="utf-8")
        assert text.count(old) == 1
        (pkg / name).write_text(text.replace(old, new), encoding="utf-8")
    return str(tmp_path)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run_cli(*_args("solve_grid"), cwd=_bench_copy(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload, edit", [
    # CSV numbers written with 6 digits: the table no longer matches the
    # lattice
    ("solve_grid", ("cli.py", 'return f"{value:.17g}"',
                    'return f"{value:.6g}"')),
    # every solve reports "not converged": CLI exit 4
    ("solve_grid", ("cauchy.py", "converged = True", "converged = False")),
])
def test_exits_nonzero_when_an_output_check_fails(tmp_path, workload, edit):
    proc = _run_cli(*_args(workload), cwd=_bench_copy(tmp_path, edit))
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False


def test_only_the_documented_failure_counts_as_failed():
    stencil = next(op for op in workloads.build("operators_eval", 1, 1)
                   if "expect" in op)
    plain = dict(stencil)
    del plain["expect"]
    message = ("operator D failed at node x=0.5: q-difference stencil "
               "leaves the domain: qx=0.25 <= a=0.25\n")
    rec = {"rc": 3, "stderr": message}
    assert checks.check_cli(stencil, rec, "unused")[0] == "failed"
    assert checks.check_cli(plain, rec, "unused")[0] == "incorrect"
    for other in ({"rc": 4, "stderr": message},
                  {"rc": 3, "stderr": "numerical non-convergence: x\n"},
                  {"rc": 3, "stderr": message + "Traceback\n"}):
        assert checks.check_cli(stencil, other, "unused")[0] == "incorrect"
    # the stencil ops are exactly D and caputo at a = 0.25, q in {0.5, 0.9}
    cells = {(op["config"]["operator"], op["config"]["q"],
              op["config"]["a"])
             for op in workloads.build("operators_eval", 1, 30)
             if "expect" in op}
    assert cells == {(o, q, 0.25) for o in ("D", "caputo")
                     for q in (0.5, 0.9)}


def test_benchmark_json_matches_the_harness():
    bench = _bench_json()
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    end_names = {m["name"] for m in bench["end_to_end"]}
    assert list(predictions) == [m["name"] for m in bench["per_layer"]]
    for name, pred in predictions.items():
        assert set(pred["moves"]) <= end_names, name
        assert set(pred["workloads"]) <= set(workloads.WORKLOADS), name
    assert tuple(w["name"] for w in bench["workloads"]) == \
        workloads.WORKLOADS
    ops, result = _fake_run(200)
    reported = run.end_to_end(ops, [result], [0.2])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in reported.items()]
