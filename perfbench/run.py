"""qfrac benchmark: one command per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qfrac source tree (it imports `src/qfrac`, nothing
installed). It builds the seeded op list of the workload (workloads.py),
times set-up in fresh processes, runs the op list in PASSES fresh worker
processes one after another (worker.py; each pass starts with cold caches,
as a new CLI process or script would), checks every output, prints each
metric by name with its unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are CPU time of the single-threaded worker (setup_s, cpu_s and the
op latencies). On a shared virtual machine a vCPU can be descheduled for
seconds at a time (steal time); wall time holds that wait and CPU time does
not. The median wall time per pass and the share of it the worker spent on
the CPU are printed on the `record` line.

--trace 0 reports the end-to-end metrics: cpu_s is the median over the
passes of one pass's CPU time; op_p50_ms, op_p90_ms and q099_p50_ms are
taken over every op execution of every pass. --trace 1 runs the op list
once untraced and once traced, reports the per-layer metrics of the traced
run plus trace.overhead (traced / untraced CPU time), checks that tracing
left every output byte unchanged, and keeps the spans in
.perfbench-trace/<workload>-seed<N>.jsonl.

--seconds sets the size of the op list (--seconds / PASSES per pass, in
rounds of the workload's grid, see workloads.ROUND_SECONDS), not a
deadline, so a run does fixed work. The exit code is 0 when every output
check passed, 1 when one failed, 2 on a usage or environment error (for
instance no src/qfrac next to this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PASSES = 3
SETUP_PROBES = 4  # set-up samples besides the PASSES workers' own
RUN_TIMEOUT_S = 170
BLAS_THREADS = 1
Q_END = 0.99
TRACE_DIR = os.path.join(ROOT, ".perfbench-trace")  # spans of traced runs


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    # set-up is timed with qfrac's bytecode cached, as an installed CLI runs
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(extra: list[str], work: str, label: str, deadline: float) -> float:
    """Start a worker, return the CPU seconds it took to get ready (its
    set-up), and wait for it to end; kill it at the run's deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--src", os.path.join(ROOT, "src"), *extra]
    err_path = os.path.join(work, f"{label}.stderr")
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err,
                                env=_worker_env(), cwd=work)
        try:
            line = proc.stdout.readline()
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{label} worker passed the "
                               f"{RUN_TIMEOUT_S} s deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if not line.startswith(b"ready ") or proc.returncode != 0:
        with open(err_path, encoding="utf-8") as fh:
            raise RuntimeError(f"{label} worker failed (exit "
                               f"{proc.returncode}):\n{fh.read()[-2000:]}")
    return float(line.split()[1])


def _run_worker(ops_path: str, work: str, label: str, trace: bool,
                deadline: float) -> tuple[float, dict]:
    result = os.path.join(work, f"{label}.json")
    extra = ["--ops", ops_path, "--work", os.path.join(work, label),
             "--result", result]
    if trace:
        extra.append("--trace")
    setup = _spawn(extra, work, label, deadline)
    with open(result, encoding="utf-8") as fh:
        return setup, json.load(fh)


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    value = ordered[int(rank) - 1]
    return value, sum(1 for v in ordered if v > value)


def end_to_end(ops: list[dict], passes: list[dict],
               setups: list[float]) -> dict:
    """End-to-end metrics of untraced passes over one op list, as
    name -> (value, unit). Latencies pool every op execution of every pass;
    op_p90_ms is left out unless at least 10 of them lie beyond it."""
    cpus = [r["cpu"] for run in passes for r in run["ops"]]
    end = [r["cpu"] for run in passes for op, r in zip(ops, run["ops"])
           if op["config"].get("q") == Q_END]
    m = {"setup_s": (statistics.median(setups), "s"),
         "cpu_s": (statistics.median(run["cpu_s"] for run in passes), "s"),
         "op_p50_ms": (1e3 * statistics.median(cpus), "ms")}
    p90, beyond = percentile(cpus, 90)
    if beyond >= 10:
        m["op_p90_ms"] = (1e3 * p90, "ms")
    if end:
        m["q099_p50_ms"] = (1e3 * statistics.median(end), "ms")
    m["peak_rss_mb"] = (max(run["peak_rss_mb"] for run in passes), "MB")
    return m


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the worker is killed and waited for, and the work
    # directory removed, by the `finally` blocks on the way out
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "qfrac", "__init__.py")):
        print(f"perfbench: no qfrac source tree at {ROOT}/src/qfrac",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    pass_seconds = args.seconds / PASSES
    ops = workloads.build(args.workload, args.seed, pass_seconds)
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ops_path = os.path.join(work, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        setups, passes = [], []
        if not args.trace:
            _spawn(["--probe"], work, "warmup", deadline)  # writes .pyc
            setups = [_spawn(["--probe"], work, f"probe{i}", deadline)
                      for i in range(SETUP_PROBES)]
        for k in range(1 if args.trace else PASSES):
            setup, run = _run_worker(ops_path, work, f"pass{k}", False,
                                     deadline)
            setups.append(setup)
            passes.append(run)
        plain = passes[0]
        traced = None
        if args.trace:
            _, traced = _run_worker(ops_path, work, "traced", True, deadline)
            os.makedirs(TRACE_DIR, exist_ok=True)
            spans_path = os.path.join(
                TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
            shutil.move(os.path.join(work, "traced", "spans.jsonl"),
                        spans_path)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every op of every pass is checked; a later pass (or the traced run)
    # must also give the first pass's state and output bytes
    states, problems = [], []
    for k, run in enumerate(passes + ([traced] if traced else [])):
        label = "traced" if run is traced else f"pass {k}"
        for i, (a, b) in enumerate(zip(plain["ops"], run["ops"])):
            state = b["state"]
            if state != "ok":
                problems.append((state, f"{label} op {i}: {state}: "
                                        f"{b['detail']}"))
            if a["digest"] != b["digest"] or a["state"] != state:
                state = "incorrect"
                problems.append((state, f"{label} op {i}: output differs "
                                        "from pass 0"))
            states.append(state)
    if traced is not None:
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["trace.overhead"] = (traced["cpu_s"] / plain["cpu_s"],
                                     "ratio")
    else:
        metrics = end_to_end(ops, passes, setups)

    attempted = len(states)
    failed = sum(s != "ok" for s in states)
    correct = "incorrect" not in states
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "ops": len(ops), "passes": len(passes), "attempted": attempted,
              "rounds": workloads.rounds_for(args.workload, pass_seconds),
              "pass_wall_s": statistics.median(r["wall_s"] for r in passes),
              "cpu_share": (sum(r["cpu_s"] for r in passes)
                            / sum(r["wall_s"] for r in passes)),
              **plain["versions"], "nproc": os.cpu_count(),
              "cpu": _cpu_model(), "blas_threads": BLAS_THREADS,
              "setup_samples": len(setups), "client": "1, closed loop"}
    if traced is not None:
        record["spans"] = os.path.relpath(spans_path, ROOT)
    print("record " + json.dumps(record))
    # incorrect ops first: they are what makes the run fail
    for _, line in sorted(problems, key=lambda p: p[0] != "incorrect")[:20]:
        print("check " + line)
    print(f"metric fail_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} op executions)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
