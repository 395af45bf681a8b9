"""One benchmark worker: a fresh process that imports qfrac once and runs a
fixed op list in-process, closed loop, one op at a time.

    python3 worker.py --src SRC --probe
    python3 worker.py --src SRC --ops OPS.json --work DIR --result OUT.json
                      [--trace]

It prints "ready <s>" on stdout as soon as `import qfrac` and `import
qfrac.cli` have returned, <s> being the CPU seconds the process has used so
far (set-up). With --probe it exits there. Otherwise it writes one config
file per op, runs the ops as `qfrac.cli.main(argv)` calls, records each
op's CPU time (process_time: the worker is single-threaded, BLAS included),
exit code and output digest, and the wall and CPU time of the whole list,
then (outside the timed loop) checks every output and writes OUT.json.
"""

import sys
import time


def _import_qfrac(src: str):
    sys.path.insert(0, src)
    import qfrac
    import qfrac.cli
    return qfrac


def main() -> int:
    args = sys.argv[1:]
    qfrac = _import_qfrac(args[args.index("--src") + 1])
    sys.stdout.write(f"ready {time.process_time()!r}\n")
    sys.stdout.flush()
    if "--probe" in args:
        return 0

    import contextlib
    import hashlib
    import io
    import json
    import os
    import resource

    import numpy as np

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import checks
    import tracing

    def opt(name):
        return args[args.index(name) + 1]

    with open(opt("--ops"), encoding="utf-8") as fh:
        ops = json.load(fh)
    work = opt("--work")
    os.makedirs(work, exist_ok=True)

    def config_text(cfg: dict) -> str:
        return "".join(f"{k} = {v!r}\n" if isinstance(v, float)
                       else f"{k} = {v}\n" for k, v in cfg.items())

    # Inputs exist before the clock starts, as a user's config would.
    jobs = []
    for i, op in enumerate(ops):
        cfg_path = os.path.join(work, f"op{i}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(config_text(op["config"]) or "# default grid\n")
        out = os.path.join(work, f"op{i}.out")
        jobs.append(([op["command"], "--config", cfg_path, "--out", out,
                      "--format", op["format"]], out))

    tracer = None
    if "--trace" in args:
        tracer = tracing.Tracer()
        tracer.install()

    records = []
    clock, cpu_clock = time.perf_counter, time.process_time
    wall_start, cpu_start = clock(), cpu_clock()
    for argv, _ in jobs:
        rec: dict = {}
        sink_out, sink_err = io.StringIO(), io.StringIO()
        cpu = cpu_clock()
        try:
            with contextlib.redirect_stdout(sink_out), \
                    contextlib.redirect_stderr(sink_err):
                if tracer is None:
                    rec["rc"] = qfrac.cli.main(argv)
                else:
                    rec["rc"] = tracer.span("cli.main", qfrac.cli.main, argv)
        except Exception as exc:  # a crash is a result, not an abort
            rec["crash"] = f"{type(exc).__name__}: {exc}"
        rec["cpu"] = cpu_clock() - cpu
        rec["stderr"] = sink_err.getvalue()
        records.append(rec)
    cpu, wall = cpu_clock() - cpu_start, clock() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.finish()
        outputs = [path for _, out in jobs
                   for path in (out, out + ".report.json")]
        out_bytes = sum(os.path.getsize(p) for p in outputs
                        if os.path.exists(p))
        from qfrac.verify import IDENTITY_NAMES
        layers = tracing.layer_metrics(tracer, IDENTITY_NAMES, out_bytes)
        tracer.write(os.path.join(work, "spans.jsonl"))

    results = []
    for op, rec, (_, out) in zip(ops, records, jobs):
        digest = hashlib.sha256()
        for path in (out, out + ".report.json"):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        state, detail = checks.check_cli(op, rec, out)
        results.append({"cpu": rec["cpu"], "state": state, "detail": detail,
                        "digest": digest.hexdigest()})
    for i, op in enumerate(ops):
        j = op.get("repeat_of")
        if j is not None and results[i]["digest"] != results[j]["digest"]:
            results[i].update(state="incorrect",
                              detail=f"output differs from op {j}, "
                                     "same input")

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open(opt("--result"), "w", encoding="utf-8") as fh:
        json.dump({"cpu_s": cpu, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
                   "ops": results, "layers": layers,
                   "versions": {"python": sys.version.split()[0],
                                "numpy": np.__version__,
                                "blas": f"{blas.get('name')} "
                                        f"{blas.get('version')}"}},
                  fh, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
