"""Layer spans recorded from outside the program.

The tracer replaces public qfrac names with timing wrappers at the module
attribute each caller looks up at call time (a function's globals are read
at every call, so patching `qfrac.cauchy.apriori_bound` also catches the
call inside `qfrac.cauchy.solve`). Nothing inside the package changes.

Three kinds of wrapper:

* spans, one record per call with its parent span, for coarse boundaries
  (a CLI command, a solve, an operator call, an identity check);
* leaves, for calls made thousands of times per op (rhs evaluations,
  expression evaluation, q-products): counted and timed into one total per
  name, so memory stays bounded;
* counters, for the functions handed to operators: counted only.

Every span and leaf adds its duration to the `covered` dict of the frame
it ran in, keyed by its name, so a span's self time is its duration minus
what its children cover. Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time

_clock = time.perf_counter

# qfrac.operators entry points, wrapped where qfrac.cli and qfrac.verify
# bind them
OPERATOR_NAMES = ("frac_integral", "frac_derivative_rl", "caputo_derivative",
                  "caputo_derivative_simplified",
                  "caputo_rl_relation_residual", "inversion_residuals",
                  "lemma_beta_integral", "bound_constant")


class Tracer:
    def __init__(self) -> None:
        # span record: [id, name, parent_id, start, end, covered, attrs]
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}  # name -> [count, seconds]
        self.counts: dict[str, int] = {}
        self._covered: list[dict] = [{}]  # covered dict of each open frame
        self._span_ids: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, attrs: dict | None = None,
             **kwargs):
        record = [len(self.spans), name, self._span_ids[-1], 0.0, 0.0, {},
                  {} if attrs is None else attrs]
        self.spans.append(record)
        self._span_ids.append(record[0])
        self._covered.append(record[5])
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._covered.pop()
            self._span_ids.pop()
            parent = self._covered[-1]
            parent[name] = parent.get(name, 0.0) + (end - start)
            record[3], record[4] = start, end

    def leaf(self, name: str, fn):
        """Wrap a callable so each call is counted and timed as a leaf."""
        covered, clock = self._covered, _clock
        total = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered.append({})
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                covered.pop()
                parent = covered[-1]
                parent[name] = parent.get(name, 0.0) + dur
                total[0] += 1
                total[1] += dur

        return wrapper

    def counter(self, name: str, fn):
        """Wrap a callable so its calls are counted, not timed."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def finish(self) -> None:
        """Undo the patches, then derive each solve's computed counts from
        the public node table, outside the timed loop: nodes, active nodes
        (nodes > a) and madds = iterations x sum over active idx of
        (nodes - idx)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        from qfrac import solver_nodes

        for rec in self.spans:
            if rec[1] != "cauchy.solve":
                continue
            attrs = rec[6]
            problem, ctrl = attrs["problem"], attrs["ctrl"]
            nodes = (solver_nodes(problem) if ctrl is None
                     else solver_nodes(problem, ctrl))
            active = [i for i, w in enumerate(nodes) if w > problem.a]
            iterations = attrs.get("iterations", 0)  # 0 if solve raised
            rec[6] = {"nodes": len(nodes), "active_nodes": len(active),
                      "iterations": iterations,
                      "madds": iterations * sum(len(nodes) - i
                                                for i in active)}

    def install(self) -> None:
        """Wrap the public layer boundaries of an imported qfrac package."""
        from qfrac import cauchy, cli, exprparse, operators, qcore, verify

        def spanned(name):
            return lambda fn: functools.wraps(fn)(
                lambda *a, **k: self.span(name, fn, *a, **k))

        self._patch(cli, "load_config", spanned("cli.load_config"))
        self._patch(exprparse, "parse", spanned("exprparse.parse"))
        self._patch(exprparse, "evaluate", self._outermost_evaluate)
        self._patch(cauchy, "apriori_bound", spanned("cauchy.apriori_bound"))
        self._patch(cauchy, "estimate_lipschitz",
                    spanned("cauchy.estimate_lipschitz"))
        self._patch(cauchy, "solve", self._solve_wrapper)
        for module in (cli, verify):
            for attr in OPERATOR_NAMES:
                if hasattr(module, attr):
                    self._patch(module, attr, self._operator_wrapper(attr))
        for module in (qcore, operators, cauchy, verify):
            for attr, leaf in (("q_pochhammer_infinite", "qcore.poch_inf"),
                               ("q_gamma", "qcore.gamma"),
                               ("q_power_general", "qcore.qpower")):
                if hasattr(module, attr):
                    self._patch(module, attr,
                                lambda fn, leaf=leaf: self.leaf(leaf, fn))
        self._patch(verify, "jackson_integral",
                    spanned("qcalc.jackson_integral"))
        self._patch(verify, "run_identity", lambda fn: functools.wraps(fn)(
            lambda name, *a, **k: self.span(
                "verify.run_identity", fn, name, *a,
                attrs={"identity": name}, **k)))

    def _outermost_evaluate(self, evaluate):
        """exprparse.evaluate recurses through its module global; while the
        outermost call runs, the global is the original again, so only
        outermost calls are timed and nested ones cost nothing extra."""
        from qfrac import exprparse

        timed = self.leaf("exprparse.evaluate", evaluate)

        @functools.wraps(evaluate)
        def wrapper(expr, bindings):
            exprparse.evaluate = evaluate
            try:
                return timed(expr, bindings)
            finally:
                exprparse.evaluate = wrapper

        return wrapper

    def _operator_wrapper(self, attr: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                args = tuple(self.counter("operators.fn", x) if callable(x)
                             else x for x in args)
                return self.span(f"operators.{attr}", fn, *args, **kwargs)
            return wrapper
        return make

    def _solve_wrapper(self, solve):
        """Span each solve; its rhs becomes a leaf. The problem copy that
        carries the wrapped rhs is made in a `trace.wrap_rhs` child span,
        so its cost lands in no layer. The span keeps (problem, ctrl,
        iterations); `finish` turns them into counts."""

        def wrap_rhs(problem):
            return dataclasses.replace(
                problem, rhs=self.leaf("cauchy.rhs", problem.rhs))

        def traced_solve(problem, *args, **kwargs):
            problem = self.span("trace.wrap_rhs", wrap_rhs, problem)
            return solve(problem, *args, **kwargs)

        @functools.wraps(solve)
        def wrapper(problem, *args, **kwargs):
            attrs = {"problem": problem,
                     "ctrl": kwargs.get("ctrl",
                                        args[3] if len(args) > 3 else None)}
            report = self.span("cauchy.solve", traced_solve, problem, *args,
                               attrs=attrs, **kwargs)
            attrs["iterations"] = report.iterations_used
            return report

        return wrapper

    # -- output ---------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end, covered, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent,
                    "start": start, "end": end, "covered": covered,
                    "attrs": attrs}) + "\n")
            for name, (count, secs) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "count": count,
                                     "seconds": secs}) + "\n")
            for name, count in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "count": count}) + "\n")


_OPERATOR_SPANS = tuple(f"operators.{name}" for name in OPERATOR_NAMES)


def layer_metrics(tracer: Tracer, identity_names, out_bytes: int) -> dict:
    """Per-layer totals from the recorded spans and leaf aggregates.

    Values are (value, unit) pairs; times are in ms, counts exact.
    """
    by_name: dict[str, list] = {}
    for rec in tracer.spans:
        by_name.setdefault(rec[1], []).append(rec)
    span_names = {rec[0]: rec[1] for rec in tracer.spans}

    def total_ms(name):
        return 1e3 * sum(r[4] - r[3] for r in by_name.get(name, ()))

    def self_ms(name, only=None):
        total = 0.0
        for r in by_name.get(name, ()):
            covered = r[5] if only is None else {
                k: v for k, v in r[5].items() if k in only}
            total += r[4] - r[3] - sum(covered.values())
        return 1e3 * total

    def leaf(name):
        count, secs = tracer.leaves.get(name, (0, 0.0))
        return count, 1e3 * secs

    def attr_sum(name, key):
        return sum(r[6].get(key, 0) for r in by_name.get(name, ()))

    evals, eval_ms = leaf("exprparse.evaluate")
    rhs_evals, _ = leaf("cauchy.rhs")
    fn_evals = tracer.counts.get("operators.fn", 0)
    poch_calls, poch_ms = leaf("qcore.poch_inf")
    gamma_calls, _ = leaf("qcore.gamma")
    qpower_calls, qpower_ms = leaf("qcore.qpower")
    # solve minus rhs, a-priori and Lipschitz spans: engine build + steps
    cauchy_self = self_ms("cauchy.solve", only=(
        "cauchy.rhs", "cauchy.apriori_bound", "cauchy.estimate_lipschitz",
        "trace.wrap_rhs"))
    madds = attr_sum("cauchy.solve", "madds")
    op_recs = [r for name in _OPERATOR_SPANS for r in by_name.get(name, ())]
    outer_ops = [r for r in op_recs
                 if span_names.get(r[2]) not in _OPERATOR_SPANS]
    identity_ms = {name: 0.0 for name in identity_names}
    for r in by_name.get("verify.run_identity", ()):
        identity_ms[r[6]["identity"]] += 1e3 * (r[4] - r[3])

    m = {
        "cli.load_config_ms": (total_ms("cli.load_config"), "ms"),
        "cli.self_ms": (self_ms("cli.main"), "ms"),
        "cli.out_bytes": (out_bytes, "B"),
        "exprparse.parse_ms": (total_ms("exprparse.parse"), "ms"),
        "exprparse.evals": (evals, "count"),
        "exprparse.eval_ms": (eval_ms, "ms"),
        "exprparse.us_per_eval": (1e3 * eval_ms / evals if evals else 0.0,
                                  "us"),
        "cauchy.solves": (len(by_name.get("cauchy.solve", ())), "count"),
        "cauchy.nodes": (attr_sum("cauchy.solve", "nodes"), "count"),
        "cauchy.active_nodes": (attr_sum("cauchy.solve", "active_nodes"),
                                "count"),
        "cauchy.iterations": (attr_sum("cauchy.solve", "iterations"),
                              "count"),
        "cauchy.rhs_evals": (rhs_evals, "count"),
        "cauchy.self_ms": (cauchy_self, "ms"),
        "cauchy.lipschitz_ms": (total_ms("cauchy.estimate_lipschitz"), "ms"),
        "cauchy.apriori_ms": (total_ms("cauchy.apriori_bound"), "ms"),
        "cauchy.madds": (madds, "count"),
        "cauchy.madd_per_s": (madds / (cauchy_self / 1e3)
                              if cauchy_self > 0 else 0.0, "1/s"),
        "operators.calls": (len(op_recs), "count"),
        "operators.ms": (1e3 * sum(r[4] - r[3] for r in outer_ops), "ms"),
        "operators.self_ms": (sum(self_ms(n) for n in _OPERATOR_SPANS), "ms"),
        "operators.fn_evals": (fn_evals, "count"),
        "qcore.poch_inf_calls": (poch_calls, "count"),
        "qcore.poch_inf_ms": (poch_ms, "ms"),
        "qcore.gamma_calls": (gamma_calls, "count"),
        "qcore.qpower_calls": (qpower_calls, "count"),
        "qcore.qpower_ms": (qpower_ms, "ms"),
        "qcalc.jackson_calls": (len(by_name.get("qcalc.jackson_integral", ())),
                                "count"),
        "qcalc.jackson_ms": (total_ms("qcalc.jackson_integral"), "ms"),
    }
    for name, ms in identity_ms.items():
        m[f"verify.{name}_ms"] = (ms, "ms")
    return m
