"""Output checks: each op's expected outcome, tested after the timed loop.

An op ends in one of three states:

* "ok": exit 0 and an output that passes its checks;
* "failed": the documented failure the op's `expect` entry names (exit
  code and a one-line message containing its text); counted in `failed`,
  the run stays correct;
* "incorrect": anything else: wrong output, a crash, any other non-zero
  exit, a solve reported as not converged, a verify failure. The run is
  marked incorrect and exits non-zero.
"""

from __future__ import annotations

import csv
import io
import json
import math

import qfrac

ML_TOL = 1e-10      # acceptance criterion 7
LEMMA_RTOL = 1e-9   # verify's beta_integral_lemma tolerance


def _lattice_nodes(q: float, depth: int, a: float) -> list[float]:
    return qfrac.QLattice(1.0, q, depth, floor_a=a).nodes


def _read_table(path: str, fmt: str, column: str):
    """(x, values, report payload) from a CLI table output."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        payload = json.loads(text)
        return payload["table"]["x"], payload["table"][column], payload
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["x", column]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    xs = [float(r[0]) for r in rows[1:]]
    vs = [float(r[1]) for r in rows[1:]]
    try:
        with open(path + ".report.json", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        payload = {}
    return xs, vs, payload


def _ml_error(xs, us, m: int, alpha: float, q: float, zeta: float) -> float:
    order, params = qfrac.FracOrder(alpha), qfrac.QParams(q)
    return max(abs(u - zeta * qfrac.q_mittag_leffler(x, m, order, params))
               for x, u in zip(xs, us))


def _check_solve_output(cfg: dict, xs, us, payload) -> str | None:
    if xs != _lattice_nodes(cfg["q"], 12, cfg["a"]):
        return "table x differs from the report lattice"
    if not all(math.isfinite(u) for u in us):
        return "non-finite value in solution"
    if payload.get("converged") is not True:
        return "report says not converged"
    if cfg["rhs"] == "u" and cfg["a"] == 0.0:
        err = _ml_error(xs, us, payload["iterations_used"], cfg["alpha"],
                        cfg["q"], cfg["zeta"])
        if not err <= ML_TOL:
            return f"q-Mittag-Leffler error {err:.3e} > {ML_TOL}"
    return None


def _check_eval_output(op: dict, xs, vs) -> str | None:
    cfg = op["config"]
    if xs != _lattice_nodes(cfg["q"], cfg["lattice_depth"], cfg["a"]):
        return "table x differs from the lattice"
    if not all(math.isfinite(v) for v in vs):
        return "non-finite operator value"
    if cfg["operator"] == "J" and cfg["a"] == 0.0:
        # J of d + c x^k at a = 0 from the closed-form beta integral
        q, alpha, poly = cfg["q"], cfg["alpha"], op["poly"]
        params = qfrac.QParams(q)
        coef = (qfrac.q_number(1.0, q) ** (1.0 - alpha)
                / qfrac.q_gamma(alpha, params.qp))
        for x, v in zip(xs, vs):
            want = coef * (
                poly["d"] * qfrac.lemma_beta_integral(0.0, x, alpha, 0.0,
                                                      params)
                + poly["c"] * qfrac.lemma_beta_integral(
                    0.0, x, alpha, float(poly["k"]), params))
            if not abs(v - want) <= LEMMA_RTOL * abs(want):
                return f"J at x={x!r}: {v!r} vs closed form {want!r}"
    return None


def _check_verify_output(path: str) -> str | None:
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)["identity_results"]
    failing = [r["name"] for r in results if not r["passed"]]
    if len(results) != 7 or failing:
        return f"identities failing: {failing} of {len(results)}"
    return None


def _failure_state(op: dict, rc, stderr: str) -> tuple[str, str]:
    message = stderr.strip()
    expect = op.get("expect")
    if (expect is not None and rc == expect["exit"]
            and "\n" not in message and expect["stderr"] in message):
        return "failed", f"exit {rc}: {message}"
    return "incorrect", f"exit {rc}: {message[-300:]}"


def check_cli(op: dict, rec: dict, out_path: str) -> tuple[str, str]:
    """State of one CLI op given its exit code and output file."""
    if rec.get("crash"):
        return "incorrect", rec["crash"]
    rc = rec["rc"]
    if op["command"] == "verify":
        if rc != 0:
            return "incorrect", f"verify exit {rc}: {rec['stderr'].strip()}"
        problem = _check_verify_output(out_path)
        return ("incorrect", problem) if problem else ("ok", "")
    if rc != 0:
        return _failure_state(op, rc, rec["stderr"])
    try:
        if op["command"] == "solve":
            xs, us, payload = _read_table(out_path, op["format"], "u")
            problem = _check_solve_output(op["config"], xs, us, payload)
        else:
            xs, vs, _ = _read_table(out_path, op["format"], "value")
            problem = _check_eval_output(op, xs, vs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    return ("incorrect", problem) if problem else ("ok", "")

