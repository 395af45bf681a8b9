"""Seeded op lists for the two benchmark workloads.

Pure data: nothing here imports qfrac. Each op is a JSON-able dict that the
worker turns into a `qfrac.cli.main(argv)` call. An op expects exit 0 and a
correct output unless it carries an `expect` entry naming the documented
failure it may end in instead. The same (workload, seed, seconds) always
gives the same list.

The grid structure of a list never depends on the seed, only its parameters
(alpha, coefficients, which ops carry `lipschitz_a`, output format) do, so
two seeds ask for the same amount of work.
"""

from __future__ import annotations

import random

QS = (0.5, 0.9, 0.99)
AS = (0.0, 0.25)

SOLVE_RHS = ("u", "-u + sin(t)", "u - u^2/8", "exp(-u) + t^2")
# Lipschitz constant of each rhs in u over [zeta - r, zeta + r] with
# zeta = 1, r = SOLVE_R; only feeds the a-priori bound.
SOLVE_R = 10.0
SOLVE_LIPSCHITZ = {"u": 1.0, "-u + sin(t)": 1.0,
                   "u - u^2/8": 1.0 + (1.0 + SOLVE_R) / 4.0,
                   "exp(-u) + t^2": 2.718281828459045 ** (SOLVE_R - 1.0)}
OPERATORS = ("J", "D", "caputo")
EVAL_DEPTH = 20

# Ops that end in a documented failure: the q-difference stencil of D
# and caputo at node x reads f(qx), and on a depth-20 lattice with a = 0.25
# some node x > a has qx <= a (the 2nd node at q = 0.5, the 14th at
# q = 0.9); at q = 0.99 every node stays above a / q. qfrac exits 3 there.
STENCIL_EXIT = {"exit": 3,
                "stderr": "q-difference stencil leaves the domain"}
STENCIL_CELLS = {(op, q, 0.25) for op in ("D", "caputo")
                 for q in (0.5, 0.9)}

# Seconds one round of each workload takes on the reference host (2-vCPU
# Xeon, Python 3.11); --seconds / this gives the number of rounds, so the
# op list is fixed for a given --seconds and does not depend on host speed.
ROUND_SECONDS = {"solve_grid": 2.9, "operators_eval": 3.75}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds / ROUND_SECONDS[workload]))


def _stratified_alphas(rng: random.Random, n: int,
                       used: set[float]) -> list[float]:
    """n distinct alphas in [0.4, 0.8], one near the centre of each of n
    equal strata, in random order. Solve cost grows like 1/alpha, so the
    seed moves each alpha only within the middle fifth of its stratum and
    every list asks for the same work."""
    out = []
    for k in rng.sample(range(n), n):
        while True:
            alpha = round(0.4 + 0.4 * (k + 0.4 + 0.2 * rng.random()) / n, 6)
            if alpha not in used:
                used.add(alpha)
                out.append(alpha)
                break
    return out


def _solve_grid(rng: random.Random, rounds: int) -> list[dict]:
    cells = [(q, a, rhs) for q in QS for a in AS for rhs in SOLVE_RHS]
    used: set[float] = set()
    alphas = {cell: _stratified_alphas(rng, rounds, used) for cell in cells}
    # lipschitz_a on two of the four rhs of each (q, a) per round, and on
    # each (q, a, rhs) in alternate rounds
    flip = {(q, a): rng.randrange(2) for q in QS for a in AS}
    ops: list[dict] = []
    for r in range(rounds):
        order = rng.sample(cells, len(cells))
        start = len(ops)
        for i, cell in enumerate(order):
            q, a, rhs = cell
            cfg = {"q": q, "alpha": alphas[cell][r], "a": a, "zeta": 1.0,
                   "rhs": rhs, "r": SOLVE_R, "tol": 1e-10, "max_iter": 300}
            if (r + SOLVE_RHS.index(rhs) + flip[(q, a)]) % 2:
                cfg["lipschitz_a"] = SOLVE_LIPSCHITZ[rhs]
            ops.append({"command": "solve", "config": cfg,
                        "format": "json" if i % 2 == 0 else "csv"})
        cheap = [i for i in range(start, len(ops))
                 if ops[i]["config"]["q"] == 0.5
                 and ops[i]["config"]["a"] == 0.0]
        ops.append(_repeat(ops, sorted(
            cheap, key=lambda i: ops[i]["config"]["rhs"]), r))
    return ops


def _repeat(ops: list[dict], candidates: list[int], r: int) -> dict:
    """Re-run candidates[r % len(candidates)]; the candidates come in an
    order that does not depend on the seed, so every round pays for the
    same kind of repeat whatever the seed."""
    target = candidates[r % len(candidates)]
    return {**ops[target], "repeat_of": target}


def _operators_eval(rng: random.Random, rounds: int) -> list[dict]:
    cells = [(op, q, a) for op in OPERATORS for q in QS for a in AS]
    used: set[float] = set()
    alphas = {cell: _stratified_alphas(rng, rounds, used) for cell in cells}
    ops: list[dict] = []
    for r in range(rounds):
        order = rng.sample(cells, len(cells))
        start = len(ops)
        for i, (op, q, a) in enumerate(order):
            d = round(rng.uniform(-1.0, 1.0), 4)
            c = round(rng.uniform(0.5, 2.0), 4)
            k = rng.choice((1, 2, 3))
            cfg = {"q": q, "alpha": alphas[(op, q, a)][r], "a": a,
                   "operator": op, "function": f"{d} + {c}*x^{k}",
                   "lattice_depth": EVAL_DEPTH}
            ops.append({"command": "eval", "config": cfg,
                        "format": "json" if i % 2 == 0 else "csv",
                        "poly": {"d": d, "c": c, "k": k}})
            if (op, q, a) in STENCIL_CELLS:
                ops[-1]["expect"] = STENCIL_EXIT
        # Repeats: a cheap op (q = 0.5, a = 0) and D or caputo at q = 0.99,
        # a = 0.25, the costliest ops. Balancing the ends puts the median op
        # inside the (similar) D and caputo ops at q = 0.9, a = 0, and the
        # slowest tenth inside the costliest group, so neither op_p50_ms
        # nor op_p90_ms sits on a cost gap. Both of those median ops are
        # repeated too, so op_p50_ms rests on twice as many samples.
        cheap = [i for i in range(start, len(ops))
                 if ops[i]["config"]["q"] == 0.5
                 and ops[i]["config"]["a"] == 0.0]
        costly = [i for i in range(start, len(ops))
                  if ops[i]["config"]["q"] == 0.99
                  and ops[i]["config"]["a"] == 0.25
                  and ops[i]["config"]["operator"] != "J"]
        middle = sorted((i for i in range(start, len(ops))
                         if ops[i]["config"]["q"] == 0.9
                         and ops[i]["config"]["a"] == 0.0
                         and ops[i]["config"]["operator"] != "J"),
                        key=lambda i: ops[i]["config"]["operator"])
        for group in (cheap, costly):
            ops.append(_repeat(ops, sorted(
                group, key=lambda i: ops[i]["config"]["operator"]), r))
        ops += [{**ops[i], "repeat_of": i} for i in middle]
    ops.append({"command": "verify", "config": {}, "format": "json"})
    return ops


_GENERATORS = {"solve_grid": _solve_grid, "operators_eval": _operators_eval}
WORKLOADS = tuple(_GENERATORS)


def build(workload: str, seed: int, seconds: float) -> list[dict]:
    """The op list of one run: a pure function of its arguments."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, rounds_for(workload, seconds))
