"""Command-line front end.

    qfrac <command> --config <path> [--out <path>] [--format csv|json]

Commands: eval (operator tables), solve (Picard solver), verify (identity
registry), ml (q-Mittag-Leffler partial sums). Configs are flat
`key = value` text files with `#` comments; unknown keys are errors.
The environment variable QFRAC_MAX_TERMS overrides SeriesControl.max_terms.

Exit codes: 0 success; 1 verify failures; 2 config validation; 3 numerical
failure (non-convergence, expression overflow, non-finite values); 4 solver
max_iter exhausted; 5 trust-region exit.
"""

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace

from . import cauchy, exprparse
from .errors import ConvergenceError, DomainError, PoleError, TrustRegionError
from .operators import FracOrder, OperatorContext, caputo_derivative, \
    frac_derivative_rl, frac_integral
from .qcalc import QLattice
from .qcore import DEFAULT_INTEGRATION_CTRL, QParams, SeriesControl
from .verify import _QS, run_registry

__all__ = ["main", "RunConfig", "load_config"]

_OPERATORS = ("J", "D", "caputo")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One run's settings. Its fields are the config keys, each parsed as
    its field's type (X for X | None)."""

    command: str
    q: float | None = None
    p: float = 1.0
    alpha: float | None = None
    a: float = 0.0
    b: float = 1.0
    zeta: float | None = None
    rhs: str | None = None
    r: float = 1.0
    lipschitz_a: float | None = None
    lattice_depth: int = 12
    tol: float = 1e-10
    max_iter: int = 50
    operator: str | None = None
    function: str | None = None
    m_terms: int | None = None
    given = frozenset()  # keys the file set; unannotated, so not a key

    def resolved(self) -> dict:
        """Fully resolved key = value view, embedded in JSON reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


_KEY_TYPES = {f.name: (typing.get_args(f.type) or (f.type,))[0]
              for f in fields(RunConfig)}


def load_config(path: str, command: str) -> RunConfig:
    """Parse and validate a flat key = value config file."""
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    cfg = RunConfig(command=command)
    for key, value in raw.items():
        typ = _KEY_TYPES[key]
        try:
            parsed = typ(value)
        except ValueError as exc:
            raise ConfigError(
                f"{key}: cannot parse {value!r} as {typ.__name__}") from exc
        if typ is float and not math.isfinite(parsed):
            raise ConfigError(f"{key}: must be finite, got {parsed}")
        setattr(cfg, key, parsed)
    if "command" in raw and raw["command"] != command:
        raise ConfigError(
            f"command: config says {raw['command']!r} but the "
            f"{command!r} subcommand was invoked")
    cfg.command, cfg.given = command, frozenset(raw)
    _validate(cfg)
    return cfg


def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"{key}: required for command {cfg.command!r}")


def _validate(cfg: RunConfig) -> None:
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"command: must be one of {', '.join(_COMMANDS)}")
    if cfg.command != "verify":
        _require(cfg, "q", "alpha")
    if cfg.q is not None and not 0.0 < cfg.q < 1.0:
        raise ConfigError(f"q: must lie in (0, 1), got {cfg.q}")
    if cfg.command != "verify" and not 0.0 < cfg.alpha < 1.0:
        raise ConfigError(f"alpha: must lie in (0, 1), got {cfg.alpha}")
    if not cfg.p > 0.0:
        raise ConfigError(f"p: must be positive, got {cfg.p}")
    for q in _QS if cfg.q is None else (cfg.q,):  # verify's grid, or q
        try:
            QParams(q, cfg.p)
        except DomainError as exc:
            raise ConfigError(f"p: {exc}") from exc
    if cfg.a < 0.0:
        raise ConfigError(f"a: must be nonnegative, got {cfg.a}")
    if not cfg.b > cfg.a:
        raise ConfigError(f"b: must exceed a, got a={cfg.a}, b={cfg.b}")
    if cfg.lattice_depth < 1:
        raise ConfigError(f"lattice_depth: must be >= 1, got "
                          f"{cfg.lattice_depth}")
    if not cfg.tol > 0.0:
        raise ConfigError(f"tol: must be positive, got {cfg.tol}")
    if cfg.max_iter < 1:
        raise ConfigError(f"max_iter: must be >= 1, got {cfg.max_iter}")
    if not cfg.r > 0.0:
        raise ConfigError(f"r: must be positive, got {cfg.r}")
    if cfg.lipschitz_a is not None and not cfg.lipschitz_a > 0.0:
        raise ConfigError(f"lipschitz_a: must be positive, got "
                          f"{cfg.lipschitz_a}")
    if cfg.command == "eval":
        _require(cfg, "operator", "function")
        if cfg.operator not in _OPERATORS:
            raise ConfigError(
                f"operator: must be one of {', '.join(_OPERATORS)}")
    elif cfg.command == "solve":
        _require(cfg, "zeta", "rhs")
        if not math.isfinite((cfg.zeta + cfg.r) - (cfg.zeta - cfg.r)):
            raise ConfigError(
                f"r: the trust region [zeta - r, zeta + r] is wider than "
                f"float range, got zeta={cfg.zeta}, r={cfg.r}")
    elif cfg.command == "ml":
        _require(cfg, "m_terms")
        if cfg.m_terms < 0:
            raise ConfigError(f"m_terms: must be nonnegative, got "
                              f"{cfg.m_terms}")


def _series_control() -> SeriesControl:
    ctrl = DEFAULT_INTEGRATION_CTRL
    override = os.environ.get("QFRAC_MAX_TERMS")
    if override is not None:
        try:
            max_terms = int(override)
        except ValueError as exc:
            raise ConfigError(
                f"QFRAC_MAX_TERMS: cannot parse {override!r} as int"
            ) from exc
        try:
            ctrl = replace(ctrl, max_terms=max_terms)
        except DomainError as exc:
            raise ConfigError(f"QFRAC_MAX_TERMS: {exc}") from exc
    return ctrl


def _fmt(value: float) -> str:
    return f"{value:.17g}"


_TMP_IDS = itertools.count()  # with the pid, no two calls share a name


def _write_atomic(path: str | None, text: str) -> bool:
    """Write text to stdout, or where open(path, "w") would: into a device
    or FIFO in place, and through a symlink to its target. A regular file,
    new or not, is replaced whole with the mode open would leave. True
    when the text went to a regular file."""
    if path is None:
        sys.stdout.write(text)
        return False
    tmp = None
    try:
        try:  # follows links
            st = os.stat(path)
        except FileNotFoundError:
            st = None
        if st is not None and not stat.S_ISREG(st.st_mode):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return False
        # not before the stat: /dev/stdout on a pipe resolves to no path
        real = os.path.realpath(path)
        # short, so that any name open(path, "w") takes has its own
        stem = os.path.join(os.path.dirname(real), f".qfrac-{os.getpid()}-")
        while tmp is None:  # "x": a new file as "w" makes it; no old name
            with contextlib.suppress(FileExistsError):  # a crash left it
                tmp = open(f"{stem}{next(_TMP_IDS)}", "x", encoding="utf-8")
        with tmp:
            if st is not None:
                os.fchmod(tmp.fileno(), stat.S_IMODE(st.st_mode))
            tmp.write(text)
        os.replace(tmp.name, real)
    except OSError as exc:
        raise ConfigError(
            f"--out: cannot write {path}: {exc.strerror}") from exc
    finally:  # only the file this call made
        if tmp is not None and os.path.exists(tmp.name):
            os.unlink(tmp.name)
    return True


def _report_json(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) and a
    newline; a non-finite number raises FloatingPointError with json's
    words."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(
            f"report holds a non-finite number: {exc}") from None


def _write_table(cfg: RunConfig, out: str | None, fmt: str, column: str,
                 rows: list[tuple[float, float]],
                 report: dict | None = None) -> None:
    """The x,<column> table of eval, ml and solve. As JSON it carries the
    report's fields; as CSV the report goes beside it, to the
    <out>.report.json sidecar, or to stderr when there is no --out or it
    is not a regular file (a device or FIFO has no place beside it)."""
    payload = {"schema": 1, "config": cfg.resolved(), **(report or {})}
    if fmt == "json":
        payload["table"] = {"x": [x for x, _ in rows],
                            column: [v for _, v in rows]}
        _write_atomic(out, _report_json(payload))
        return
    sidecar = None if report is None else _report_json(payload)
    regular = _write_atomic(out, f"x,{column}\n" + "".join(
        f"{_fmt(x)},{_fmt(v)}\n" for x, v in rows))
    if sidecar is not None and regular:
        _write_atomic(out + ".report.json", sidecar)
    elif sidecar is not None:
        sys.stderr.write(sidecar)


def _compiled_function(source: str, variables: tuple[str, ...],
                       cfg: RunConfig):
    """The expression as a function of variables, called positionally,
    with q, p and alpha bound from the config."""
    expr = exprparse.parse(source, {*variables, "q", "p", "alpha"})
    return exprparse.compile(expr, variables,
                             {"q": cfg.q, "p": cfg.p, "alpha": cfg.alpha})


def _cmd_eval(cfg: RunConfig, ctrl: SeriesControl, out: str | None,
              fmt: str) -> int:
    f = _compiled_function(cfg.function, ("x",), cfg)
    params = QParams(cfg.q, cfg.p)
    ctx = OperatorContext(params, a=cfg.a, ctrl=ctrl)
    order = FracOrder(cfg.alpha)
    op = {"J": frac_integral, "D": frac_derivative_rl,
          "caputo": caputo_derivative}[cfg.operator]
    lattice = QLattice(cfg.b, cfg.q, cfg.lattice_depth, floor_a=cfg.a)
    try:
        values = op(f, lattice, order, ctx).tolist()
    except (ConvergenceError, PoleError, DomainError) as exc:
        print(f"operator {cfg.operator} failed: {exc}", file=sys.stderr)
        return 3
    rows = list(zip(lattice.nodes, values))
    for x, v in rows:
        if not math.isfinite(v):
            print(f"operator {cfg.operator} gave {v} at node x={_fmt(x)}",
                  file=sys.stderr)
            return 3
    _write_table(cfg, out, fmt, "value", rows)
    return 0


def _cmd_ml(cfg: RunConfig, ctrl: SeriesControl, out: str | None,
            fmt: str) -> int:
    params = QParams(cfg.q, cfg.p)
    order = FracOrder(cfg.alpha)
    lattice = QLattice(cfg.b, cfg.q, cfg.lattice_depth, floor_a=cfg.a)
    # its terms grow like (x**p (1 - q))**(n alpha): past the radius a
    # partial sum is no value of the series
    past = [x for x in lattice.nodes
            if cfg.p * math.log(x) + math.log1p(-cfg.q) >= 0.0]
    if cfg.m_terms and past:
        print(f"q-Mittag-Leffler series diverges: node x={past[0]!r} has "
              f"x**p (1 - q) >= 1", file=sys.stderr)
        return 3
    try:
        rows = [(x, cauchy.q_mittag_leffler(x, cfg.m_terms, order, params,
                                            ctrl))
                for x in lattice.nodes]
    except (ConvergenceError, PoleError) as exc:
        print(f"q-Mittag-Leffler evaluation failed: {exc}", file=sys.stderr)
        return 3
    _write_table(cfg, out, fmt, "value", rows)
    return 0


def _cmd_solve(cfg: RunConfig, ctrl: SeriesControl, out: str | None,
               fmt: str) -> int:
    rhs = _compiled_function(cfg.rhs, ("t", "u"), cfg)
    problem = cauchy.CauchyProblem(
        rhs=rhs, a=cfg.a, b=cfg.b, zeta=cfg.zeta,
        order=FracOrder(cfg.alpha), params=QParams(cfg.q, cfg.p),
        lipschitz_A=cfg.lipschitz_a, radius_r=cfg.r,
    )
    lattice = QLattice(cfg.b, cfg.q, cfg.lattice_depth, floor_a=cfg.a)
    try:
        report = cauchy.solve(problem, lattice, tol=cfg.tol,
                              max_iter=cfg.max_iter, ctrl=ctrl)
    except DomainError as exc:
        print(f"lattice_depth: {exc}", file=sys.stderr)
        return 2
    except TrustRegionError as exc:
        print(f"trust-region exit: {exc}", file=sys.stderr)
        return 5
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3

    record = {f.name: getattr(report, f.name) for f in fields(report)
              if f.name != "solution"}
    record["apriori_bounds"] = [bd if math.isfinite(bd) else None
                                for bd in report.apriori_bounds]
    if not math.isfinite(report.bound_slack):  # a bound of 0 under a residual
        record["bound_slack"] = None
    _write_table(cfg, out, fmt, "u", list(zip(lattice.nodes,
                                              report.solution)), record)
    if not report.converged:
        last = report.residuals[-2:]
        ratio = (f", ratio {last[1] / last[0]:.4g}"
                 if len(last) == 2 and last[0] else "")
        print(f"solver did not converge within max_iter={cfg.max_iter} "
              f"(last residual {last[-1]:.3e}{ratio})", file=sys.stderr)
        return 4
    return 0


def _cmd_verify(cfg: RunConfig, ctrl: SeriesControl, out: str | None,
                fmt: str) -> int:
    """The registry's results as JSON, whatever fmt."""
    results = run_registry({key: getattr(cfg, key) for key in ("q", "p")
                            if key in cfg.given}, ctrl)
    payload = {
        "schema": 1,
        "config": cfg.resolved(),
        "identity_results": [
            {**asdict(r),
             "max_error": r.max_error if math.isfinite(r.max_error) else None}
            for r in results
        ],
    }
    _write_atomic(out, _report_json(payload))
    failing = [r.name for r in results if not r.passed]
    if failing:
        print("failing identities: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


_COMMANDS = {"eval": _cmd_eval, "solve": _cmd_solve, "verify": _cmd_verify,
             "ml": _cmd_ml}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfrac",
        description="Generalized q-fractional calculus operators and solver.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True,
                        help="flat key = value config file")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        return _COMMANDS[args.command](cfg, _series_control(), args.out,
                                       args.format)
    except (ConfigError, exprparse.ParseError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except exprparse.EvalError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
