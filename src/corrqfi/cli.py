"""Command-line front end.

Subcommands:

    point     QFI at a single (channel, probe, p, mu) setting
    sweep     (p, mu) grid sweep written as CSV
    figure    reproduce one of the four reference-figure data sets
    check     closed-form vs numeric vs finite-difference consistency run
    estimate  Monte-Carlo Cramer-Rao compliance report
    heatmap   render a CSV written by sweep or figure as a text heatmap

Angles accept tiny arithmetic expressions ("pi/8", "3*pi/4"): numbers, pi
in any case, unary + -, binary + - * / (also x, × and ÷) and parentheses.
Python's ``ast`` parses them and a whitelist evaluates them.  A config file
of ``key = value`` lines (keys equal to the long flag names) can hold any
option; explicit flags override it.
"""

from __future__ import annotations

import argparse
import ast
from functools import cache
import math
import operator
import re
import sys
from pathlib import Path

from .channels import ChannelKind, ChannelSpec
from .metrology import EstimationConfig, cramer_rao_report
from .probes import Param, ProbeFamily, ProbeSpec
from .sweep import (
    Method,
    SweepConfig,
    cross_check,
    figure,
    read_csv,
    render_heatmap,
    run_point,
    run_sweep,
)

__all__ = ["main", "parse_angle"]


# ---------------------------------------------------------------------------
# tiny arithmetic expressions for angles: numbers, pi, + - * / and parens
# ---------------------------------------------------------------------------

_SPELLINGS = str.maketrans({"x": "*", "×": "*", "÷": "/"})
# every character of the language once respelled; keeps Python's "_" digit
# separators, "#" comments, "j" imaginaries and non-ASCII digits out
_ALPHABET = frozenset("0123456789.eEpiPI+-*/() ")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")  # Python rejects "07"
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _evaluate(node: ast.expr) -> float:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(str(node.value))  # via str, an int past the float range reads as inf
    if isinstance(node, ast.Name) and node.id.lower() == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    raise SyntaxError(type(node).__name__)


def parse_angle(text: str) -> float:
    """Evaluate an angle expression in radians ("pi/8", "0.5", "2*pi-1").

    Python parses the expression; only float arithmetic on numbers and pi
    (any case) with unary + -, binary + - * / and parentheses is evaluated.
    """
    text = str(text)
    # single spaces only: Python rejects newlines and a leading indent
    source = _LEADING_ZEROS.sub("", " ".join(text.translate(_SPELLINGS).split()))
    try:
        if not _ALPHABET.issuperset(source):
            raise SyntaxError(source)
        return _evaluate(ast.parse(source, mode="eval").body)
    except ZeroDivisionError:
        raise ValueError(f"division by zero in angle expression {text!r}") from None
    except (SyntaxError, RecursionError):
        raise ValueError(f"cannot parse angle expression {text!r}") from None


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _parse_params(text: str) -> tuple[Param, ...]:
    names = [t.strip() for t in str(text).split(",") if t.strip()]
    if not names:
        raise ValueError("at least one parameter required")
    return tuple(Param(n) for n in names)


# ---------------------------------------------------------------------------
# option registry: shared definitions + config-file merging
# ---------------------------------------------------------------------------

# name -> (parser, default, help); parser turns the flag/config string into a value
_OPTIONS = {
    "channel": (
        ChannelKind, None,
        "channel kind: depolarizing | bitflip | bitphaseflip | phaseflip",
    ),
    "family": (
        ProbeFamily, ProbeFamily.PHI_PLUS,
        "probe family: phi+ | phi- | psi+ | psi- | ewl (default phi+)",
    ),
    "theta": (
        parse_angle, math.pi / 8,
        "amplitude angle in radians; expressions like pi/8 accepted",
    ),
    "phi": (parse_angle, math.pi / 6, "relative phase in radians; expressions accepted"),
    "r": (float, None, "EWL mixing ratio in [0,1] (default 0.9); Bell-type probes accept only 1"),
    "n": (int, 2, "number of qubits (EWL only; Bell-type probes are two-qubit)"),
    "p": (float, 0.3, "decoherence strength in [0,1]"),
    "mu": (float, 0.0, "correlation strength in [0,1]"),
    "param": (
        _parse_params, (Param.THETA, Param.PHI),
        "parameter(s) to estimate: theta, phi, or theta,phi",
    ),
    "method": (Method, Method.BOTH, "sld | closed | both (default: both)"),
    "grid-p": (_parse_grid, (0.0, 1.0, 101), "p grid as start:stop:count (endpoints inclusive)"),
    "grid-mu": (_parse_grid, (0.0, 1.0, 101), "mu grid as start:stop:count (endpoints inclusive)"),
    "out": (str, None, "output path (CSV, heatmap text, or figure directory)"),
    "seed": (int, 0, "RNG seed"),
    "jobs": (
        int, 1,
        "worker processes for the sld rows of sweep (default 1); "
        "figure checks it but runs in one process",
    ),
    "which": (int, 1, "figure number: 1 | 2 | 3 | 4"),
    "points": (
        int, None,
        "grid points per axis, at least 2 (default 101 for figures 1-3, 21 for 4)",
    ),
    "samples": (int, 1000, "number of random tuples to draw"),
    "tol": (float, 1e-6, "abort threshold on |closed - numeric|"),
    "fd-tol": (float, 1e-5, "abort threshold on the finite-difference relative deviation"),
    "shots": (int, 10000, "measurement repetitions M per trial"),
    "trials": (int, 200, "independent estimation trials"),
    "csv": (str, None, "input CSV produced by the sweep or figure subcommands"),
}


def _add_options(parser: argparse.ArgumentParser, names: list[str]) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="config file of key = value lines; flags override it")
    for name in names:
        parser.add_argument(f"--{name}", type=str, default=None, help=_OPTIONS[name][2])


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace, names: list[str]) -> dict[str, object]:
    """Merge flag values, config-file values, and defaults (in that order)."""
    config = _load_config(args.config) if args.config else {}
    unknown = set(config) - set(names)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved: dict[str, object] = {}
    for name in names:
        parser, default, _ = _OPTIONS[name]
        raw = getattr(args, name.replace("-", "_"))
        if raw is None:
            raw = config.get(name)
        resolved[name] = default if raw is None else parser(raw)
    return resolved


def _build_probe(opt: dict[str, object]) -> ProbeSpec:
    return ProbeSpec(
        family=opt["family"],
        theta=opt["theta"],
        phi=opt["phi"],
        r=opt["r"],
        n_qubits=opt["n"],
    )


def _require(opt: dict[str, object], name: str) -> object:
    if opt[name] is None:
        raise ValueError(f"--{name} is required")
    return opt[name]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_PROBE_FLAGS = ["family", "theta", "phi", "r", "n"]


def _cmd_point(opt: dict[str, object]) -> int:
    probe = _build_probe(opt)
    channel = ChannelSpec(_require(opt, "channel"), opt["p"], opt["mu"])
    records = run_point(probe, channel, opt["param"], opt["method"])
    by_param: dict[str, dict[str, float]] = {}
    for rec in records:
        print(
            f"channel={rec.channel} family={rec.family} n={rec.n} p={rec.p:g} "
            f"mu={rec.mu:g} param={rec.param} method={rec.method} qfi={rec.qfi:.17g}"
        )
        by_param.setdefault(rec.param, {})[rec.method] = rec.qfi
    for param, values in by_param.items():
        if len(values) == 2:
            gap = abs(values["sld"] - values["closed"])
            print(f"param={param} |sld - closed| = {gap:.3e}")
    return 0


def _cmd_sweep(opt: dict[str, object]) -> int:
    config = SweepConfig(
        probe=_build_probe(opt),
        kind=_require(opt, "channel"),
        p_grid=opt["grid-p"],
        mu_grid=opt["grid-mu"],
        params=opt["param"],
        method=opt["method"],
        out=str(_require(opt, "out")),
    )
    records = run_sweep(config, jobs=opt["jobs"])
    print(f"wrote {len(records)} rows to {config.out}")
    return 0


def _cmd_figure(opt: dict[str, object]) -> int:
    out_dir = opt["out"] or "."
    csv_path, map_path = figure(
        int(opt["which"]), out_dir, points=opt["points"], jobs=opt["jobs"]
    )
    print(f"wrote {csv_path} and {map_path}")
    return 0


def _cmd_check(opt: dict[str, object]) -> int:
    report = cross_check(opt["samples"], seed=opt["seed"], tol=opt["tol"], fd_tol=opt["fd-tol"])
    print(report.format())
    return 0 if report.passed else 1


def _cmd_estimate(opt: dict[str, object]) -> int:
    probe = _build_probe(opt)
    channel = ChannelSpec(_require(opt, "channel"), opt["p"], opt["mu"])
    params: tuple[Param, ...] = opt["param"]
    if len(params) != 1:
        raise ValueError("estimate needs exactly one --param (theta or phi)")
    config = EstimationConfig(repetitions=opt["shots"], trials=opt["trials"], seed=opt["seed"])
    report = cramer_rao_report(probe, channel, params[0], config)
    print(report.format())
    return 0


def _cmd_heatmap(opt: dict[str, object]) -> int:
    out = opt["out"]
    text = render_heatmap(read_csv(str(_require(opt, "csv"))), out_path=out)
    if out is None:
        print(text, end="")
    else:
        print(f"wrote {out}")
    return 0


# name -> (handler, help, flags); the flags are also the config-file keys
_COMMANDS = {
    "point": (
        _cmd_point,
        "QFI at a single setting",
        ["channel", *_PROBE_FLAGS, "p", "mu", "param", "method"],
    ),
    "sweep": (
        _cmd_sweep,
        "QFI over a (p, mu) grid, written as CSV",
        ["channel", *_PROBE_FLAGS, "grid-p", "grid-mu", "param", "method", "out", "jobs"],
    ),
    "figure": (_cmd_figure, "emit reference-figure data (1-4)", ["which", "points", "out", "jobs"]),
    "check": (
        _cmd_check,
        "closed vs numeric vs finite-difference consistency",
        ["samples", "seed", "tol", "fd-tol"],
    ),
    "estimate": (
        _cmd_estimate,
        "Monte-Carlo Cramer-Rao compliance report",
        ["channel", *_PROBE_FLAGS, "p", "mu", "param", "shots", "trials", "seed"],
    ),
    "heatmap": (_cmd_heatmap, "render a sweep or figure CSV as a text heatmap", ["csv", "out"]),
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="corrqfi",
        description="Quantum Fisher information in classically correlated Pauli channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler, _, flags = _COMMANDS[args.command]
    try:
        return handler(_resolve(args, flags))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
