"""Grid sweeps, figure-data generation, cross-validation, and heatmaps.

Everything here is the CLI-independent machinery behind the command-line
front end: evaluating QFI over (p, mu) grids, emitting deterministic CSV,
rendering text heatmaps (of records, or of a CSV written by ``sweep`` or
``figure``), and running the closed-form / numeric / finite-difference
consistency check.

CSV rows follow the fixed schema

    channel,family,n,r,theta,phi,p,mu,param,method,qfi

with floats printed to 17 significant digits so files round-trip exactly
and identical configs produce byte-identical output.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
import io
import math
import os
from pathlib import Path

import numpy as np

from .channels import ChannelKind, ChannelSpec
from .closed_form import closed_form_qfi, closed_form_qfi_grid
from .probes import Param, ProbeFamily, ProbeSpec
from .qfi import _qfi_numeric, qfi_numeric, qfi_numeric_fd

__all__ = [
    "Method",
    "SweepConfig",
    "SweepRecord",
    "CheckReport",
    "CSV_HEADER",
    "evaluate_point",
    "run_point",
    "run_sweep",
    "write_csv",
    "read_csv",
    "cross_check",
    "figure",
    "render_heatmap",
]

CSV_HEADER = ("channel", "family", "n", "r", "theta", "phi", "p", "mu", "param", "method", "qfi")

# Methods keep a fixed emission order so that method=both sweeps are
# deterministic: the numeric SLD row first, then the closed-form row.
_METHOD_ORDER = ("sld", "closed")

# Loose physical cap used as an emission sanity bound.
_QFI_FLOOR = -1e-10

# Abort threshold for sld/closed disagreement when both are computed.
_BOTH_TOL = 1e-6

_SHADES = " .:-=+*#%@"


class Method(str, Enum):
    SLD = "sld"
    CLOSED = "closed"
    BOTH = "both"


@dataclass(frozen=True)
class SweepRecord:
    """One (channel, probe, p, mu, param, method) -> qfi result row."""

    channel: str
    family: str
    n: int
    r: float
    theta: float
    phi: float
    p: float
    mu: float
    param: str
    method: str
    qfi: float

    def __post_init__(self) -> None:
        if not (self.qfi >= _QFI_FLOOR and self.qfi <= 4.0 * self.n):
            raise ValueError(
                f"qfi {self.qfi} outside the sane range [{_QFI_FLOOR}, {4.0 * self.n}]"
            )


@dataclass(frozen=True)
class SweepConfig:
    """Axes and settings of one (p, mu) sweep."""

    probe: ProbeSpec
    kind: ChannelKind
    p_grid: tuple[float, float, int]
    mu_grid: tuple[float, float, int]
    params: tuple[Param, ...] = (Param.THETA, Param.PHI)
    method: Method | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ChannelKind(self.kind))
        object.__setattr__(self, "params", tuple(Param(p) for p in self.params))
        if self.method is not None:
            object.__setattr__(self, "method", Method(self.method))
        for name, grid in (("p", self.p_grid), ("mu", self.mu_grid)):
            start, stop, count = grid
            if count < 2:
                raise ValueError(f"{name}-grid count must be >= 2, got {count}")
            if not (0.0 <= start <= stop <= 1.0):
                raise ValueError(f"{name}-grid must satisfy 0 <= start <= stop <= 1")
        if not self.params:
            raise ValueError("at least one parameter required")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _grid(start: float, stop: float, count: int) -> np.ndarray:
    return np.linspace(start, stop, count)


def _resolve_method(probe: ProbeSpec, method: Method | None) -> Method:
    """The route(s) to run; the default runs both where closed forms exist.

    Closed forms cover only the two-qubit phi+ probe, for all four kinds.
    """
    closed = probe.family is ProbeFamily.PHI_PLUS
    if method is None:
        return Method.BOTH if closed else Method.SLD
    method = Method(method)
    if method is not Method.SLD and not closed:
        raise ValueError(
            "closed forms exist only for the two-qubit phi+ probe; "
            "use method=sld for this probe"
        )
    return method


def _rows(
    probe: ProbeSpec,
    kind: ChannelKind,
    ps,
    mus,
    params: tuple[Param, ...],
    method: Method | None,
    jobs: int | None = 1,
) -> list[SweepRecord]:
    """Rows over the (p, mu) grid ``ps`` x ``mus``, the one place a route runs.

    Row order: p outer, mu inner, then param, then method.  The sld route
    runs once per point and computes all parameters from one output
    eigensystem, in a process pool of min(jobs, points, cores) workers when
    that exceeds 1 (``jobs=None``: all cores); rows are still assembled in
    canonical order, so output is independent of the worker count.  The
    closed rows come from one ``closed_form_qfi_grid`` call.  Where both
    routes run, a gap above ``_BOTH_TOL`` aborts before any row is returned.
    """
    _check_jobs(jobs)
    params = tuple(Param(param) for param in params)
    if len(set(params)) != len(params):
        raise ValueError(
            f"parameters must not repeat, got {','.join(param.value for param in params)}"
        )
    method = _resolve_method(probe, method)
    ps, mus = np.asarray(ps, dtype=float), np.asarray(mus, dtype=float)
    points = [(p, mu) for p in ps.tolist() for mu in mus.tolist()]
    values: dict[str, list] = {}
    if method in (Method.SLD, Method.BOTH):
        evaluate = partial(_qfi_numeric, probe, params=params)
        channels = [ChannelSpec(kind, p, mu) for p, mu in points]
        cores = os.cpu_count() or 1
        workers = min(jobs or cores, cores, len(channels))
        if workers > 1:
            chunk = max(1, len(channels) // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                values["sld"] = [f.tolist() for f in pool.map(evaluate, channels, chunksize=chunk)]
        else:
            values["sld"] = [evaluate(c).tolist() for c in channels]
    if method in (Method.CLOSED, Method.BOTH):
        f = closed_form_qfi_grid(kind, ps[:, None], mus[None, :], probe.theta, probe.phi)
        f = f[[list(Param).index(param) for param in params]]
        values["closed"] = f.reshape(len(params), -1).T.tolist()

    head = (kind.value, probe.family.value, probe.n_qubits, probe.r, probe.theta, probe.phi)
    names = [name for name in _METHOD_ORDER if name in values]
    columns = [values[name] for name in names]
    records: list[SweepRecord] = []
    for i, (p, mu) in enumerate(points):
        for k, param in enumerate(params):
            row = [column[i][k] for column in columns]
            gap = max(row) - min(row)  # |sld - closed|, 0 with one method
            if gap > _BOTH_TOL:
                raise RuntimeError(
                    f"sld/closed disagree by {gap:.3e} at p={p} mu={mu} "
                    f"param={param.value}; refusing to emit inconsistent data"
                )
            records.extend(
                SweepRecord(*head, p, mu, param.value, name, qfi) for name, qfi in zip(names, row)
            )
    return records


def run_point(
    probe: ProbeSpec,
    channel: ChannelSpec,
    params: tuple[Param, ...],
    method: Method | None = None,
) -> list[SweepRecord]:
    """QFI at one (probe, channel) point for every parameter and chosen route."""
    return _rows(probe, channel.kind, [channel.p], [channel.mu], params, method)


def evaluate_point(
    probe: ProbeSpec,
    channel: ChannelSpec,
    param: Param,
    method: Method | None = None,
) -> list[SweepRecord]:
    """QFI at a single (probe, channel, param) point for the chosen route(s)."""
    return run_point(probe, channel, (param,), method)


def run_sweep(config: SweepConfig, jobs: int | None = None) -> list[SweepRecord]:
    """Evaluate the full (p, mu) grid in canonical row order.

    Row order: p outer, mu inner, then param, then method.  ``jobs``
    (default: all cores) must be >= 1 and bounds the process pool of the
    sld rows; output is independent of it.
    """
    records = _rows(
        config.probe, config.kind, _grid(*config.p_grid), _grid(*config.mu_grid),
        config.params, config.method, jobs,
    )
    if config.out is not None:
        write_csv(records, config.out)
    return records


def _check_jobs(jobs: int | None) -> None:
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def write_csv(records: list[SweepRecord], path: str | Path) -> None:
    """Write records under ``CSV_HEADER``.

    Each distinct axis value (r, theta, phi, p, mu) is formatted once per
    call; a sweep repeats each of them over many rows.
    """
    text: dict[float, str] = {}

    def axis(x: float) -> str:
        s = text.get(x)
        if s is None:
            s = _fmt(x)
            if x:  # 0.0 == -0.0 as keys, so zeros are never memoised
                text[x] = s
        return s

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (
            rec.channel, rec.family, rec.n, axis(rec.r), axis(rec.theta), axis(rec.phi),
            axis(rec.p), axis(rec.mu), rec.param, rec.method, _fmt(rec.qfi),
        )
        for rec in records
    )
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def read_csv(path: str | Path) -> list[SweepRecord]:
    """Parse a CSV written by ``write_csv`` back into records.

    Blank lines are skipped.  A row that the csv module rejects, with the
    wrong field count, a field that does not parse or a qfi outside
    ``SweepRecord``'s sane range raises ``ValueError`` naming the file and
    line.
    """
    records: list[SweepRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        try:
            for row in filter(None, reader):
                channel, family, n, r, theta, phi, p, mu, param, method, qfi = row
                records.append(SweepRecord(
                    channel, family, int(n), float(r), float(theta), float(phi),
                    float(p), float(mu), param, method, float(qfi),
                ))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return records


@dataclass(frozen=True)
class CheckReport:
    """Result of the closed/numeric/finite-difference consistency run."""

    samples: int
    seed: int
    tol: float
    fd_tol: float
    max_closed_dev: float
    worst_closed: tuple
    max_fd_rel: float
    worst_fd: tuple
    passed: bool

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "\n".join(
            [
                f"cross-check over {self.samples} random tuples (seed {self.seed})",
                f"closed-form vs numeric : max |dF| = {self.max_closed_dev:.6e}"
                f"  (tol {self.tol:.6e})",
                f"  worst tuple          : {self.worst_closed}",
                f"analytic vs finite diff: max rel dev = {self.max_fd_rel:.6e}"
                f"  (tol {self.fd_tol:.6e})",
                f"  worst tuple          : {self.worst_fd}",
                f"result                 : {status}",
            ]
        )


def cross_check(
    samples: int,
    seed: int = 0,
    tol: float = 1e-6,
    fd_tol: float = 1e-5,
) -> CheckReport:
    """Compare closed_form_qfi, qfi_numeric, and the finite-difference route.

    Draws random (channel, p, mu, theta, phi, param) tuples for the Phi+
    probe.  The closed-vs-numeric comparison is an absolute deviation; the
    finite-difference comparison is relative to max(1, |F|) so that it stays
    meaningful when the information vanishes.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    kinds = list(ChannelKind)
    max_closed = 0.0
    worst_closed: tuple = ()
    max_fd = 0.0
    worst_fd: tuple = ()
    for _ in range(samples):
        kind = kinds[rng.integers(len(kinds))]
        p = float(rng.random())
        mu = float(rng.random())
        theta = float(rng.uniform(0.0, math.pi / 2))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        param = Param.THETA if rng.integers(2) == 0 else Param.PHI
        probe = ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi)
        channel = ChannelSpec(kind, p, mu)
        numeric = qfi_numeric(probe, channel, param)
        dev = abs(closed_form_qfi(channel, theta, phi, param) - numeric)
        if dev > max_closed:
            max_closed = dev
            worst_closed = (kind.value, round(p, 6), round(mu, 6), param.value)
        fd = qfi_numeric_fd(probe, channel, param)
        rel = abs(fd - numeric) / max(1.0, abs(numeric), abs(fd))
        if rel > max_fd:
            max_fd = rel
            worst_fd = (kind.value, round(p, 6), round(mu, 6), param.value)
    passed = max_closed <= tol and max_fd <= fd_tol
    return CheckReport(
        samples=samples,
        seed=seed,
        tol=tol,
        fd_tol=fd_tol,
        max_closed_dev=max_closed,
        worst_closed=worst_closed,
        max_fd_rel=max_fd,
        worst_fd=worst_fd,
        passed=passed,
    )


# (theta, phi) settings shown in the reference figures.
_FIGURE_ANGLES = ((math.pi / 8, math.pi / 6), (math.pi / 8, math.pi / 3))
_FIGURE_KIND = {1: ChannelKind.DEPOLARIZING, 2: ChannelKind.BIT_FLIP, 3: ChannelKind.PHASE_FLIP}


def figure(
    which: int,
    out_dir: str | Path,
    points: int | None = None,
    jobs: int | None = None,
) -> tuple[Path, Path]:
    """Emit the CSV + heatmap data behind one of the four reference figures.

    Figures 1-3: full (p, mu) grids for one channel kind and the Phi+ probe
    at (theta, phi) = (pi/8, pi/6) and (pi/8, pi/3).  Figure 4: mu sweeps at
    p = 0.3 for the EWL probe (r = 0.9, recorded in the CSV) with 2..5
    qubits under the depolarizing, bit flip, and phase flip channels.
    """
    if points is not None and points < 2:
        raise ValueError(f"figure grids need at least 2 points per axis, got {points}")
    _check_jobs(jobs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"fig{which}.csv"
    map_path = out_dir / f"fig{which}_heatmap.txt"
    records: list[SweepRecord] = []
    if which in (1, 2, 3):
        count = 101 if points is None else points
        for theta, phi in _FIGURE_ANGLES:
            config = SweepConfig(
                probe=ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi),
                kind=_FIGURE_KIND[which],
                p_grid=(0.0, 1.0, count),
                mu_grid=(0.0, 1.0, count),
                method=Method.CLOSED,
            )
            records.extend(run_sweep(config, jobs=jobs))
    elif which == 4:
        count = 21 if points is None else points
        theta, phi = _FIGURE_ANGLES[0]
        params = (Param.THETA, Param.PHI)
        for kind in (ChannelKind.DEPOLARIZING, ChannelKind.BIT_FLIP, ChannelKind.PHASE_FLIP):
            for n in (2, 3, 4, 5):
                probe = ProbeSpec(ProbeFamily.EWL, theta, phi, r=0.9, n_qubits=n)
                records.extend(_rows(probe, kind, [0.3], _grid(0.0, 1.0, count), params, Method.SLD))
    else:
        raise ValueError("figure number must be 1, 2, 3, or 4")
    write_csv(records, csv_path)
    render_heatmap(records, out_path=map_path)
    return csv_path, map_path


def _heatmap_block(rows: list[SweepRecord]) -> tuple[list[float], list[float], np.ndarray]:
    """Sorted p and mu axes and the qfi grid, indexed [mu, p], of one group."""
    ps = sorted({rec.p for rec in rows})
    mus = sorted({rec.mu for rec in rows})
    grid = np.full((len(mus), len(ps)), np.nan)
    pi = {v: k for k, v in enumerate(ps)}
    mi = {v: k for k, v in enumerate(mus)}
    for rec in rows:
        grid[mi[rec.mu], pi[rec.p]] = rec.qfi
    if len(rows) != grid.size or np.isnan(grid).any():
        raise ValueError("heatmap rows do not form a rectangular (p, mu) grid")
    return ps, mus, grid


def render_heatmap(records: list[SweepRecord], out_path: str | Path | None = None) -> str:
    """Render sweep records as gnuplot blocks of qfi plus an ASCII shade map.

    Rows are grouped by everything except (p, mu, qfi); each group must form
    a rectangular grid.  Floats print as in ``write_csv``.  The shade map has
    ten gray levels, lightest at the group minimum and darkest at its maximum,
    with mu decreasing down the rows and p increasing along the columns.
    """
    groups: dict[tuple, list[SweepRecord]] = {}
    for rec in records:
        key = (rec.channel, rec.family, rec.n, rec.r, rec.theta, rec.phi, rec.param, rec.method)
        groups.setdefault(key, []).append(rec)

    sections: list[str] = []
    for (channel, family, n, r, theta, phi, param, method), group_rows in groups.items():
        ps, mus, grid = _heatmap_block(group_rows)
        head = (
            f"# channel={channel} family={family} n={n} r={_fmt(r)} "
            f"theta={_fmt(theta)} phi={_fmt(phi)} param={param} method={method}"
        )
        lines = [head, "# p mu qfi"]
        mu_text = [_fmt(mu) for mu in mus]
        for p, column in zip(ps, grid.T.tolist()):
            p_text = _fmt(p)
            lines.extend(f"{p_text} {m} {_fmt(v)}" for m, v in zip(mu_text, column))
            lines.append("")
        lo = float(grid.min())
        hi = float(grid.max())
        span = hi - lo
        lines.append(f"# shade map: min={_fmt(lo)} max={_fmt(hi)}")
        lines.append("# rows: mu descending; cols: p ascending")
        for j in range(len(mus) - 1, -1, -1):
            if span > 0.0:
                idx = np.rint((grid[j, :] - lo) / span * (len(_SHADES) - 1)).astype(int)
            else:
                idx = np.zeros(len(ps), dtype=int)
            lines.append("".join(_SHADES[k] for k in idx))
        sections.append("\n".join(lines))
    text = "\n\n".join(sections) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text
