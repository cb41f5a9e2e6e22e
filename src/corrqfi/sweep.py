"""Grid sweeps, figure-data generation, cross-validation, and heatmaps.

Everything here is the CLI-independent machinery behind the command-line
front end: evaluating QFI over (p, mu) grids, emitting deterministic CSV,
rendering text heatmaps (of records, or of a CSV written by ``sweep`` or
``figure``), and running the closed-form / numeric / finite-difference
consistency check.  Every probe has both routes, and a point or sweep runs
both (``Method.BOTH``) unless told otherwise.

CSV rows follow the fixed schema

    channel,family,n,r,theta,phi,p,mu,param,method,qfi

with floats printed to 17 significant digits so files round-trip exactly
and identical configs produce byte-identical output.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import product
from operator import itemgetter
import io
import math
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channels import ChannelKind, ChannelSpec
from .closed_form import closed_form_qfi_grid
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


def _in_range(qfi, n):
    """Whether qfi lies in the sane range [_QFI_FLOOR, 4n]; NaN does not.

    Works on a scalar (a bool) or elementwise on an array.
    """
    return (qfi >= _QFI_FLOOR) & (qfi <= 4.0 * n)


def _range_error(qfi: float, n: int) -> str:
    return f"qfi {qfi} outside the sane range [{_QFI_FLOOR}, {4.0 * n}]"


# typing.NamedTuple forbids overriding __new__, so SweepRecord subclasses
# the fields to check its range on construction.
class _RecordFields(NamedTuple):
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


class SweepRecord(_RecordFields):
    """One (channel, probe, p, mu, param, method) -> qfi result row.

    A named tuple.  Construction, ``_make`` and ``_replace`` reject a qfi
    outside the sane range [-1e-10, 4n].
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        rec = super().__new__(cls, *args, **kwargs)
        if not _in_range(rec.qfi, rec.n):
            raise ValueError(_range_error(rec.qfi, rec.n))
        return rec

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make
        return cls(*iterable)


@dataclass(frozen=True)
class SweepConfig:
    """Axes and settings of one (p, mu) sweep."""

    probe: ProbeSpec
    kind: ChannelKind
    p_grid: tuple[float, float, int]
    mu_grid: tuple[float, float, int]
    params: tuple[Param, ...] = (Param.THETA, Param.PHI)
    method: Method = Method.BOTH
    out: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ChannelKind(self.kind))
        object.__setattr__(self, "params", tuple(Param(p) for p in self.params))
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


def _rows(
    probe: ProbeSpec,
    kind: ChannelKind,
    ps,
    mus,
    params: tuple[Param, ...],
    method: Method,
    jobs: int | None = 1,
) -> list[SweepRecord]:
    """Rows over the (p, mu) grid ``ps`` x ``mus``, the one place a route runs.

    Row order: p outer, mu inner, then param, then method.  The sld route
    runs once per point and computes all parameters from one output
    eigensystem, in a process pool of min(jobs, points, cores) workers when
    that exceeds 1 (``jobs=None``: all cores); rows are still assembled in
    canonical order, so output is independent of the worker count.  The
    closed rows, for every probe, come from one ``closed_form_qfi_grid``
    call.  A gap above ``_BOTH_TOL`` between the routes, or a qfi outside
    the sane range, aborts before any row is built (``_check_values``).
    """
    _check_jobs(jobs)
    params = tuple(Param(param) for param in params)
    if len(set(params)) != len(params):
        raise ValueError(
            f"parameters must not repeat, got {','.join(param.value for param in params)}"
        )
    method = Method(method)
    ps, mus = np.asarray(ps, dtype=float), np.asarray(mus, dtype=float)
    names = list(_METHOD_ORDER) if method is Method.BOTH else [method.value]
    columns = []  # one (point, param) array per method
    if "sld" in names:
        evaluate = partial(_qfi_numeric, probe, params=params)
        channels = [ChannelSpec(kind, p, mu) for p in ps.tolist() for mu in mus.tolist()]
        cores = os.cpu_count() or 1
        workers = min(jobs or cores, cores, len(channels))
        if workers > 1:
            chunk = max(1, len(channels) // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                columns.append(np.array(list(pool.map(evaluate, channels, chunksize=chunk))))
        else:
            columns.append(np.array([evaluate(c) for c in channels]))
    if "closed" in names:
        f = closed_form_qfi_grid(
            kind, ps[:, None], mus[None, :], probe.theta, probe.phi,
            probe.family, probe.r, probe.n_qubits,
        )
        f = f[[list(Param).index(param) for param in params]]
        columns.append(f.reshape(len(params), -1).T)
    values = np.stack(columns, axis=-1)  # (point, param, method): row order
    _check_values(values, ps, mus, params, names, probe.n_qubits)

    new = tuple.__new__  # the values passed the range check above
    head = (kind.value, probe.family.value, probe.n_qubits, probe.r, probe.theta, probe.phi)
    keys = product(ps.tolist(), mus.tolist(), [param.value for param in params], names)
    return [
        new(SweepRecord, (*head, p, mu, param, name, qfi))
        for (p, mu, param, name), qfi in zip(keys, values.ravel().tolist())
    ]


def _check_values(values, ps, mus, params, names, n) -> None:
    """Reject the first bad row of a (point, param, method) value array.

    A (point, param) whose routes disagree by more than ``_BOTH_TOL`` raises
    ``RuntimeError``; a qfi outside ``SweepRecord``'s sane range (NaN
    included) raises ``ValueError``.  Rows are scanned in row order, the gap
    of a (point, param) before its rows.
    """
    gap = values.max(axis=-1) - values.min(axis=-1)  # |sld - closed|, 0 with one method
    insane = ~_in_range(values, n)
    bad = (gap > _BOTH_TOL) | insane.any(axis=-1)
    if not bad.any():
        return
    i, k = np.unravel_index(np.argmax(bad), bad.shape)
    p, mu = ps[i // len(mus)].item(), mus[i % len(mus)].item()
    where = f"p={p} mu={mu} param={params[k].value}"
    if gap[i, k] > _BOTH_TOL:
        raise RuntimeError(
            f"sld/closed disagree by {gap[i, k]:.3e} at {where}; "
            "refusing to emit inconsistent data"
        )
    j = int(np.argmax(insane[i, k]))
    raise ValueError(f"{_range_error(values[i, k, j].item(), n)} at {where} method={names[j]}")


def run_point(
    probe: ProbeSpec,
    channel: ChannelSpec,
    params: tuple[Param, ...],
    method: Method = Method.BOTH,
) -> list[SweepRecord]:
    """QFI at one (probe, channel) point for every parameter and chosen route."""
    return _rows(probe, channel.kind, [channel.p], [channel.mu], params, method)


def evaluate_point(
    probe: ProbeSpec,
    channel: ChannelSpec,
    param: Param,
    method: Method = Method.BOTH,
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


class _Quoted(dict):
    """str -> its CSV field text, quoted by the csv module on first use.

    The writer's "\r\n" terminator makes it quote a field that holds "\r"
    as well as one that holds "\n"; ``read_csv`` would split either.
    """

    def __missing__(self, s: str) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow((s, ""))  # a lone "" would be quoted
        text = self[s] = buf.getvalue()[:-3]
        return text


class _FloatText(dict):
    """float -> ``_fmt`` text, kept for nonzero keys only: 0.0 == -0.0 as keys."""

    def __missing__(self, x: float) -> str:
        text = _fmt(x)
        if x:
            self[x] = text
        return text


def write_csv(records: list[SweepRecord], path: str | Path) -> None:
    """Write records under ``CSV_HEADER``, streaming one line per record.

    The file equals what ``csv.writer(lineterminator="\\n")`` writes for the
    ``_fmt``-formatted fields, except that a string field holding a
    carriage return is quoted too.  Each distinct string field is quoted
    once, by the csv module itself, and each distinct axis float (r, theta,
    phi, p, mu) is formatted once.  The axis prefix (channel ... mu) is
    built once per point and reused for that point's param/method rows, as
    equal nonzero floats print alike.  Zeros are never reused: ``0.0 == -0.0`` as
    keys, yet they print as ``0`` and ``-0``.
    """
    quoted, text = _Quoted(), _FloatText()

    def lines():
        yield ",".join(CSV_HEADER) + "\n"
        key = prefix = None
        zero = True
        for rec in records:
            if zero or rec[:8] != key:
                key = rec[:8]
                zero = 0.0 in key
                channel, family, n, r, theta, phi, p, mu = key
                prefix = (
                    f"{quoted[channel]},{quoted[family]},{n},{text[r]},{text[theta]},"
                    f"{text[phi]},{text[p]},{text[mu]},"
                )
            yield f"{prefix}{quoted[rec[8]]},{quoted[rec[9]]},{rec[10]:.17g}\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines())


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
    draws = [
        (
            kinds[rng.integers(len(kinds))],
            float(rng.random()),
            float(rng.random()),
            float(rng.uniform(0.0, math.pi / 2)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
            Param.THETA if rng.integers(2) == 0 else Param.PHI,
        )
        for _ in range(samples)
    ]
    # closed values: one closed_form_qfi_grid call per channel kind
    kind_of = np.array([kinds.index(d[0]) for d in draws])
    row_of = np.array([list(Param).index(d[5]) for d in draws])
    settings = np.array([d[1:5] for d in draws]).T  # p, mu, theta, phi
    closed = np.empty(samples)
    for k, kind in enumerate(kinds):
        sel = np.flatnonzero(kind_of == k)
        f = closed_form_qfi_grid(kind, *settings[:, sel])
        closed[sel] = f[row_of[sel], np.arange(sel.size)]

    max_closed = 0.0
    worst_closed: tuple = ()
    max_fd = 0.0
    worst_fd: tuple = ()
    for (kind, p, mu, theta, phi, param), closed_value in zip(draws, closed.tolist()):
        probe = ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi)
        channel = ChannelSpec(kind, p, mu)
        numeric = qfi_numeric(probe, channel, param)
        dev = abs(closed_value - numeric)
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


def _heatmap_block(rows: list[float]) -> tuple[list[str], list[str], np.ndarray]:
    """The p and mu axes (sorted, as text) and the qfi grid, indexed [mu, p].

    ``rows`` holds the p, mu, qfi of each row of one group, flattened.  Each
    axis value prints as its first occurrence, so of 0.0 and -0.0 the first
    one seen.
    """
    p, mu, qfi = np.array(rows, dtype=float).reshape(-1, 3).T
    ps, p_first = np.unique(p, return_index=True)
    mus, mu_first = np.unique(mu, return_index=True)
    grid = np.full((len(mus), len(ps)), np.nan)
    grid[np.searchsorted(mus, mu), np.searchsorted(ps, p)] = qfi
    if qfi.size != grid.size or np.isnan(grid).any():
        raise ValueError("heatmap rows do not form a rectangular (p, mu) grid")
    return [_fmt(x) for x in p[p_first]], [_fmt(x) for x in mu[mu_first]], grid


def render_heatmap(records: list[SweepRecord], out_path: str | Path | None = None) -> str:
    """Render sweep records as gnuplot blocks of qfi plus an ASCII shade map.

    Rows are grouped by everything except (p, mu, qfi); each group must form
    a rectangular grid.  Floats print as in ``write_csv``.  The shade map has
    ten gray levels, lightest at the group minimum and darkest at its maximum,
    with mu decreasing down the rows and p increasing along the columns.
    """
    key_of, point_of = itemgetter(0, 1, 2, 3, 4, 5, 8, 9), itemgetter(6, 7, 10)
    groups: defaultdict[tuple, list[float]] = defaultdict(list)
    for rec in records:
        groups[key_of(rec)].extend(point_of(rec))

    shades = np.array(list(_SHADES))
    sections: list[str] = []
    for (channel, family, n, r, theta, phi, param, method), rows in groups.items():
        p_text, mu_text, grid = _heatmap_block(rows)
        head = (
            f"# channel={channel} family={family} n={n} r={_fmt(r)} "
            f"theta={_fmt(theta)} phi={_fmt(phi)} param={param} method={method}"
        )
        lines = [head, "# p mu qfi"]
        for p, column in zip(p_text, grid.T.tolist()):
            lines.extend(f"{p} {mu} {v:.17g}" for mu, v in zip(mu_text, column))
            lines.append("")
        lo = float(grid.min())
        hi = float(grid.max())
        span = hi - lo
        lines.append(f"# shade map: min={_fmt(lo)} max={_fmt(hi)}")
        lines.append("# rows: mu descending; cols: p ascending")
        if span > 0.0:
            idx = np.rint((grid[::-1] - lo) / span * (len(_SHADES) - 1)).astype(int)
        else:
            idx = np.zeros(grid.shape, dtype=int)
        lines.extend("".join(row) for row in shades[idx].tolist())
        sections.append("\n".join(lines))
    text = "\n\n".join(sections) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text
