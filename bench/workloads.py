"""The two benchmark workloads and the checks on their outputs.

Each workload is a round of one or more ``corrqfi`` CLI invocations with the
paper's fixed settings.  The workload seed never changes what the program
computes for the map and scan workloads; it picks the rows the check
re-verifies, and the MLE trial stream of the ``estimate`` call.

Every emitted QFI row must satisfy 0 <= F <= F0, where F0 is the noiseless
probe's QFI (``qfi_sld`` of the probe and its derivative): a channel cannot
add information.  A row that fails a check is one failed op.
"""

from __future__ import annotations

from dataclasses import dataclass
import csv
import math
from pathlib import Path
import random

import numpy as np

from corrqfi.channels import ChannelKind, ChannelSpec
from corrqfi.probes import Param, ProbeFamily, ProbeSpec, density, density_derivative
from corrqfi.qfi import qfi_numeric, qfi_numeric_fd, qfi_sld

# Round-off allowance on the physical bound 0 <= F <= F0.
BOUND_TOL = 1e-9
# Re-verification tolerances: absolute for the closed route against the
# numeric route, relative (to max(1, |F|)) for the finite-difference oracle.
NUMERIC_TOL = 1e-6
FD_REL_TOL = 1e-5

# The paper's probe angles: figures 1-3 use both settings, figure 4 and the
# Cramer-Rao demonstration use the first.
ANGLES = ((math.pi / 8, math.pi / 6), (math.pi / 8, math.pi / 3))
THETA, PHI = ANGLES[0]
EWL_R = 0.9
FIG4_P = 0.3
FIG4_KINDS = (ChannelKind.DEPOLARIZING, ChannelKind.BIT_FLIP, ChannelKind.PHASE_FLIP)
FIG4_N = (2, 3, 4, 5)
PARAMS = (Param.THETA, Param.PHI)


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a round and the ops it should produce."""

    argv: tuple[str, ...]
    ops: int
    output: Path


def _noiseless_qfi(probe: ProbeSpec, param: Param) -> float:
    return qfi_sld(density(probe), density_derivative(probe, param))


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _row_probe(row: dict[str, str]) -> ProbeSpec:
    return ProbeSpec(
        ProbeFamily(row["family"]), float(row["theta"]), float(row["phi"]),
        r=float(row["r"]), n_qubits=int(row["n"]),
    )


def _row_channel(row: dict[str, str]) -> ChannelSpec:
    return ChannelSpec(ChannelKind(row["channel"]), float(row["p"]), float(row["mu"]))


class _RowChecker:
    """Bound check with the noiseless QFI cached per (probe, param)."""

    def __init__(self) -> None:
        self._f0: dict[tuple, float] = {}

    def within_bound(self, row: dict[str, str]) -> bool:
        key = (row["family"], row["n"], row["r"], row["theta"], row["phi"], row["param"])
        if key not in self._f0:
            self._f0[key] = _noiseless_qfi(_row_probe(row), Param(row["param"]))
        f, f0 = float(row["qfi"]), self._f0[key]
        return -BOUND_TOL <= f <= f0 + BOUND_TOL * max(1.0, f0)


def _failed_rows(rows: list[dict[str, str]], expected: set[tuple], key, ok) -> tuple[int, list[int]]:
    """Failed ops of one CSV: missing or duplicate keys plus failing rows.

    Returns the count and the indices of the rows that passed, so callers can
    sample from them for re-verification.
    """
    seen: set[tuple] = set()
    passed: list[int] = []
    for i, row in enumerate(rows):
        try:
            k = key(row)
            good = k in expected and k not in seen and ok(row)
        except (KeyError, ValueError):
            good = False
        if good:
            seen.add(k)
            passed.append(i)
    return len(expected) - len(passed), passed


class PhiPlusMap:
    """Figure 1: depolarizing phi+ (p, mu) QFI maps through the closed route."""

    name = "phiplus-map"
    why = ("closed_form and sweep/pool/CSV do the work; channels and eigh run only "
           "on the 4 degenerate fallbacks")
    pooled = True

    def __init__(self, points: int = 101, sample: int = 200) -> None:
        self.points = points
        self.sample = sample

    def steps(self, seed: int, k: int, out: Path, jobs: int) -> list[Step]:
        argv = ("figure", "--which", "1", "--points", str(self.points),
                "--jobs", str(jobs), "--out", str(out))
        return [Step(argv, len(ANGLES) * self.points**2 * len(PARAMS), out / "fig1.csv")]

    def check(self, step: Step, stdout: str, rng: random.Random) -> int:
        rows = _read_rows(step.output)
        grid = np.linspace(0.0, 1.0, self.points)
        expected = {
            (theta, phi, float(p), float(mu), param.value)
            for theta, phi in ANGLES for p in grid for mu in grid for param in PARAMS
        }
        bound = _RowChecker()

        def key(row):
            return (float(row["theta"]), float(row["phi"]), float(row["p"]),
                    float(row["mu"]), row["param"])

        def ok(row):
            return (row["channel"] == "depolarizing" and row["family"] == "phi+"
                    and row["method"] == "closed" and bound.within_bound(row))

        failed, passed = _failed_rows(rows, expected, key, ok)
        for i in rng.sample(passed, min(self.sample, len(passed))):
            row = rows[i]
            ref = qfi_numeric(_row_probe(row), _row_channel(row), Param(row["param"]))
            if not abs(float(row["qfi"]) - ref) <= NUMERIC_TOL:
                failed += 1
        return failed


def slack_floor(trials: int) -> float:
    """Criterion 10's lower limit on var/bound for a given trial count."""
    return 1.0 - 3.0 * math.sqrt(2.0 / (trials - 1))


class NumericRoute:
    """The dense numeric route: figure 4, an N = 6 sweep and a Cramer-Rao run.

    Figure 4 scans EWL probes at N = 2..5 and the sweep adds N = 6, so a few
    large channel applications dominate.  The ``estimate`` call at the
    criterion-10 configuration makes hundreds of tiny N = 2 channel calls per
    trial instead.  Both stay in one round because a run of the estimate
    alone is not steady on a small shared machine (see README.md); the
    trace still separates them.
    """

    name = "numeric-route"
    why = ("dense numeric route: EWL scans at N = 2..6 (apply_channel, eigh, SLD) plus a "
           "criterion-10 MLE run of tiny N = 2 channel calls; closed_form and the pool idle")
    pooled = False

    # The smallest grid the sweep command accepts, at generic (p, mu) where
    # every one of the 4^N depolarizing Pauli strings has nonzero weight.
    SWEEP_P = (0.3, 0.6)
    SWEEP_MU = (0.25, 0.75)
    ESTIMATE = ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5)
    SHOTS = 10_000

    def __init__(self, points: int = 21, sweep_n: int = 6, sample: int = 16,
                 trials: int = 25) -> None:
        self.points = points
        self.sweep_n = sweep_n
        self.sample = sample
        self.trials = trials

    def steps(self, seed: int, k: int, out: Path, jobs: int) -> list[Step]:
        fig = ("figure", "--which", "4", "--points", str(self.points), "--out", str(out))
        sweep_csv = out / f"ewl{self.sweep_n}.csv"
        sweep = (
            "sweep", "--family", "ewl", "--n", str(self.sweep_n), "--r", str(EWL_R),
            "--channel", "depolarizing", "--theta", "pi/8", "--phi", "pi/6",
            "--grid-p", f"{self.SWEEP_P[0]}:{self.SWEEP_P[1]}:2",
            "--grid-mu", f"{self.SWEEP_MU[0]}:{self.SWEEP_MU[1]}:2",
            "--param", "theta", "--method", "sld", "--jobs", "1", "--out", str(sweep_csv),
        )
        estimate = (
            "estimate", "--channel", self.ESTIMATE.kind.value,
            "--p", str(self.ESTIMATE.p), "--mu", str(self.ESTIMATE.mu),
            "--theta", "pi/8", "--phi", "pi/6", "--param", "phi",
            "--shots", str(self.SHOTS), "--trials", str(self.trials),
            "--seed", str(seed * 1000 + k),
        )
        fig_ops = len(FIG4_KINDS) * len(FIG4_N) * self.points * len(PARAMS)
        return [
            Step(fig, fig_ops, out / "fig4.csv"),
            Step(sweep, 4, sweep_csv),
            Step(estimate, self.trials, out / "estimate.txt"),
        ]

    def check(self, step: Step, stdout: str, rng: random.Random) -> int:
        if step.argv[0] == "estimate":
            return self._check_estimate(step, stdout)
        rows = _read_rows(step.output)
        bound = _RowChecker()
        if step.argv[0] == "figure":
            expected = {
                (kind.value, n, FIG4_P, float(mu), param.value)
                for kind in FIG4_KINDS for n in FIG4_N
                for mu in np.linspace(0.0, 1.0, self.points) for param in PARAMS
            }
        else:
            expected = {
                (ChannelKind.DEPOLARIZING.value, self.sweep_n, p, mu, Param.THETA.value)
                for p in self.SWEEP_P for mu in self.SWEEP_MU
            }

        def key(row):
            return (row["channel"], int(row["n"]), float(row["p"]), float(row["mu"]), row["param"])

        def ok(row):
            return (row["family"] == "ewl" and row["method"] == "sld"
                    and float(row["r"]) == EWL_R and float(row["theta"]) == THETA
                    and float(row["phi"]) == PHI and bound.within_bound(row))

        failed, passed = _failed_rows(rows, expected, key, ok)
        small = [i for i in passed if int(rows[i]["n"]) <= 4]
        for i in rng.sample(small, min(self.sample, len(small))):
            row = rows[i]
            f = float(row["qfi"])
            fd = qfi_numeric_fd(_row_probe(row), _row_channel(row), Param(row["param"]))
            if not abs(fd - f) / max(1.0, abs(f), abs(fd)) <= FD_REL_TOL:
                failed += 1
        return failed

    def _check_estimate(self, step: Step, stdout: str) -> int:
        """All trials fail unless the report is complete and within bounds."""
        step.output.write_text(stdout, encoding="utf-8")
        report = {}
        for line in stdout.splitlines():
            key, _, value = line.partition(": ")
            report[key.strip()] = value
        try:
            qfi = float(report["qfi"])
            variance = float(report["empirical var"])
            ratio = float(report["var / bound"])
            trials = int(report["trials"])
        except (KeyError, ValueError):
            return self.trials
        f0 = _noiseless_qfi(ProbeSpec(ProbeFamily.PHI_PLUS, THETA, PHI), Param.PHI)
        good = (
            trials == self.trials
            and -BOUND_TOL <= qfi <= f0 + BOUND_TOL * max(1.0, f0)
            # A non-finite estimate makes the sample variance non-finite.
            and math.isfinite(variance)
            and ratio >= slack_floor(self.trials)
        )
        return 0 if good else self.trials


WORKLOADS = {w.name: w for w in (PhiPlusMap(), NumericRoute())}
