#!/usr/bin/env python3
"""corrqfi benchmark: paper workloads run through the public CLI entry point.

Run from the repository root:

    python3 bench/run.py --workload phiplus-map --seed 1 --seconds 35 --trace 0

Each workload is a round of ``corrqfi.cli.main(argv)`` calls made in this
process, so argument parsing, the library and file output are all timed.
Rounds repeat until ``--seconds`` have passed; rates are medians over
rounds.  Every output is checked after the timed rounds (see workloads.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced round with a traced one and reports the per-layer metrics; traced
rounds run at one worker, so the layers that normally run in the
phiplus-map pool workers are traced in this process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run details and the
spans of traced rounds are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
from dataclasses import dataclass, field
import io
import json
import math
import os
from pathlib import Path
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import layers
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters timed for setup_s, after one that warms the bytecode cache.
SETUP_SAMPLES = 11
_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import corrqfi, corrqfi.cli\n"
    "print(repr(time.perf_counter() - t))\n"
    "print(corrqfi.__file__)\n"
)

# (name, unit, better) of the metrics a --trace 0 run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("pass_ratio", "ratio", "higher"),
)
E2E_UNITS = {name: unit for name, unit, _ in END_TO_END}


def _package_init() -> Path:
    return SRC / "corrqfi" / "__init__.py"


def load_package() -> None:
    """Import corrqfi from this checkout's source tree, or exit non-zero."""
    if not _package_init().is_file():
        raise SystemExit(f"error: corrqfi source tree not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import corrqfi

    if Path(corrqfi.__file__).resolve() != _package_init().resolve():
        raise SystemExit(f"error: imported corrqfi from {corrqfi.__file__}, not {SRC}")


def measure_setup(samples: int) -> list[float]:
    """Seconds to import corrqfi and corrqfi.cli in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        secs, path = proc.stdout.split("\n")[:2]
        if Path(path).resolve() != _package_init().resolve():
            raise SystemExit(f"error: fresh interpreter imported corrqfi from {path}")
        if i:
            times.append(float(secs))
    return times


def _cpu_seconds() -> float:
    """CPU seconds of this process plus its waited-for children (pool workers)."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def peak_rss_mb() -> float:
    """Largest RSS of this process and of any waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Round:
    """Timed CLI calls of one workload round."""

    steps: list
    stdout: list[str] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0

    @property
    def ops(self) -> int:
        return sum(step.ops for step in self.steps)


def call_cli(argv) -> tuple[int | None, str, str]:
    """Run ``corrqfi.cli.main(argv)`` in this process; return rc, stdout, stderr."""
    from corrqfi import cli

    buf, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, buf.getvalue(), err.getvalue()


def run_round(workload, seed: int, k: int, jobs: int, label: str) -> Round:
    out = OUT / workload.name / label / f"r{k}"
    out.mkdir(parents=True, exist_ok=True)
    result = Round(workload.steps(seed, k, out, jobs))
    for step in result.steps:
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        rc, stdout, err = call_cli(step.argv)
        result.wall += time.perf_counter() - wall0
        result.cpu += _cpu_seconds() - cpu0
        result.stdout.append(stdout)
        result.ok.append(rc == 0)
        if rc != 0:
            print(f"# {workload.name}: {' '.join(step.argv)} failed (rc={rc})\n{err}",
                  file=sys.stderr)
    return result


def check_round(workload, rnd: Round, seed: int, k: int) -> int:
    """Failed ops of one round; a call that failed fails all its ops."""
    rng = random.Random(f"{seed}/{k}")
    failed = 0
    for step, stdout, ok in zip(rnd.steps, rnd.stdout, rnd.ok):
        if not ok:
            failed += step.ops
            continue
        try:
            failed += min(step.ops, workload.check(step, stdout, rng))
        except (OSError, ValueError, KeyError) as exc:
            print(f"# {workload.name}: cannot check {step.output}: {exc!r}", file=sys.stderr)
            failed += step.ops
    return failed


def differing_lines(a: Path, b: Path) -> int:
    """Lines that differ between two files, counting extra lines."""
    la = a.read_bytes().splitlines()
    lb = b.read_bytes().splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


def timed_run(workload, seed: int, seconds: float, jobs: int) -> tuple[dict, int, int, dict]:
    setup = measure_setup(SETUP_SAMPLES)
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, seed, len(rounds), jobs, "timed"))
    peak = peak_rss_mb()
    failed = sum(check_round(workload, r, seed, k) for k, r in enumerate(rounds))
    attempted = sum(r.ops for r in rounds)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(r.ops / r.wall for r in rounds),
        "cpu_ms_per_op": statistics.median(1e3 * r.cpu / r.ops for r in rounds),
        "peak_rss_mb": peak,
        "pass_ratio": (attempted - failed) / attempted,
    }
    detail = {
        "setup_samples_s": setup,
        "rounds": len(rounds),
        "ops_per_round": rounds[0].ops,
        "round_wall_s": [r.wall for r in rounds],
        "round_cpu_s": [r.cpu for r in rounds],
        "jobs": jobs,
    }
    return values, attempted, failed, detail


def _untraced_round(workload, seed: int, k: int, jobs: int, label: str) -> tuple[Round, float]:
    """A round with only run_sweep timed (two spans), and the seconds spent in it."""
    with Tracer() as sweep_tracer:
        layers.install(sweep_tracer, only=("sweep.run_sweep",))
        rnd = run_round(workload, seed, k, jobs, label)
    return rnd, sum(s.duration for s in sweep_tracer.spans)


def traced_run(workload, seed: int, seconds: float, jobs: int) -> tuple[dict, int, int, dict]:
    tracer = Tracer()
    rounds: list[Round] = []
    ref_walls: list[float] = []
    traced_walls: list[float] = []
    busy_1 = pool_wall = 0.0
    mismatched = 0
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        k = len(traced_walls)
        ref, sweep_s = _untraced_round(workload, seed, k, 1, "ref")
        busy_1 += sweep_s
        ref_walls.append(ref.wall)
        rounds.append(ref)
        if workload.pooled:
            pooled, sweep_s = _untraced_round(workload, seed, k, jobs, "pooled")
            pool_wall += sweep_s
            rounds.append(pooled)
        tracer.run = f"traced-{k}"
        missing = layers.install(tracer)
        try:
            traced = run_round(workload, seed, k, 1, "traced")
        finally:
            tracer.restore()
        traced_walls.append(traced.wall)
        rounds.append(traced)
        if workload.pooled:
            # --jobs independence: the one-worker CSV must equal the pooled one.
            for a, b in zip(pooled.steps, traced.steps):
                try:
                    mismatched += min(a.ops, differing_lines(a.output, b.output))
                except OSError:
                    mismatched += a.ops

    failed = mismatched + sum(check_round(workload, r, seed, k) for k, r in enumerate(rounds))
    attempted = sum(r.ops for r in rounds)
    efficiency = busy_1 / (jobs * pool_wall) if workload.pooled and pool_wall > 0 else 0.0
    values = layers.layer_metrics(
        tracer.spans, len(traced_walls), sum(traced_walls), sum(ref_walls), efficiency
    )
    own = sum(values[f"{name}.self_s"] for name, *_ in layers.LAYERS)
    if not math.isclose(own + values["trace.untraced_s"], values["trace.wall_s"], rel_tol=1e-9):
        raise RuntimeError("layer self times plus untraced do not add up to wall time")
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write(spans_path)
    for line in layers.self_time_table(values):
        print(f"# {line}")
    detail = {
        "traced_rounds": len(traced_walls),
        "traced_wall_s": traced_walls,
        "untraced_wall_s": ref_walls,
        "traced_jobs": 1,
        "pool_jobs": jobs if workload.pooled else None,
        "jobs_mismatched_lines": mismatched if workload.pooled else None,
        "layers_not_found": missing,
        "spans": spans_path.name,
        "note": "traced rounds run at one worker, so pool-worker layers are traced in-process",
    }
    return values, attempted, failed, detail


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return "unknown"


def machine_info(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    shutil.rmtree(OUT / workload.name, ignore_errors=True)

    info = machine_info(args.seed)
    info.update(workload=workload.name, trace=args.trace, seconds=args.seconds,
                load_before=os.getloadavg())
    jobs = info["nproc"]
    run = traced_run if args.trace else timed_run
    values, attempted, failed, detail = run(workload, args.seed, args.seconds, jobs)
    info.update(detail, load_after=os.getloadavg())

    units = layers.UNITS if args.trace else E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"run": info, "result": result}, indent=1), encoding="utf-8")
    print("# run " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
