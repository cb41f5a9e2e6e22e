"""The layers the benchmark traces and the per-layer metrics built from them.

Each layer is a public corrqfi function.  Every layer reports its calls and
self time per traced round; the layers whose cost depends on the qubit
number N also report their mean (inclusive) call time at N = 2..6.  The
derived ratios are measured at the layer boundary where the work happens.
"""

from __future__ import annotations

from collections import defaultdict
import importlib
import os
from pathlib import Path

import numpy as np

from tracer import Span, Tracer, self_times, untraced


def _matrix_n(m, *args, **kwargs) -> tuple:
    return (int(np.shape(m)[0]).bit_length() - 1,)


def _probe_n(probe, *args, **kwargs) -> tuple:
    return (probe.n_qubits,)


def _channel_attrs(rho0, spec, *args, **kwargs) -> tuple:
    return (_matrix_n(rho0)[0], spec.kind.value, spec.p, spec.mu)


def _csv_path(records, path, *args, **kwargs) -> tuple:
    return (str(path),)


# (layer name, defining module, function, span-attribute function)
LAYERS = (
    ("cli.main", "corrqfi.cli", "main", None),
    ("sweep.figure", "corrqfi.sweep", "figure", None),
    ("sweep.run_sweep", "corrqfi.sweep", "run_sweep", None),
    ("sweep.evaluate_point", "corrqfi.sweep", "evaluate_point", None),
    ("sweep.write_csv", "corrqfi.sweep", "write_csv", _csv_path),
    ("sweep.render_heatmap", "corrqfi.sweep", "render_heatmap", None),
    ("closed_form.closed_form_qfi", "corrqfi.closed_form", "closed_form_qfi", None),
    ("metrology.cramer_rao_report", "corrqfi.metrology", "cramer_rao_report", None),
    ("metrology.mle_estimate", "corrqfi.metrology", "mle_estimate", None),
    ("metrology.outcome_probabilities", "corrqfi.metrology", "outcome_probabilities", None),
    ("qfi.qfi_numeric", "corrqfi.qfi", "qfi_numeric", _probe_n),
    ("qfi.qfi_sld", "corrqfi.qfi", "qfi_sld", None),
    ("linalg.eigh", "corrqfi.linalg", "eigh", _matrix_n),
    ("channels.apply_channel", "corrqfi.channels", "apply_channel", _channel_attrs),
    ("probes.density", "corrqfi.probes", "density", None),
    ("probes.density_derivative", "corrqfi.probes", "density_derivative", None),
)

BY_N_LAYERS = ("channels.apply_channel", "linalg.eigh", "qfi.qfi_numeric")
N_RANGE = range(2, 7)

_LOWER, _HIGHER = "lower", "higher"

# (name, unit, better) for every metric a traced run reports.
PER_LAYER = (
    *(
        metric
        for layer, *_ in LAYERS
        for metric in ((f"{layer}.calls", "count", _LOWER), (f"{layer}.self_s", "s", _LOWER))
    ),
    *(
        (f"{layer}.n{n}.mean_ms", "ms", _LOWER)
        for layer in BY_N_LAYERS
        for n in N_RANGE
    ),
    ("channels.pauli_strings", "count", _LOWER),
    ("closed_form.fallbacks", "count", _LOWER),
    ("closed_form.fallback_ratio", "ratio", _LOWER),
    ("metrology.channel_calls_per_trial", "count", _LOWER),
    ("sweep.csv_bytes", "bytes", _LOWER),
    ("sweep.pool_efficiency", "ratio", _HIGHER),
    ("trace.wall_s", "s", _LOWER),
    ("trace.untraced_s", "s", _LOWER),
    ("trace_overhead", "ratio", _LOWER),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def install(tracer: Tracer, only: tuple[str, ...] | None = None) -> list[str]:
    """Install the named layers (all by default); return those not found.

    Every layer module is imported first: a module imported later would bind
    whatever object its ``from ... import`` finds, wrapper or not, and keep it
    after restore().
    """
    for _, module, _, _ in LAYERS:
        importlib.import_module(module)
    missing = []
    for name, module, attr, attrs in LAYERS:
        if only is not None and name not in only:
            continue
        if not tracer.install(name, module, attr, attrs):
            missing.append(name)
    return missing


def _pauli_string_count(key: tuple) -> int:
    """Nonzero Pauli strings of one channel setting, from joint_distribution."""
    from corrqfi.channels import ChannelKind, joint_distribution

    n, kind, p, mu = key
    return len(joint_distribution(ChannelKind(kind), p, mu, n).terms)


def layer_metrics(
    spans: list[Span],
    rounds: int,
    traced_wall: float,
    untraced_wall: float,
    pool_efficiency: float,
) -> dict[str, float]:
    """Per-layer metrics per traced round, from the spans of ``rounds`` rounds.

    ``traced_wall`` is the summed wall time of the traced rounds and
    ``untraced_wall`` that of as many untraced rounds of the same work.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    by_n: dict[tuple[str, int], list[float]] = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.sid]
        if s.name in BY_N_LAYERS:
            by_n[s.name, s.attrs[0]].append(s.duration)

    out: dict[str, float] = {}
    for layer, *_ in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / rounds
        out[f"{layer}.self_s"] = self_s[layer] / rounds
    for layer in BY_N_LAYERS:
        for n in N_RANGE:
            times = by_n.get((layer, n))
            out[f"{layer}.n{n}.mean_ms"] = 1e3 * float(np.mean(times)) if times else 0.0

    # Counted after the run, outside every span.
    channel_keys = [s.attrs for s in spans if s.name == "channels.apply_channel"]
    counts = {key: _pauli_string_count(key) for key in set(channel_keys)}
    out["channels.pauli_strings"] = (
        sum(counts[k] for k in channel_keys) / len(channel_keys) if channel_keys else 0.0
    )
    fallbacks = sum(
        1 for s in spans
        if s.name == "closed_form.closed_form_qfi" and s.error == "DegenerateSpectrumError"
    )
    closed_calls = calls["closed_form.closed_form_qfi"]
    out["closed_form.fallbacks"] = fallbacks / rounds
    out["closed_form.fallback_ratio"] = fallbacks / closed_calls if closed_calls else 0.0
    trials = calls["metrology.mle_estimate"]
    out["metrology.channel_calls_per_trial"] = (
        calls["channels.apply_channel"] / trials if trials else 0.0
    )
    csv_paths = [Path(s.attrs[0]) for s in spans if s.name == "sweep.write_csv"]
    out["sweep.csv_bytes"] = sum(os.path.getsize(p) for p in csv_paths) / rounds
    out["sweep.pool_efficiency"] = pool_efficiency
    out["trace.wall_s"] = traced_wall / rounds
    out["trace.untraced_s"] = untraced(spans, traced_wall) / rounds
    out["trace_overhead"] = traced_wall / untraced_wall - 1.0
    return out


def self_time_table(metrics: dict[str, float]) -> list[str]:
    """Text table of layer self times; the rows add up to the traced wall."""
    wall = metrics["trace.wall_s"]
    rows = [(layer, metrics[f"{layer}.self_s"], metrics[f"{layer}.calls"]) for layer, *_ in LAYERS]
    rows.append(("untraced", metrics["trace.untraced_s"], 0))
    rows.sort(key=lambda r: -r[1])
    lines = [f"{'layer':34s} {'self_s':>10s} {'share':>7s} {'calls':>10s}"]
    for name, secs, n in rows:
        lines.append(f"{name:34s} {secs:10.4f} {secs / wall:7.1%} {n:10.0f}")
    lines.append(f"{'wall':34s} {wall:10.4f}")
    return lines
