"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
from pathlib import Path
import re
import sys

import pytest

import layers
import run
from tracer import Span, Tracer, self_times, untraced

run.load_package()

import corrqfi.cli  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = (
    workloads.PhiPlusMap(points=3, sample=5),
    workloads.NumericRoute(points=2, sweep_n=3, sample=2, trials=3),
)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_benchmark_json_shape_and_name_grammar():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert BENCHMARK["paths"] == ["bench"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    e2e = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)


def test_tracer_records_nested_spans_and_errors():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.run = "r0"

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tracer.wrap("inner", inner, attrs=lambda x: (x,))
    outer_t = tracer.wrap("outer", lambda x: inner_t(x) + inner_t(x))
    assert outer_t(2) == 4
    with pytest.raises(ValueError):
        inner_t(-1)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["outer"]
    assert outer.parent is None and outer.run == "r0"
    assert [s.parent for s in by_name["inner"]] == [outer.sid, outer.sid, None]
    assert by_name["inner"][0].attrs == (2,)
    assert by_name["inner"][-1].error == "ValueError"
    assert outer.start < by_name["inner"][0].start < by_name["inner"][1].end < outer.end


def test_tracer_rebinds_every_importer_and_restores_originals():
    def bindings():
        return {
            (mod_name, attr): mod.__dict__[attr]
            for _, module, attr, _ in layers.LAYERS
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and mod_name.split(".")[0] == "corrqfi" and attr in mod.__dict__
        }

    before = bindings()
    tracer = Tracer()
    with tracer:
        assert layers.install(tracer) == []
        assert corrqfi.qfi.apply_channel is not before["corrqfi.qfi", "apply_channel"]
        assert corrqfi.metrology.apply_channel is corrqfi.channels.apply_channel
        probe = corrqfi.ProbeSpec(corrqfi.ProbeFamily.PHI_PLUS, 0.4, 0.2)
        corrqfi.qfi.qfi_numeric(
            probe, corrqfi.ChannelSpec("depolarizing", 0.2, 0.3), corrqfi.Param.THETA
        )
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s.name for s in tracer.spans]
    assert names.count("channels.apply_channel") == 2 and "linalg.eigh" in names


def test_tracer_skips_a_missing_function():
    tracer = Tracer()
    assert tracer.install("x", "corrqfi.channels", "no_such_function") is False
    tracer.restore()


def _span(sid, start, end, parent):
    return Span(sid, f"s{sid}", start, end, parent, "r")


def test_self_time_arithmetic_on_synthetic_spans():
    # root 0 [0, 10] holds 1 [1, 4] and 2 [5, 9]; 2 holds 3 [6, 7];
    # root 4 [11, 12].  Wall is 13, so 2 s lie outside every root span.
    spans = [_span(3, 6, 7, 2), _span(1, 1, 4, 0), _span(2, 5, 9, 0),
             _span(0, 0, 10, None), _span(4, 11, 12, None)]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0}
    rest = untraced(spans, 13.0)
    assert rest == 2.0
    assert sum(own.values()) + rest == 13.0


def test_estimate_report_parsing_and_failure_counting(out_dir):
    numeric = workloads.NumericRoute(trials=25)
    step = numeric.steps(1, 0, out_dir, 1)[-1]
    assert step.argv[0] == "estimate"
    good = ("qfi              : 0.1682\ntrials           : 25\n"
            "empirical var    : 0.005\nvar / bound      : 8.9\n")
    assert numeric.check(step, good, None) == 0
    assert numeric.check(step, good.replace("8.9", "0.01"), None) == 25
    assert numeric.check(step, good.replace("0.005", "nan"), None) == 25
    assert numeric.check(step, "garbage", None) == 25
    assert workloads.slack_floor(200) == pytest.approx(1.0 - 3.0 * math.sqrt(2.0 / 199.0))


def test_map_check_counts_bad_and_missing_rows(out_dir):
    phi = TINY[0]
    rnd = run.run_round(phi, 1, 0, 1, "t")
    assert run.check_round(phi, rnd, 1, 0) == 0
    path = rnd.steps[0].output
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[-1] = "5.0"  # above the noiseless QFI of a two-qubit probe
    lines[1] = ",".join(cells)
    del lines[2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run.check_round(phi, rnd, 1, 0) == 2


def test_differing_lines(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"h\n1\n2\n3\n")
    b.write_bytes(b"h\n1\n9\n")
    assert run.differing_lines(a, a) == 0
    assert run.differing_lines(a, b) == 2


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_timed_round_passes_its_checks(workload, out_dir):
    rnd = run.run_round(workload, 7, 0, 2, "timed")
    assert all(rnd.ok) and rnd.wall > 0 and rnd.ops > 0
    assert run.check_round(workload, rnd, 7, 0) == 0


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_traced_run_reports_every_layer_metric(workload, out_dir):
    values, attempted, failed, detail = run.traced_run(workload, 5, 0.0, 2)
    assert failed == 0 and attempted > 0
    assert set(values) == set(layers.UNITS)
    own = sum(values[f"{name}.self_s"] for name, *_ in layers.LAYERS)
    assert own + values["trace.untraced_s"] == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["cli.main.calls"] == len(workload.steps(5, 0, out_dir, 1))
    assert values["sweep.run_sweep.calls"] == (2 if workload.pooled else 1)
    assert (out_dir / detail["spans"].split("/")[-1]).is_file()
    if workload.pooled:
        assert detail["jobs_mismatched_lines"] == 0 and values["sweep.pool_efficiency"] > 0


def test_timed_run_reports_every_end_to_end_metric(out_dir, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    values, attempted, failed, detail = run.timed_run(TINY[1], 3, 0.0, 1)
    assert set(values) == set(run.E2E_UNITS)
    assert failed == 0 and attempted == TINY[1].steps(3, 0, out_dir, 1)[0].ops + 4 + 3
    assert values["pass_ratio"] == 1.0
    assert all(v > 0 for v in values.values())


def test_missing_source_tree_exits_non_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path))
    with pytest.raises(SystemExit) as exc:
        run.load_package()
    assert exc.value.code not in (0, None)
