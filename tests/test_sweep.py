import csv
import io

import numpy as np
import pytest

from corrqfi.channels import ChannelKind, ChannelSpec
from corrqfi.probes import Param, ProbeFamily, ProbeSpec
from corrqfi.qfi import qfi_numeric
from corrqfi.sweep import (
    CSV_HEADER,
    Method,
    SweepConfig,
    SweepRecord,
    _fmt,
    cross_check,
    evaluate_point,
    figure,
    read_csv,
    render_heatmap,
    run_point,
    run_sweep,
    write_csv,
)

SEED = 20250810


def phi_plus(theta=np.pi / 8, phi=np.pi / 6):
    return ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi)


def small_config(tmp_path, kind=ChannelKind.PHASE_FLIP, method=Method.BOTH, count=3):
    return SweepConfig(
        probe=phi_plus(),
        kind=kind,
        p_grid=(0.0, 1.0, count),
        mu_grid=(0.0, 1.0, count),
        method=method,
        out=str(tmp_path / "sweep.csv"),
    )


def test_point_phase_flip_theta():
    records = run_point(
        phi_plus(), ChannelSpec(ChannelKind.PHASE_FLIP, 0.4, 0.9), (Param.THETA,), Method.BOTH
    )
    assert len(records) == 2
    for rec in records:
        assert rec.qfi == pytest.approx(4.0, abs=1e-9)


def test_point_noiseless_theta():
    for kind in ChannelKind:
        records = run_point(phi_plus(), ChannelSpec(kind, 0.0, 0.0), (Param.THETA,), Method.SLD)
        assert records[0].qfi == pytest.approx(4.0, abs=1e-9)


def test_point_critical_depolarizing_phi():
    records = run_point(
        phi_plus(), ChannelSpec(ChannelKind.DEPOLARIZING, 0.75, 0.0), (Param.PHI,), Method.BOTH
    )
    # the fully mixed output carries no information on either route
    for rec in records:
        assert rec.qfi == pytest.approx(0.0, abs=1e-9)


@pytest.fixture
def qfi_calls(monkeypatch):
    """Calls the numeric route makes: grid evaluations (with their point
    counts) through ``sweep``, and one-matrix pushes and eigensystems."""
    import corrqfi.qfi
    import corrqfi.sweep

    calls = {"grid": [], "apply_channel": 0, "eigh": 0}
    grid = corrqfi.sweep._qfi_numeric

    def counted_grid(probe, kind, ps, mus, params):
        calls["grid"].append(len(ps))
        return grid(probe, kind, ps, mus, params)

    monkeypatch.setattr(corrqfi.sweep, "_qfi_numeric", counted_grid)
    for name in ("apply_channel", "eigh"):
        original = getattr(corrqfi.qfi, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(corrqfi.qfi, name, counted)
    return calls


def test_point_evaluates_one_grid_for_all_params(qfi_calls, monkeypatch):
    # one grid evaluation of one point serves both parameters, with no
    # one-matrix push or eigensystem; the values equal the one-parameter
    # route's bit for bit
    probe = ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=0.9, n_qubits=3)
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.4)
    records = run_point(probe, channel, (Param.THETA, Param.PHI), Method.SLD)
    assert qfi_calls == {"grid": [1], "apply_channel": 0, "eigh": 0}
    monkeypatch.undo()
    assert [r.qfi for r in records] == [qfi_numeric(probe, channel, p) for p in Param]


def test_figure4_evaluates_one_grid_per_probe(tmp_path, qfi_calls, monkeypatch):
    # 3 kinds x N = 2..5: twelve grid evaluations of the 3 mu values each,
    # and no per-point push or eigensystem; every row equals qfi_numeric
    csv_path, _ = figure(4, tmp_path, points=3)
    assert qfi_calls == {"grid": [3] * 12, "apply_channel": 0, "eigh": 0}
    monkeypatch.undo()
    for row in read_csv(csv_path):
        probe = ProbeSpec(ProbeFamily.EWL, row.theta, row.phi, r=row.r, n_qubits=row.n)
        channel = ChannelSpec(row.channel, row.p, row.mu)
        assert row.qfi == qfi_numeric(probe, channel, Param(row.param))


def test_point_rows_equal_sweep_and_figure_rows(tmp_path):
    # point, sweep and figure rows come from one kernel, so a point's rows
    # equal the grid's rows there field for field, floats compared with ==
    config = small_config(tmp_path, kind=ChannelKind.DEPOLARIZING)
    grid = np.linspace(0.0, 1.0, 3).tolist()
    point_rows = [
        row
        for p in grid
        for mu in grid
        for row in run_point(config.probe, ChannelSpec(config.kind, p, mu), config.params,
                             Method.BOTH)
    ]
    assert point_rows == run_sweep(config)

    csv_path, _ = figure(4, tmp_path, points=3)
    figure_rows = [r for r in read_csv(csv_path) if (r.channel, r.n) == ("bitflip", 3)]
    probe = ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=0.9, n_qubits=3)
    point_rows = [
        row
        for mu in grid
        for row in run_point(probe, ChannelSpec(ChannelKind.BIT_FLIP, 0.3, mu),
                             (Param.THETA, Param.PHI), Method.SLD)
    ]
    assert point_rows == figure_rows


def test_closed_method_serves_every_family():
    # the block route runs for every probe, and its rows agree with the
    # dense route's (a gap above 1e-6 would abort the rows)
    channel = ChannelSpec(ChannelKind.BIT_PHASE_FLIP, 0.2, 0.6)
    probes = [ProbeSpec(family, 0.3, 0.4) for family in ProbeFamily if family is not ProbeFamily.EWL]
    probes += [ProbeSpec(ProbeFamily.EWL, 0.3, 0.4, r=0.8, n_qubits=n) for n in (2, 3, 6)]
    for probe in probes:
        closed = run_point(probe, channel, (Param.THETA, Param.PHI), Method.CLOSED)
        assert [r.method for r in closed] == ["closed", "closed"]
        both = run_point(probe, channel, (Param.THETA, Param.PHI), Method.BOTH)
        assert [r.method for r in both] == ["sld", "closed", "sld", "closed"]
        assert [r.qfi for r in both[1::2]] == [r.qfi for r in closed]
        for sld, closed_row in zip(both[::2], closed):
            assert sld.qfi == pytest.approx(closed_row.qfi, abs=1e-12)


def test_default_method_resolution():
    # method=both for every probe when none is given
    ewl = ProbeSpec(ProbeFamily.EWL, 0.3, 0.4, n_qubits=2)
    psi = ProbeSpec(ProbeFamily.PSI_MINUS, 0.3, 0.4)
    for probe in (ewl, psi, phi_plus()):
        records = run_point(probe, ChannelSpec(ChannelKind.BIT_FLIP, 0.2, 0.2), (Param.THETA,))
        assert [r.method for r in records] == ["sld", "closed"]
    config = SweepConfig(probe=ewl, kind=ChannelKind.BIT_FLIP, p_grid=(0.0, 1.0, 2),
                         mu_grid=(0.0, 1.0, 2))
    assert config.method is Method.BOTH


def test_sweep_row_count_and_order(tmp_path):
    config = small_config(tmp_path)
    records = run_sweep(config)
    # count x count points, 2 params, 2 methods
    assert len(records) == 3 * 3 * 2 * 2
    keys = [(r.p, r.mu, r.param, r.method) for r in records]
    expected = [
        (p, mu, param, method)
        for p in (0.0, 0.5, 1.0)
        for mu in (0.0, 0.5, 1.0)
        for param in ("theta", "phi")
        for method in ("sld", "closed")
    ]
    assert keys == expected


def test_sweep_csv_deterministic(tmp_path):
    config_a = small_config(tmp_path)
    run_sweep(config_a)
    first = (tmp_path / "sweep.csv").read_bytes()
    run_sweep(config_a)
    second = (tmp_path / "sweep.csv").read_bytes()
    assert first == second


@pytest.fixture
def no_child_processes(monkeypatch):
    """Fail the test at any attempt to start a child process."""
    import multiprocessing.process

    def start(self):
        raise AssertionError(f"started a child process: {self!r}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)


def test_sweeps_default_to_one_process(tmp_path, no_child_processes):
    # pool workers would each start their own BLAS threads on the same
    # cores, so every sweep runs in the calling process, whatever --jobs says
    from corrqfi.cli import main

    run_sweep(small_config(tmp_path, method=Method.SLD, count=5))
    assert main(["sweep", "--channel", "phaseflip", "--grid-p", "0:1:3", "--grid-mu", "0:1:3",
                 "--jobs", "8", "--out", str(tmp_path / "cli.csv")]) == 0


@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_figures_and_closed_sweeps_start_no_pool(tmp_path, no_child_processes, which):
    figure(which, tmp_path, points=3)
    run_sweep(small_config(tmp_path, method=Method.CLOSED))


def test_csv_header_schema(tmp_path):
    config = small_config(tmp_path)
    records = run_sweep(config)
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_HEADER)
    assert len(rows) == 1 + 36
    # 17 significant digits round-trip
    value = float(rows[1][-1])
    assert format(value, ".17g") == rows[1][-1]
    assert read_csv(tmp_path / "sweep.csv") == records


def test_write_csv_matches_csv_writer(tmp_path):
    # csv.writer over the _fmt-formatted fields is the oracle; 0.0 and -0.0
    # are equal keys of one point but print differently, and strings that
    # need quoting are quoted as the csv module quotes them
    head = ("phaseflip", "phi+", 2, 1.0, 1e300, 0.2)
    plain = [
        SweepRecord(*head, 0.0, -0.0, "theta", "sld", 0.0),
        SweepRecord(*head, -0.0, 0.0, "theta", "closed", -0.0),
        SweepRecord(*head, 0.0, 0.0, "phi", "sld", 5e-324),
        SweepRecord(*head, -0.0, -0.0, "phi", "closed", 8.0),
        SweepRecord("a,b", 'say "hi"', 2, -0.0, 0.1, 0.0, 0.3, 0.4, "a,b", 'say "hi"', 1e-300),
        SweepRecord("a,b", 'say "hi"', 2, 0.0, 0.1, -0.0, 0.3, 0.4, "phi", "sld", 2.5),
    ]
    records = plain + [
        SweepRecord("two\nlines", "phi+", 2, 1.0, 0.1, 0.2, 0.3, 0.4, "theta", "sld", 1.0),
    ]
    for rows in (records, plain):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in rows:
            writer.writerow([f if isinstance(f, (str, int)) else _fmt(f) for f in rec])
        write_csv(rows, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == buf.getvalue().encode("utf-8")
    assert [repr(rec) for rec in read_csv(tmp_path / "out.csv")] == [repr(rec) for rec in plain]


def test_write_csv_round_trips_carriage_returns(tmp_path):
    # csv.writer(lineterminator="\n") leaves a field holding "\r" bare, and
    # read_csv would split its row there; write_csv quotes it
    records = [
        SweepRecord("x\ry", "phi+", 2, 1.0, 0.1, 0.2, 0.3, 0.4, "theta", "sld", 1.0),
        SweepRecord("x\r\ny", "a\r", 2, 1.0, 0.1, 0.2, 0.3, 0.4, "phi", "\r", 2.0),
        SweepRecord("plain", "phi+", 2, 1.0, 0.1, 0.2, 0.3, 0.4, "phi", "sld", 3.0),
    ]
    write_csv(records, tmp_path / "cr.csv")
    text = (tmp_path / "cr.csv").read_bytes().decode("utf-8")
    assert '"x\ry"' in text and '"\r"' in text and text.endswith(",phi,sld,3\n")
    assert read_csv(tmp_path / "cr.csv") == records


def test_sweep_qfi_within_sanity_bounds(tmp_path):
    records = run_sweep(small_config(tmp_path, kind=ChannelKind.DEPOLARIZING))
    for rec in records:
        assert -1e-10 <= rec.qfi <= 4.0 * rec.n


def test_record_rejects_insane_qfi():
    with pytest.raises(ValueError):
        SweepRecord(
            channel="phaseflip", family="phi+", n=2, r=1.0, theta=0.1, phi=0.2,
            p=0.1, mu=0.1, param="theta", method="sld", qfi=9.0,
        )


def test_record_is_a_named_tuple_that_checks_its_range():
    fields = ("phaseflip", "phi+", 2, 1.0, 0.1, 0.2, 0.1, 0.1, "theta", "sld", 4.0)
    rec = SweepRecord(*fields)
    assert rec == fields and len(rec) == 11 and rec[-1] == rec.qfi == 4.0
    assert rec._fields == CSV_HEADER
    assert rec._replace(qfi=8.0).qfi == 8.0
    with pytest.raises(ValueError, match="outside the sane range"):
        rec._replace(qfi=9.0)
    with pytest.raises(ValueError, match="outside the sane range"):
        SweepRecord._make(fields[:-1] + (float("nan"),))


# (closed-route value at the planted cells -> error type, message)
_PLANTED = {
    "range": (Method.CLOSED, lambda f: 9.0, ValueError,
              "qfi 9.0 outside the sane range [-1e-10, 8.0] at p=0.5 mu=1.0 param=phi "
              "method=closed"),
    "nan": (Method.CLOSED, lambda f: float("nan"), ValueError,
            "qfi nan outside the sane range [-1e-10, 8.0] at p=0.5 mu=1.0 param=phi "
            "method=closed"),
    "gap": (Method.BOTH, lambda f: f + 1e-3, RuntimeError,
            "sld/closed disagree by 1.000e-03 at p=0.5 mu=1.0 param=phi; "
            "refusing to emit inconsistent data"),
}


@pytest.mark.parametrize("case", sorted(_PLANTED))
def test_row_checks_name_the_first_offender(tmp_path, monkeypatch, case):
    # two bad cells: phi at (p, mu) = (0.5, 1.0) comes first in row order,
    # theta at (1.0, 0.0) has the lower param index but a later point
    import corrqfi.sweep

    method, plant, error, message = _PLANTED[case]
    real = corrqfi.sweep.closed_form_qfi_grid

    def planted(*args):
        f = real(*args).copy()  # (param, p, mu)
        f[1, 1, 2] = plant(f[1, 1, 2])
        f[0, 2, 0] = plant(f[0, 2, 0])
        return f

    monkeypatch.setattr(corrqfi.sweep, "closed_form_qfi_grid", planted)
    config = small_config(tmp_path, kind=ChannelKind.DEPOLARIZING, method=method)
    with pytest.raises(error) as excinfo:
        run_sweep(config)
    assert str(excinfo.value) == message
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(
            probe=phi_plus(), kind=ChannelKind.BIT_FLIP,
            p_grid=(0.0, 1.0, 1), mu_grid=(0.0, 1.0, 3),
        )
    with pytest.raises(ValueError):
        SweepConfig(
            probe=phi_plus(), kind=ChannelKind.BIT_FLIP,
            p_grid=(0.0, 1.2, 3), mu_grid=(0.0, 1.0, 3),
        )


def test_cross_check_passes_and_reports():
    report = cross_check(60, seed=SEED, tol=1e-6)
    assert report.passed
    assert report.max_closed_dev <= 1e-7
    assert report.max_state_dev <= 1e-12
    assert report.max_fd_rel <= 1e-5
    assert "PASS" in report.format()


@pytest.mark.parametrize("table, family", [("_PHASE_SHIFT", "psi-"), ("_X_MASK", "psi+")])
def test_cross_check_sees_a_fault_of_one_family(monkeypatch, table, family):
    # the check draws every family; dropping one family's phase shift or
    # X relabelling leaves every QFI as it is (each Bell probe is phi+ up to
    # a one-qubit Pauli) but moves the closed output state
    import corrqfi.closed_form

    entries = getattr(corrqfi.closed_form, table)
    monkeypatch.setitem(entries, ProbeFamily(family), 0)
    report = cross_check(60, seed=SEED, tol=1e-6)
    assert not report.passed and "FAIL" in report.format()
    assert report.max_closed_dev <= 1e-7
    assert report.max_state_dev > 0.1 and report.worst_state[1] == family


def test_cross_check_fails_on_nan_and_names_its_tuple(monkeypatch):
    # a NaN compares false with every bound; it must not slip past the max
    import corrqfi.sweep

    calls = []

    def numeric_with_one_nan(probe, channel, param):
        calls.append((channel.kind.value, probe.family.value, probe.n_qubits,
                      round(channel.p, 6), round(channel.mu, 6), Param(param).value))
        return float("nan") if len(calls) == 5 else qfi_numeric(probe, channel, param)

    monkeypatch.setattr(corrqfi.sweep, "qfi_numeric", numeric_with_one_nan)
    report = cross_check(20, seed=7)
    assert not report.passed and "FAIL" in report.format()
    assert np.isnan(report.max_closed_dev) and report.worst_closed == calls[4]
    assert np.isnan(report.max_fd_rel) and report.worst_fd == calls[4]
    assert report.max_state_dev <= 1e-12


def test_cross_check_impossible_tolerance_fails():
    report = cross_check(20, seed=SEED, tol=0.0)
    assert not report.passed
    assert "FAIL" in report.format()


def test_cross_check_deterministic():
    a = cross_check(30, seed=7).format()
    b = cross_check(30, seed=7).format()
    assert a == b


def test_figure3_theta_column_constant_four(tmp_path):
    csv_path, _ = figure(3, tmp_path, points=5)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    theta_rows = [r for r in rows if r["param"] == "theta"]
    assert theta_rows
    for row in theta_rows:
        assert float(row["qfi"]) == pytest.approx(4.0, abs=1e-9)


def test_figure1_minimum_at_critical_point(tmp_path):
    csv_path, _ = figure(1, tmp_path, points=21)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    phi6 = format(np.pi / 6, ".17g")
    for param in ("theta", "phi"):
        series = sorted(
            (float(r["p"]), float(r["qfi"]))
            for r in rows
            if r["param"] == param and float(r["mu"]) == 0.0 and r["phi"] == phi6
        )
        ps = [p for p, _ in series]
        qs = [q for _, q in series]
        assert ps[int(np.argmin(qs))] == pytest.approx(0.75)


def test_figure2_p_reflection_symmetry(tmp_path):
    csv_path, _ = figure(2, tmp_path, points=11)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = {}
    for r in rows:
        key = (r["phi"], r["param"], round(float(r["p"]), 12), round(float(r["mu"]), 12))
        table[key] = float(r["qfi"])
    for (phi, param, p, mu), value in table.items():
        mirrored = table[(phi, param, round(1.0 - p, 12), mu)]
        assert value == pytest.approx(mirrored, abs=1e-9)


def test_figure4_structure(tmp_path):
    csv_path, map_path = figure(4, tmp_path, points=3)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["channel"] for r in rows} == {"depolarizing", "bitflip", "phaseflip"}
    assert {r["n"] for r in rows} == {"2", "3", "4", "5"}
    assert {r["family"] for r in rows} == {"ewl"}
    assert {r["r"] for r in rows} == {format(0.9, ".17g")}
    assert map_path.exists()


def test_figure_rejects_unknown_number(tmp_path):
    with pytest.raises(ValueError):
        figure(5, tmp_path)


_SHADE_MARKER = "# rows: mu descending; cols: p ascending"


def _split_heatmap(text):
    """Collect (data_lines, shade_rows) per section of a rendered heatmap."""
    parsed = []
    data, shades, in_shades = [], [], False
    for line in text.splitlines():
        if line.startswith("# channel="):
            if data or shades:
                parsed.append((data, shades))
            data, shades, in_shades = [], [], False
        elif line == _SHADE_MARKER:
            in_shades = True
        elif in_shades:
            if line:
                shades.append(line)
        elif line and not line.startswith("#"):
            data.append(line)
    if data or shades:
        parsed.append((data, shades))
    return parsed


def test_heatmap_constant_column_single_shade():
    records = [
        SweepRecord("phaseflip", "phi+", 2, 1.0, 0.1, 0.2, p, mu, "theta", "sld", 4.0)
        for p in (0.0, 0.5, 1.0)
        for mu in (0.0, 1.0)
    ]
    [(_, shades)] = _split_heatmap(render_heatmap(records))
    assert shades == [" " * 3, " " * 3]


def test_heatmap_scaling_extremes():
    values = iter(range(9))
    records = [
        SweepRecord("phaseflip", "phi+", 2, 1.0, 0.1, 0.2, p, mu, "theta", "sld",
                    float(next(values)) / 4.0)
        for p in (0.0, 0.5, 1.0)
        for mu in (0.0, 0.5, 1.0)
    ]
    [(_, shades)] = _split_heatmap(render_heatmap(records))
    assert len(shades) == 3
    # row order is mu descending: max value sits top-right, min bottom-left
    assert shades[0][-1] == "@"
    assert shades[-1][0] == " "


def test_heatmap_gnuplot_blocks(tmp_path):
    config = small_config(tmp_path, method=Method.SLD)
    text = render_heatmap(run_sweep(config))
    sections = _split_heatmap(text)
    assert len(sections) == 2  # one per param
    for data, shades in sections:
        assert len(data) == 9  # 3x3 grid of "p mu qfi" triples
        assert all(len(l.split()) == 3 for l in data)
        assert len(shades) == 3


def test_heatmap_rejects_non_rectangular():
    records = [
        SweepRecord("phaseflip", "phi+", 2, 1.0, 0.1, 0.2, 0.0, 0.0, "theta", "sld", 4.0),
        SweepRecord("phaseflip", "phi+", 2, 1.0, 0.1, 0.2, 0.5, 1.0, "theta", "sld", 4.0),
        SweepRecord("phaseflip", "phi+", 2, 1.0, 0.1, 0.2, 1.0, 0.5, "theta", "sld", 4.0),
    ]
    with pytest.raises(ValueError):
        render_heatmap(records)
