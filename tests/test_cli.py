import csv
import math
import operator
import re

from hypothesis import given, settings, strategies as st
import pytest

import corrqfi.cli
import corrqfi.sweep
from corrqfi.cli import main, parse_angle
from corrqfi.sweep import CSV_HEADER


def test_parse_angle_literals():
    assert parse_angle("pi/8") == pytest.approx(math.pi / 8)
    assert parse_angle("0.5") == 0.5
    assert parse_angle("2*pi") == pytest.approx(2 * math.pi)
    assert parse_angle("pi/2-pi/3") == pytest.approx(math.pi / 6)
    assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
    assert parse_angle("(pi+1)/2") == pytest.approx((math.pi + 1) / 2)
    assert parse_angle("3×pi÷4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("1e-3") == pytest.approx(1e-3)
    assert parse_angle("07") == 7.0
    assert parse_angle("3xpi/4") == 3 * math.pi / 4
    assert parse_angle("PI/8") == math.pi / 8
    assert parse_angle("pi\t/ 2") == math.pi / 2


def test_parse_angle_rejects_garbage():
    nested = "(" * 300 + "1" + ")" * 300
    for bad in ("pie", "1 +", "(pi", "pi pi", "2**3", "pi/0", "1_0", nested):
        with pytest.raises(ValueError, match="angle expression"):
            parse_angle(bad)


# Expression trees for the property test: a leaf is (value, spellings), an
# inner node is (op, children).  The test's own oracle evaluates the tree in
# float arithmetic; the rendering varies spellings, parentheses and spaces.
_OPS = {
    "+": (operator.add, ("+",)),
    "-": (operator.sub, ("-",)),
    "*": (operator.mul, ("*", "x", "×")),
    "/": (operator.truediv, ("/", "÷")),
}
_leaves = st.one_of(
    st.just((math.pi, ["pi", "PI", "Pi", "pI"])),
    st.builds(lambda k, zeros: (float(k), ["0" * zeros + str(k)]),
              st.integers(0, 10**20), st.integers(0, 3)),
    st.floats(0.0, 1e300).map(lambda x: (x, [repr(x), repr(x).upper()])),
)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["u+", "u-"]), st.tuples(sub)),
        st.tuples(st.sampled_from(sorted(_OPS)), st.tuples(sub, sub)),
    ),
    max_leaves=12,
)


def _oracle(tree) -> float:
    head, rest = tree
    if isinstance(head, float):
        return head
    values = [_oracle(child) for child in rest]
    if head in ("u+", "u-"):
        return values[0] if head == "u+" else -values[0]
    if head == "/" and values[1] == 0.0:
        raise ZeroDivisionError
    return _OPS[head][0](*values)


def _render(tree, draw) -> str:
    def space() -> str:
        return draw(st.sampled_from(["", "", " ", "\t", "  ", "\n"]))

    head, rest = tree
    if isinstance(head, float):
        text = draw(st.sampled_from(rest))
    else:
        parts = [_render(child, draw) for child in rest]
        parts = [part if isinstance(child[0], float) else f"({part})"
                 for part, child in zip(parts, rest)]
        if head in ("u+", "u-"):
            text = head[1] + space() + parts[0]
        else:
            op = draw(st.sampled_from(_OPS[head][1]))
            text = parts[0] + space() + op + space() + parts[1]
    for _ in range(draw(st.integers(0, 2))):
        text = "(" + space() + text + space() + ")"
    return text


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.data(), _trees)
def test_parse_angle_matches_an_expression_tree(data, tree):
    text = _render(tree, data.draw)
    try:
        want = _oracle(tree)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="division by zero"):
            parse_angle(text)
        return
    assert parse_angle(text).hex() == want.hex(), text


def test_point_command(capsys):
    code = main(
        [
            "point",
            "--channel", "phaseflip",
            "--theta", "pi/8",
            "--phi", "pi/6",
            "--p", "0.4",
            "--mu", "0.9",
            "--param", "theta",
            "--method", "both",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    values = [float(m) for m in re.findall(r"qfi=(\S+)", out)]
    assert len(values) == 2
    for value in values:
        assert abs(value - 4.0) <= 1e-12
    assert "|sld - closed|" in out


def test_point_requires_channel(capsys):
    code = main(["point", "--param", "theta"])
    assert code == 2
    assert "channel" in capsys.readouterr().err


def test_point_rejects_a_mixing_ratio_for_bell_probes(capsys):
    code = main(["point", "--channel", "bitflip", "--family", "psi+", "--r", "0.5"])
    assert code == 2
    assert "only to the ewl family" in capsys.readouterr().err


def test_sweep_rejects_a_repeated_param(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code = main(
        ["sweep", "--channel", "phaseflip", "--grid-p", "0:1:2", "--grid-mu", "0:1:2",
         "--param", "theta,theta", "--out", str(out_csv)]
    )
    assert code == 2
    assert "parameters must not repeat" in capsys.readouterr().err
    assert not out_csv.exists()


def test_sweep_and_heatmap_commands(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code = main(
        [
            "sweep",
            "--channel", "phaseflip",
            "--grid-p", "0:1:3",
            "--grid-mu", "0:1:3",
            "--param", "phi",
            "--method", "sld",
            "--jobs", "1",
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 9
    out_map = tmp_path / "map.txt"
    code = main(["heatmap", "--csv", str(out_csv), "--out", str(out_map)])
    assert code == 0
    assert out_map.read_text().startswith("#")


@pytest.mark.parametrize(
    "row, message",
    [
        ("phaseflip,phi+,2,1,0.1,0.2,0,0,theta,sld", "expected 11, got 10"),
        ("phaseflip,phi+,2,1,0.1,0.2,0,0,theta,sld,four", "could not convert"),
        ("phaseflip,phi+,2,1,0.1,0.2,0,0,theta,sld,9", "outside the sane range"),
        ("phaseflip,phi+,2,1,0.1,0.2,0,0,theta,sld," + "4" * 200_000, "field limit"),
    ],
    ids=["short-row", "non-numeric-qfi", "qfi-out-of-range", "oversized-field"],
)
def test_heatmap_names_the_malformed_line(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    good = "phaseflip,phi+,2,1,0.1,0.2,0,1,theta,sld,4"
    path.write_text(",".join(CSV_HEADER) + f"\n{good}\n{row}\n", encoding="utf-8")
    code = main(["heatmap", "--csv", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}:3:" in err and message in err


@pytest.mark.parametrize("which", ["1", "2", "3", "4"])
def test_heatmap_reproduces_the_figure_heatmap(tmp_path, capsys, which):
    assert main(["figure", "--which", which, "--points", "3", "--out", str(tmp_path)]) == 0
    out = tmp_path / "map.txt"
    assert main(["heatmap", "--csv", str(tmp_path / f"fig{which}.csv"), "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / f"fig{which}_heatmap.txt").read_bytes()


def test_figure_never_reads_its_csv(tmp_path, capsys, monkeypatch):
    def refuse(path):
        raise AssertionError(f"figure read {path} back")

    monkeypatch.setattr(corrqfi.sweep, "read_csv", refuse)
    assert main(["figure", "--which", "2", "--points", "3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig2_heatmap.txt").read_text().startswith("# channel=bitflip")


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "channel = phaseflip\n"
        "theta = pi/8\n"
        "phi = pi/6\n"
        "p = 0.4\n"
        "mu = 0.0   # overridden by the flag below\n"
        "param = theta\n"
        "method = sld\n"
    )
    code = main(["point", "--config", str(config), "--mu", "0.9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mu=0.9" in out
    assert "qfi=4" in out


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("volume = 11\n")
    code = main(["point", "--config", str(config), "--channel", "bitflip"])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_check_command(capsys):
    code = main(["check", "--samples", "25", "--seed", "3", "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_check_command_fails_at_zero_tol(capsys):
    code = main(["check", "--samples", "10", "--seed", "3", "--tol", "0"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_estimate_command(capsys):
    code = main(
        [
            "estimate",
            "--channel", "phaseflip",
            "--p", "0.3",
            "--mu", "0.5",
            "--param", "phi",
            "--shots", "400",
            "--trials", "3",
            "--seed", "9",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "empirical var" in out
    assert "bound 1/(M*F)" in out


def test_estimate_rejects_two_params(capsys):
    code = main(
        ["estimate", "--channel", "phaseflip", "--param", "theta,phi", "--trials", "2"]
    )
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_estimate_rejects_a_single_trial(capsys):
    code = main(["estimate", "--channel", "phaseflip", "--param", "phi", "--trials", "1"])
    assert code == 2
    assert "trials must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    out_csv = tmp_path / "out.csv"
    code = main(
        ["sweep", "--channel", "phaseflip", "--grid-p", "0:1:2", "--grid-mu", "0:1:2",
         "--jobs", jobs, "--out", str(out_csv)]
    )
    assert code == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    for which in ("3", "4"):
        code = main(["figure", "--which", which, "--points", "2", "--jobs", jobs,
                     "--out", str(tmp_path / "fig")])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_figure_command(tmp_path, capsys):
    code = main(["figure", "--which", "3", "--points", "4", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "fig3.csv").exists()
    assert (tmp_path / "fig3_heatmap.txt").exists()


def test_figure_rejects_too_few_points(tmp_path, capsys):
    for which in ("3", "4"):
        for points in ("0", "1"):
            code = main(["figure", "--which", which, "--points", points, "--out", str(tmp_path)])
            assert code == 2
            assert "at least 2 points" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bad_flag_value(capsys):
    code = main(["point", "--channel", "sideways"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_main_reuses_its_parser_without_carrying_state(capsys):
    # the parser is built once per process; a failed parse and the calls
    # after it must print what calls with a freshly built parser print
    calls = [
        ["point", "--channel", "bitflip", "--nope", "1"],
        ["point", "--channel", "phaseflip", "--p", "0.2", "--mu", "0.4"],
        ["check", "--samples", "2", "--seed", "1"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    reused = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        corrqfi.cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [2, 0, 0]
    assert "unrecognized arguments: --nope 1" in reused[0][1].err
    assert corrqfi.cli._parser.cache_info().currsize == 1
