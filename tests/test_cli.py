"""Command line behavior: emitted files, formats, determinism, exit codes."""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

import zickey
from zickey import containment_margin, hull, schemes
from zickey.cli import _svg_curves, _svg_polygons, main
from zickey.scenario import COMMAND_KEYS, KNOWN_KEYS
from zickey.svg import polyline_chart
from zickey.verify import REPORT_SCHEMA

WEAK = ["--h11", "1", "--h22", "1", "--h21", "0.6",
        "--p1", "100", "--p2", "100", "--rk", "0.2"]
HIGH = ["--h11", "1", "--h22", "1", "--h21", "1.2",
        "--p1", "100", "--p2", "100", "--rk", "1"]

ALL_SCHEMES = ("key_splitting", "rate_splitting", "rate_splitting_no_an",
               "key_as_wiretap", "one_time_pad")


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def region_files(out):
    return sorted(p.name for p in out.iterdir())


def test_region_emits_one_csv_per_scheme(tmp_path, capsys):
    out = tmp_path / "w"
    rc = main(["region", *WEAK, "--grid", "coarse", "--svg",
               "--out-dir", str(out)])
    assert rc == 0
    expected = {f"region_{s}.csv" for s in ALL_SCHEMES}
    expected |= {"region_outer.csv", "region.svg", "region_meta.json"}
    assert set(region_files(out)) == expected
    for name in ALL_SCHEMES:
        header, rows = read_rows(out / f"region_{name}.csv")
        assert header == ["scheme", "R1", "R2"]
        assert all(r[0] == name for r in rows)
        pts = [(float(r[1]), float(r[2])) for r in rows]
        assert all(x >= 0 and y >= 0 for x, y in pts)
        # CCW from the lexicographically smallest vertex
        assert pts[0] == min(pts)
        if len(pts) >= 3:
            area = sum(pts[i][0] * pts[(i + 1) % len(pts)][1]
                       - pts[(i + 1) % len(pts)][0] * pts[i][1]
                       for i in range(len(pts)))
            assert area > 0
    meta = json.loads((out / "region_meta.json").read_text())
    assert meta["regime"] == "weak_moderate"
    assert meta["suppressed"] == []
    assert meta["channel"]["snr2"] == 100.0
    assert meta["channel"]["inr1"] == pytest.approx(36.0, abs=1e-9)
    assert meta["outer_bounds"]["sum_nonsecrecy"] is None
    assert sorted(meta["files"]) == region_files(out)
    err = capsys.readouterr().err
    assert "skipping" not in err


def test_region_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["region", *WEAK, "--grid", "coarse", "--svg",
                     "--out-dir", str(out)]) == 0
    names = region_files(out1)
    assert names == region_files(out2)
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names,
                                               shallow=False)
    assert mismatch == [] and errors == []
    assert match == names


def test_region_high_regime_suppression(tmp_path, capsys):
    out = tmp_path / "h"
    assert main(["region", *HIGH, "--grid", "coarse",
                 "--out-dir", str(out)]) == 0
    files = region_files(out)
    assert "region_rate_splitting_no_an.csv" not in files
    assert "region_key_as_wiretap.csv" not in files
    assert "region_key_splitting.csv" in files
    assert "region_one_time_pad.csv" in files
    meta = json.loads((out / "region_meta.json").read_text())
    assert meta["regime"] == "high"
    assert sorted(meta["suppressed"]) == ["key_as_wiretap",
                                          "rate_splitting_no_an"]
    err = capsys.readouterr().err
    assert err.count("skipping") == 2


def test_region_zero_key_pad_collapses(tmp_path):
    out = tmp_path / "z"
    assert main(["region", *WEAK[:-2], "--rk", "0",
                 "--schemes", "one_time_pad", "--grid", "coarse",
                 "--out-dir", str(out)]) == 0
    _, rows = read_rows(out / "region_one_time_pad.csv")
    assert all(float(r[2]) == 0.0 for r in rows)
    assert "region_key_splitting.csv" not in region_files(out)


def test_tiny_powers_keep_the_outer_square(tmp_path):
    # at P = 1e-12 every rate is about 7.2e-13 bits/use
    out = tmp_path / "w"
    rc = main(["region", "--h11", "1", "--h22", "1", "--h21", "0.6",
               "--p1", "1e-12", "--p2", "1e-12", "--rk", "1",
               "--grid", "coarse", "--out-dir", str(out)])
    assert rc == 0
    _, rows = read_rows(out / "region_outer.csv")
    pts = [(float(r[1]), float(r[2])) for r in rows]
    side = pts[1][0]
    assert side == pytest.approx(7.214e-13, rel=1e-3)
    assert pts == [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)]
    outer = hull(pts)
    assert len(outer.halfplanes) == 4
    for name in ALL_SCHEMES:
        _, rows = read_rows(out / f"region_{name}.csv")
        inner = [(float(r[1]), float(r[2])) for r in rows]
        assert containment_margin(outer, inner) <= 0.0, name


def test_region_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("# weak-interference scenario\n"
                   "h11 = 1\nh22 = 1\nh21 = 0.6\n"
                   "p1 = 100\np2 = 100\nrk = 0.2\n")
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["region", "--config", str(cfg), "--rk", "1",
                 "--grid", "coarse", "--out-dir", str(out1)]) == 0
    meta = json.loads((out1 / "region_meta.json").read_text())
    assert meta["channel"]["rk"] == 1.0  # flag wins over the file
    assert main(["region", "--h11", "1", "--h22", "1", "--h21", "0.6",
                 "--p1", "100", "--p2", "100", "--rk", "1",
                 "--grid", "coarse", "--out-dir", str(out2)]) == 0
    for s in ALL_SCHEMES:
        assert filecmp.cmp(out1 / f"region_{s}.csv", out2 / f"region_{s}.csv",
                           shallow=False)


def test_region_db_flags_match_linear(tmp_path):
    out1, out2 = tmp_path / "lin", tmp_path / "db"
    assert main(["region", *WEAK, "--grid", "coarse",
                 "--out-dir", str(out1)]) == 0
    assert main(["region", "--h11", "1", "--h22", "1", "--h21", "0.6",
                 "--p1-db", "20", "--p2-db", "20", "--rk", "0.2",
                 "--grid", "coarse", "--out-dir", str(out2)]) == 0
    for s in ALL_SCHEMES:
        assert filecmp.cmp(out1 / f"region_{s}.csv", out2 / f"region_{s}.csv",
                           shallow=False)


def test_region_svg_is_wellformed_and_csv_sourced(tmp_path):
    out = tmp_path / "s"
    assert main(["region", *WEAK, "--grid", "coarse", "--svg",
                 "--out-dir", str(out)]) == 0
    text = (out / "region.svg").read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    for name in (*ALL_SCHEMES, "outer"):
        assert name in text  # legend entry per emitted polygon


def _chart_of_written_csvs(out, command):
    """The chart of a command's CSVs as read back from disk, every one its
    meta lists, in that order."""
    meta = json.loads((out / f"{command}_meta.json").read_text())
    tables = [read_rows(out / name) for name in meta["files"]
              if name.endswith(".csv")]
    if command == "sumrate":
        ((header, rows),) = tables
        return _svg_curves(header, rows, "sum rate [bits/use]",
                           f"largest sum rate vs {meta['axis']}")
    rows = [row for _, table in tables for row in table]
    if command == "gdof":
        return _svg_polygons(rows, "d1", "d2", "normalized high-power regions")
    return _svg_polygons(rows, "R1 [bits/use]", "R2 [bits/use]",
                         "secrecy rate regions")


@pytest.mark.parametrize("argv", [
    ["region", *WEAK, "--grid", "coarse"],
    ["region", *HIGH, "--grid", "coarse", "--nonsecrecy-bound"],
    ["gdof", "--alpha", "0.6", "--gamma", "0.5", "--eta", "0.3"],
    # blank cells where the cross link dominates
    ["sumrate", "--p", "10", "--rk", "0.4", "--alpha-list", "0,0.6,1.2",
     "--grid", "coarse"],
    ["sumrate", *WEAK[:-2], "--rk-list", "0,1", "--grid", "coarse"],
])
def test_svg_is_the_chart_of_the_written_csvs(tmp_path, argv):
    # the chart is drawn from the rows in memory: byte for byte the one
    # drawn by re-reading the CSVs just written
    assert main([*argv, "--svg", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / f"{argv[0]}.svg").read_text(encoding="utf-8") == \
        _chart_of_written_csvs(tmp_path, argv[0])


def _written(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("first", [
    ["region", *HIGH, "--svg", "--full-power", "--nonsecrecy-bound",
     "--grid", "coarse"],
    ["region", "--config", "{cfg}", "--grid", "n_beta1=5"],
])
def test_a_parser_reused_in_process_leaks_nothing_between_calls(tmp_path,
                                                                first):
    # one parser serves every call of a process: a plain call after one
    # with every switch, or after one reading a scenario file, writes
    # what the plain call writes in a process of its own
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("h11 = 1\nh22 = 1\nh21 = 1.2\np1 = 100\np2 = 100\n"
                   "rk = 1\nschemes = key_splitting, one_time_pad\n"
                   "svg = true\nfull_power = true\nnonsecrecy_bound = true\n"
                   "grid.n_lambda1 = 5\n")
    plain = ["region", *WEAK]
    first = [a.format(cfg=cfg) for a in first]
    assert main([*first, "--out-dir", str(tmp_path / "first")]) == 0
    assert main([*plain, "--out-dir", str(tmp_path / "after")]) == 0
    src = str(Path(zickey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "zickey", *plain, "--out-dir",
                    str(tmp_path / "fresh")], env=env, check=True,
                   capture_output=True)
    after, fresh = _written(tmp_path / "after"), _written(tmp_path / "fresh")
    assert list(after) == list(fresh)
    assert after == fresh


def test_svg_escapes_markup_but_not_quotes():
    svg = polyline_chart([("a<b & \"c\" 'd'>", [(0, 0), (1, 1)])],
                         "x & <y>", "'q' \"r\" >", title="T<1> & \"2\"")
    assert '>T&lt;1&gt; &amp; "2"</text>' in svg
    assert '>x &amp; &lt;y&gt;</text>' in svg
    assert '>\'q\' "r" &gt;</text>' in svg
    assert '>a&lt;b &amp; "c" \'d\'&gt;</text>' in svg
    texts = set(ET.fromstring(svg).itertext())
    assert {"T<1> & \"2\"", "x & <y>", "'q' \"r\" >",
            "a<b & \"c\" 'd'>"} <= texts


def test_cli_import_loads_no_xml_or_network_modules():
    src = str(Path(zickey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, zickey.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    # pathlib, which numpy imports too, loads urllib.parse and nothing more
    assert not [m for m in loaded if m not in {"urllib", "urllib.parse"}
                and m.split(".")[0] in {"xml", "urllib", "http", "email", "ssl"}]


def test_region_error_exit_codes(tmp_path, capsys):
    # missing channel parameters -> config error
    assert main(["region", "--h11", "1", "--out-dir", str(tmp_path)]) == 2
    # unknown scheme name
    assert main(["region", *WEAK, "--schemes", "bogus",
                 "--out-dir", str(tmp_path)]) == 2
    # malformed grid option
    assert main(["region", *WEAK, "--grid", "n_桁=3",
                 "--out-dir", str(tmp_path)]) == 2
    # contradictory power flags in the file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("h11 = 1\nh22 = 1\nh21 = 0.6\n"
                   "p1 = 100\np1_db = 20\np2 = 100\n")
    assert main(["region", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 2
    # domain violation: negative power budget
    assert main(["region", "--h11", "1", "--h22", "1", "--h21", "0.6",
                 "--p1", "-5", "--p2", "100",
                 "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("flag, value, code", [
    ("--p1-db", "-1e1", 0),   # a valid -10 dB
    ("--p1", "-1e-3", 3),     # a negative power budget
    ("--p1", "-inf", 2),      # not finite, like --p1 inf
    ("--p1", "-1e400", 2),
    ("--p1", "inf", 2),
])
def test_negative_float_values_are_flag_values(tmp_path, capsys, flag, value,
                                               code):
    # argparse alone takes -1e1 or -inf for an option and raises SystemExit
    assert main(["region", "--h11", "1", "--h22", "1", "--h21", "0.6",
                 flag, value, "--p2", "1", "--grid", "coarse",
                 "--out-dir", str(tmp_path)]) == code
    assert ("error: " in capsys.readouterr().err) == (code != 0)


@pytest.mark.parametrize("power", ["1e160", "1e308"])
def test_huge_powers_exit_with_domain_error(tmp_path, capsys, power):
    # the keyed R2 bound overflows to nan; that is a domain error, not a crash
    powers = ["--p1", power, "--p2", power]
    assert main(["region", "--h11", "1", "--h22", "1", "--h21", "0.6",
                 *powers, "--rk", "1", "--grid", "coarse",
                 "--out-dir", str(tmp_path)]) == 3
    assert main(["sumrate", "--h11", "1", "--h22", "1", "--h21", "0.6",
                 *powers, "--rk-list", "0,1", "--grid", "coarse",
                 "--out-dir", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["flag", "file"])
def test_overflowing_db_power_exits_with_domain_error(tmp_path, capsys, form):
    if form == "flag":
        argv = ["region", "--h11", "1", "--h22", "1", "--h21", "0.5",
                "--p1-db", "4000", "--p2", "1"]
    else:
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("h11 = 1\nh22 = 1\nh21 = 0.5\np1_db = 4000\np2 = 1\n")
        argv = ["region", "--config", str(cfg)]
    assert main([*argv, "--grid", "coarse", "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == \
        "error: p1 must be a finite number, got inf\n"


def test_overflowing_caps_exit_with_domain_error(tmp_path, capsys):
    # finite received powers whose sum overflows inside the rate caps
    assert main(["region", "--h11", "1", "--h22", "1", "--h21", "1",
                 "--p1", "1.5e308", "--p2", "1.5e308", "--rk", "1",
                 "--grid", "coarse", "--out-dir", str(tmp_path)]) == 3
    assert "rate caps overflow" in capsys.readouterr().err


@pytest.mark.parametrize("h21, power", [("1", "1.5e308"), ("0.6", "1e160")])
def test_domain_errors_raise_no_runtime_warnings(tmp_path, capsys, h21, power):
    # overflowing formulas end in the exit-3 message alone
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["region", "--h11", "1", "--h22", "1", "--h21", h21,
                     "--p1", power, "--p2", power, "--rk", "1",
                     "--grid", "coarse", "--out-dir", str(tmp_path)]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "error:" in capsys.readouterr().err


def test_default_grid_overflow_ends_in_the_message_alone(tmp_path, capsys):
    # the default grid walks cells of power splits; a cell whose sum
    # overflows is never dropped, so the run ends as on the coarse grid
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["region", "--h11", "1", "--h22", "1", "--h21", "1",
                     "--p1", "1.5e308", "--p2", "1.5e308", "--rk", "1",
                     "--out-dir", str(tmp_path)]) == 3
    assert not caught
    assert capsys.readouterr().err == \
        "error: rate caps overflow float64: powers or gains too large\n"


def test_config_file_parse_errors(tmp_path):
    out = str(tmp_path)
    bad = [
        "h11 : 1\n",                      # not key = value
        "mystery = 3\n",                  # unknown key
        "h11 = 1\nh11 = 2\n",             # duplicate
        "h11 =\n",                        # empty value
        "alpha_steps = 0\n",              # count below 1
        "p1 = inf\n",                     # non-finite
    ]
    for text in bad:
        cfg = tmp_path / "t.cfg"
        cfg.write_text(text)
        assert main(["region", "--config", str(cfg), "--out-dir", out]) == 2


@pytest.mark.parametrize("key, value", [("seed", "3"), ("corrupt", "true")])
def test_verify_keys_are_unknown_in_scenario_files(tmp_path, capsys, key,
                                                   value):
    # verify takes only flags; no command reads these keys from a file
    cfg = tmp_path / "t.cfg"
    cfg.write_text("h11 = 1\nh22 = 1\nh21 = 0.5\np1 = 1\np2 = 1\n"
                   f"{key} = {value}\n")
    assert main(["region", "--config", str(cfg), "--grid", "coarse",
                 "--out-dir", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


CHANNEL_FILE = "h11 = 1\nh22 = 1\nh21 = 0.5\np1 = 1\np2 = 1\n"


@pytest.mark.parametrize("argv, text, key", [
    (["region", "--grid", "coarse"], CHANNEL_FILE, "gamma"),     # gdof's
    (["region", "--grid", "coarse"], CHANNEL_FILE, "rk_steps"),  # sumrate's
    (["sumrate", "--rk-list", "0,1", "--grid", "coarse"], CHANNEL_FILE,
     "eta"),                                                     # gdof's
    (["gdof", "--alpha", "0.5"], "gamma = 0.2\n", "h11"),         # region's
])
def test_keys_another_command_reads_are_unknown(tmp_path, capsys, argv,
                                                 text, key):
    # each command takes the keys it reads; the file passes without the key
    cfg = tmp_path / "t.cfg"
    cfg.write_text(text)
    run = [*argv, "--config", str(cfg), "--out-dir", str(tmp_path)]
    assert main(run) == 0
    cfg.write_text(f"{text}{key} = 5\n")
    assert main(run) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_every_scenario_key_is_read_by_some_command():
    assert set().union(*COMMAND_KEYS.values()) == KNOWN_KEYS


def test_sumrate_alpha_sweep(tmp_path, capsys):
    out = tmp_path / "sa"
    rc = main(["sumrate", "--p", "10", "--rk", "0.4",
               "--alpha-list", "0,0.6,1.2", "--grid", "coarse", "--svg",
               "--out-dir", str(out)])
    assert rc == 0
    header, rows = read_rows(out / "sumrate.csv")
    assert header == ["alpha", *ALL_SCHEMES, "outer"]
    assert [r[0] for r in rows] == ["0.0", "0.6", "1.2"]
    blank_cols = [header.index("rate_splitting_no_an"),
                  header.index("key_as_wiretap"), header.index("outer")]
    for r in rows[:2]:  # weak/moderate rungs: every cell filled
        assert all(cell != "" for cell in r)
    last = rows[2]  # inr > snr: unsupported schemes and keyed sum blank
    for idx in blank_cols:
        assert last[idx] == ""
    assert last[header.index("key_splitting")] != ""
    err = capsys.readouterr().err
    assert "left blank" in err
    meta = json.loads((out / "sumrate_meta.json").read_text())
    assert meta["axis"] == "alpha"
    assert meta["family"] == {"p": 10.0, "rk": 0.4}
    assert sorted(meta["suppressed_in_high_regime"]) == [
        "key_as_wiretap", "rate_splitting_no_an"]
    assert meta["full_power"] is True
    root = ET.fromstring((out / "sumrate.svg").read_text())
    assert root.tag.endswith("svg")


def test_sumrate_rk_sweep_monotone(tmp_path):
    out = tmp_path / "sr"
    assert main(["sumrate", "--h11", "1", "--h22", "1", "--h21", "0.6",
                 "--p1", "10", "--p2", "10", "--rk-list", "0,0.5,1,2",
                 "--grid", "coarse", "--out-dir", str(out)]) == 0
    header, rows = read_rows(out / "sumrate.csv")
    assert header[0] == "rk"
    for col in range(1, len(header)):
        vals = [float(r[col]) for r in rows if r[col] != ""]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_sumrate_axis_validation(tmp_path):
    out = str(tmp_path)
    # no axis at all
    assert main(["sumrate", "--p", "10", "--out-dir", out]) == 2
    # both axes at once
    assert main(["sumrate", "--p", "10", "--alpha-list", "0.5",
                 "--rk-list", "1", "--out-dir", out]) == 2
    # alpha sweep without the symmetric power
    assert main(["sumrate", "--alpha-list", "0.5", "--out-dir", out]) == 2
    # rk sweep without any channel
    assert main(["sumrate", "--rk-list", "0,1", "--out-dir", out]) == 2
    # rk sweep over a negative key rate
    assert main(["sumrate", "--p", "10", "--alpha", "0.5",
                 "--rk-list=-1,0", "--out-dir", out]) == 2


@pytest.mark.parametrize("axis, channel", [
    ("rk", ["--h11", "1", "--h22", "1", "--h21", "0.5", "--p1", "10",
            "--p2", "10"]),
    ("alpha", ["--p", "100", "--rk", "1"]),
])
def test_overflowing_axis_span_is_a_config_error(tmp_path, capsys, axis,
                                                 channel):
    # max - min overflows to inf: refused before linspace steps by it
    span = [f"--{axis}-min", "-1e308", f"--{axis}-max", "1e308",
            f"--{axis}-steps", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sumrate", *channel, *span,
                     "--out-dir", str(tmp_path)]) == 2
    assert not caught
    assert capsys.readouterr().err == \
        f"error: {axis}_max - {axis}_min overflows float64\n"


def test_sumrate_meta_records_the_swept_grid(tmp_path):
    grid = "n_lambda1=5,n_lambda2=5,n_beta1=5,n_beta2=5,n_eta=3"
    for flags, pinned in ((["--grid", grid, "--sweep-powers"], False),
                          (["--grid", grid], True)):
        out = tmp_path / str(pinned)
        assert main(["sumrate", *WEAK, "--rk-list", "0,1", *flags,
                     "--out-dir", str(out)]) == 0
        meta = json.loads((out / "sumrate_meta.json").read_text())
        assert meta["full_power"] is pinned
        assert meta["grid"]["full_power"] is pinned


def test_sumrate_power_sweep_beats_full_power(tmp_path):
    outs = []
    for args, name in ((["--sweep-powers"], "swept"), ([], "full")):
        out = tmp_path / name
        assert main(["sumrate", "--h11", "1", "--h22", "1", "--h21", "1.4",
                     "--p1", "50", "--p2", "50", "--rk-list", "0.3",
                     "--grid", "coarse", *args, "--out-dir", str(out)]) == 0
        outs.append(read_rows(out / "sumrate.csv"))
    (h_s, rows_s), (h_f, rows_f) = outs
    assert h_s == h_f
    for col in range(1, len(h_s) - 1):
        if rows_s[0][col] == "" or rows_f[0][col] == "":
            continue
        assert float(rows_s[0][col]) >= float(rows_f[0][col]) - 1e-12


@pytest.mark.parametrize("argv", [
    ["region", *WEAK[:-4], "--p1", "inf", "--p2", "100"],
    ["region", *WEAK[:-2], "--rk", "nan"],
    ["region", *WEAK, "--h21", "1e400"],
    ["region", *WEAK, "--p1-db", "x"],
    ["sumrate", *WEAK, "--rk-steps", "1.5"],
    ["sumrate", *WEAK, "--rk-steps", "0"],
    ["sumrate", "--p", "10", "--alpha-min", "inf", "--alpha-steps", "2"],
    ["gdof", "--alpha", "0.5", "--gamma", "inf"],
])
def test_flags_parse_like_scenario_files(tmp_path, capsys, argv):
    # a value a scenario file refuses with exit 2 is refused the same way
    # as a flag, never with exit 3 or argparse's SystemExit
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: key ")
    assert list(tmp_path.iterdir()) == []


def test_gdof_outputs_and_reference(tmp_path):
    out = tmp_path / "g"
    assert main(["gdof", "--alpha", "0.3", "--gamma", "0.3", "--svg",
                 "--out-dir", str(out)]) == 0
    header, rows = read_rows(out / "gdof.csv")
    assert header == ["scheme", "d1", "d2"]
    by_scheme = {}
    for name, xs, ys in rows:
        by_scheme.setdefault(name, []).append((float(xs), float(ys)))
    assert set(by_scheme) == {"key_splitting", "rate_splitting",
                              "key_as_wiretap", "one_time_pad", "no_secrecy"}
    # saturated key at eta = 1: key splitting reaches the reference shape
    ks, ref = by_scheme["key_splitting"], by_scheme["no_secrecy"]
    assert len(ks) == len(ref)
    assert all(math.dist(a, b) < 1e-12 for a, b in zip(ks, ref))
    meta = json.loads((out / "gdof_meta.json").read_text())
    assert meta["eta"] == 1.0
    root = ET.fromstring((out / "gdof.svg").read_text())
    assert root.tag.endswith("svg")


def test_gdof_scheme_selection_and_domain(tmp_path):
    out = tmp_path / "gg"
    assert main(["gdof", "--alpha", "0.5", "--gamma", "0.1",
                 "--schemes", "one_time_pad", "--out-dir", str(out)]) == 0
    _, rows = read_rows(out / "gdof.csv")
    assert {r[0] for r in rows} == {"one_time_pad", "no_secrecy"}
    # beyond the supported interference exponent
    assert main(["gdof", "--alpha", "1.2", "--gamma", "0.1",
                 "--out-dir", str(out)]) == 3
    # missing required parameter
    assert main(["gdof", "--alpha", "0.5", "--out-dir", str(out)]) == 2
    # a scheme without a GDOF claim
    assert main(["gdof", "--alpha", "0.5", "--gamma", "0.1",
                 "--schemes", "rate_splitting_no_an", "--out-dir", str(out)]) == 2


def test_verify_passes_and_matches_schema(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--out", str(report_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["all_pass"] is True
    assert report["n_scenarios"] >= 23  # at least one row per invariant
    assert json.loads(report_path.read_text()) == report


def test_verify_corrupt_self_test(capsys):
    assert main(["verify", "--corrupt"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["all_pass"] is False
    failed = {r["invariant"] for r in report["results"] if not r["pass"]}
    assert failed == {"schemes_within_outer"}
    assert "schemes_within_outer" in captured.err


@pytest.mark.parametrize("argv", [
    ["region", *WEAK, "--grid", "coarse"],
    ["sumrate", "--p", "10", "--alpha-list", "0.5", "--grid", "coarse"],
    ["gdof", "--alpha", "0.5", "--gamma", "0.1"],
])
def test_empty_scheme_list_is_a_config_error(tmp_path, capsys, argv):
    assert main([*argv, "--schemes", "", "--out-dir", str(tmp_path)]) == 2
    assert "empty list" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_huge_grid_exits_3_before_any_sweep(tmp_path, capsys, monkeypatch):
    # the grid is refused before a cap array is built: a sweep that starts
    # fails this test instead of allocating terabytes
    def unreachable(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(schemes, "_groups", unreachable)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("grid.n_beta2 = 10000000\n")
    for argv in (["region", *WEAK, "--grid", "n_beta2=10000000"],
                 ["region", *WEAK, "--config", str(cfg)],
                 ["sumrate", *WEAK[:-2], "--rk-list", "0,1",
                  "--grid", "n_beta2=10000000"]):
        assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 3
        assert "exceeds the budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["region", "sumrate"])
@pytest.mark.parametrize("entry", ["no_an=true", "include_gdof_split=false",
                                   "full_power=true"])
def test_grid_takes_only_point_counts(tmp_path, capsys, command, entry):
    # rate_splitting_no_an and the noise-floor lambda2 sample are fixed parts
    # of the sweep; full power is set by each command's own flag and key
    argv = [command, *WEAK] if command == "region" else \
        [command, *WEAK[:-2], "--rk-list", "0,1"]
    name, _, value = entry.partition("=")
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"grid.{name} = {value}\n")
    for i, flags in enumerate((["--grid", entry], ["--config", str(cfg)])):
        out = tmp_path / f"o{i}"
        assert main([*argv, *flags, "--out-dir", str(out)]) == 2, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and name in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("alphas", ["1000", "0,1000"])
def test_overflowing_cross_gain_is_a_domain_error(tmp_path, capsys, alphas):
    # p**((alpha - 1)/2) overflows a Python float, which raises instead of
    # giving inf; the command ends in one error line and writes nothing
    out = tmp_path / "o"
    assert main(["sumrate", "--p", "10", "--alpha-list", alphas,
                 "--grid", "coarse", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err
    assert err.count("\n") == 1
    assert not out.exists()


# sumrate.csv of two coarse-grid power sweeps, pinned before the sum rate
# was bounded and pruned and the layered base was shared between calls
GOLDEN_SUMRATE = [
    (["--h11", "1", "--h22", "1", "--h21", "0.6", "--p1", "100", "--p2", "100",
      "--rk-min", "0", "--rk-max", "2", "--rk-steps", "5"],
     "rk,key_splitting,rate_splitting,rate_splitting_no_an,key_as_wiretap,"
     "one_time_pad,outer\n"
     "0.0,3.389367122058918,3.389367122058918,3.389367122058918,"
     "3.3291057413758973,3.3291057413758973,4.053484799937319\n"
     "0.5,3.838223843729626,3.549016041480263,3.549016041480263,"
     "3.3291057413758973,3.3291057413758973,4.553484799937319\n"
     "1.0,4.063443472816356,3.549016041480263,3.549016041480263,"
     "3.7785617267980296,3.3291057413758973,5.053484799937319\n"
     "1.5,4.1967439832433495,3.549016041480263,3.549016041480263,"
     "4.008277536116679,3.630833785034944,5.553484799937319\n"
     "2.0,4.238271853107128,3.549016041480263,3.549016041480263,"
     "4.124004666832136,4.008277536116679,6.053484799937319\n"),
    (["--p", "100", "--rk", "1", "--alpha-min", "0.25", "--alpha-max", "1.25",
      "--alpha-steps", "5"],
     "alpha,key_splitting,rate_splitting,rate_splitting_no_an,key_as_wiretap,"
     "one_time_pad,outer\n"
     "0.25,5.625698009052771,4.8652483818591135,4.8652483818591135,"
     "5.625698009052771,4.091643609408374,6.629524878448397\n"
     "0.5,4.815642582526886,4.126923742493702,4.126923742493702,"
     "4.793285876791407,3.753016015749718,5.9284956734331455\n"
     "0.75,4.106806148322189,3.5542789815935314,3.5542789815935314,"
     "3.925984420867677,3.3291057413758973,5.144307646076535\n"
     "1.0,3.8255258455894645,3.8255258455894645,3.8255258455894645,"
     "3.3291057413758973,3.3291057413758973,\n"
     "1.25,4.329105741375898,4.329105741375898,,,3.3291057413758973,\n"),
]


@pytest.mark.parametrize("argv, want", GOLDEN_SUMRATE, ids=["rk", "alpha"])
def test_sumrate_power_sweeps_match_golden_bytes(tmp_path, argv, want):
    assert main(["sumrate", *argv, "--grid", "coarse", "--sweep-powers",
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "sumrate.csv").read_bytes() == want.encode()


# sumrate.csv of the README's default-grid power sweep, pinned before the
# sum rates skipped the power splits another split dominates
GOLDEN_DEFAULT_GRID = (
    "rk,key_splitting,rate_splitting,rate_splitting_no_an,"
    "key_as_wiretap,one_time_pad,outer\n"
    "0.0,3.3900046551232075,3.3900046551232075,3.3900046551232075,"
    "3.3291057413758973,3.3291057413758973,4.053484799937319\n"
    "0.5,3.8513976629522566,3.549016041480263,3.549016041480263,"
    "3.771830352501729,3.3291057413758973,4.553484799937319\n"
    "1.0,4.095597689533198,3.549016041480263,3.549016041480263,"
    "3.923769624202963,3.793364713447672,5.053484799937319\n"
    "1.5,4.1967439832433495,3.549016041480263,3.549016041480263,"
    "4.050564248439663,3.923769624202963,5.553484799937319\n"
    "2.0,4.243242398324205,3.549016041480263,3.549016041480263,"
    "4.133451818906424,4.008277536116679,6.053484799937319\n")


def test_sumrate_default_grid_power_sweep_matches_golden_bytes(tmp_path):
    assert main(["sumrate", "--h11", "1", "--h22", "1", "--h21", "0.6",
                 "--p1", "100", "--p2", "100", "--rk-steps", "5",
                 "--sweep-powers", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "sumrate.csv").read_bytes() == \
        GOLDEN_DEFAULT_GRID.encode()


def test_one_point_axes_warn_on_sum_rates_as_on_regions(tmp_path):
    # a swept axis of one point draws the same warnings from both sweeps
    sumrate = ["sumrate", "--h11", "1", "--h22", "1", "--h21", "0.6",
               "--p1", "100", "--p2", "100", "--rk-min", "0", "--rk-max", "2",
               "--rk-steps", "3", "--sweep-powers"]
    caught = []
    for argv in (sumrate, ["region", *WEAK]):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            assert main([*argv, "--grid", "n_lambda1=1,n_eta=1",
                         "--out-dir", str(tmp_path / argv[0])]) == 0
        caught.append([str(w.message) for w in got])
    # key_splitting's lambda1 and eta, rate_splitting's lambda1, in words
    # that fit a sum-rate sweep as well as a region
    assert caught == [[f"swept axis {axis} has fewer than 2 points; the "
                       "sweep will be badly undersampled"
                       for axis in ("lambda1", "eta", "lambda1")]] * 2
