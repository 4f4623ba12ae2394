"""Tests of the benchmark's own checks: each must reject a corrupted output.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_checks.py

Every corruption below is chosen so that exactly one check can catch it;
disabling that check makes its test fail.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import GRIDS  # noqa: E402
from zickey.cli import main  # noqa: E402

WEAK = {"h11": 1.0, "h22": 1.0, "h21": 0.6, "p1": 100.0, "p2": 100.0, "rk": 1.0}
HIGH = {"h11": 2.0, "h22": 1.0, "h21": 1.2, "p1": 5.0, "p2": 10.0, "rk": 0.5}


def _zickey(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main([str(a) for a in argv]) == 0


def _flags(ch):
    return [x for k in ("h11", "h22", "h21", "p1", "p2", "rk") for x in (f"--{k}", ch[k])]


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "corrupted"
    shutil.copytree(src, dst)
    return dst


def _rewrite_csv(path: Path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    _zickey("region", *_flags(WEAK), "--grid", "coarse", "--out-dir", base / "weak")
    _zickey("region", *_flags(HIGH), "--grid", "coarse", "--out-dir", base / "high")
    _zickey("gdof", "--alpha", 0.6, "--gamma", 0.4, "--eta", 0.5,
            "--out-dir", base / "gdof")
    _zickey("sumrate", *_flags(WEAK)[:-2], "--rk-min", 0, "--rk-max", 2,
            "--rk-steps", 5, "--sweep-powers", "--grid", "coarse",
            "--out-dir", base / "rk")
    return base


REGION = {"channel": WEAK, "grid": GRIDS["coarse"]}
GDOF = {"alpha": 0.6, "gamma": 0.4, "eta": 0.5}
SUMRATE = {"axis": "rk", "channel": WEAK, "grid": GRIDS["coarse"],
           "points": [0.0, 0.5, 1.0, 1.5, 2.0]}


def test_reference_reproduces_published_values():
    # acceptance criterion 1's showcase channel
    assert abs(ref.otp_caps(WEAK, 1, 1)[0] - ref.mpf("0.9443")) < 1e-4
    assert abs(ref.wiretap_caps(WEAK, 1, 1)[1] - ref.mpf("1.7244")) < 1e-4
    assert abs(ref.keyed_sum_bound(WEAK) - ref.mpf("5.0535")) < 1e-4
    assert abs(ref.keyed_r2_bound(WEAK) - ref.mpf("4.1117")) < 1e-4


def test_reference_and_checks_do_not_import_the_program():
    for name in ("reference.py", "checks.py", "workloads.py"):
        tree = ast.parse((HERE / name).read_text(encoding="utf-8"))
        imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                    for a in n.names]
        imported += [n.module or "" for n in ast.walk(tree)
                     if isinstance(n, ast.ImportFrom)]
        assert not [m for m in imported if m.split(".")[0] == "zickey"], name


def test_genuine_outputs_pass(outputs):
    assert checks.check("region", outputs / "weak", REGION, 1) == []
    assert checks.check("region", outputs / "high",
                        {"channel": HIGH, "grid": GRIDS["coarse"]}, 1) == []
    assert checks.check("gdof", outputs / "gdof", GDOF, 1) == []
    assert checks.check("sumrate", outputs / "rk", SUMRATE, 1) == []


def test_region_rejects_a_vertex_past_the_outer_bound(outputs, tmp_path):
    # scaling the whole key-splitting polygon keeps it convex and still
    # around the other schemes; only the outer faces can see it
    out = _copy(outputs / "weak", tmp_path)
    _rewrite_csv(out / "region_key_splitting.csv", lambda rows: rows[:1] + [
        [n, repr(float(x) * 1.05), repr(float(y) * 1.05)] for n, x, y in rows[1:]])
    fails = checks.check("region", out, REGION, 1)
    assert fails and all("beyond the outer faces" in f for f in fails), fails


def test_region_rejects_a_dropped_grid_polygon(outputs, tmp_path):
    # dropping the pad's first vertex off the axes leaves a convex,
    # down-closed polygon with the same largest R2 (held by the last vertex);
    # only the on-grid polygons show what is missing
    out = _copy(outputs / "weak", tmp_path)
    rows_seen = []

    def drop(rows):
        rows_seen.extend(rows)
        return rows[:3] + rows[4:]

    _rewrite_csv(out / "region_one_time_pad.csv", drop)
    assert len(rows_seen) >= 5  # header, origin, x-axis vertex, dropped, last
    fails = checks.check("region", out, REGION, 1)
    assert fails and all("grid polygon" in f for f in fails), fails


def test_sumrate_rejects_a_decreasing_rk_column(outputs, tmp_path):
    # raise the pad's first cell above the second: still under the outer
    # bound and above every on-grid point, so only monotonicity catches it
    out = _copy(outputs / "rk", tmp_path)

    def raise_first(rows):
        col = rows[0].index("one_time_pad")
        assert float(rows[2][col]) + 0.01 < float(rows[1][-1])
        rows[1][col] = repr(float(rows[2][col]) + 0.01)
        return rows

    _rewrite_csv(out / "sumrate.csv", raise_first)
    fails = checks.check("sumrate", out, SUMRATE, 1)
    assert fails and all("decreases along rk" in f for f in fails), fails


def test_gdof_rejects_a_moved_vertex(outputs, tmp_path):
    out = _copy(outputs / "gdof", tmp_path)

    def move(rows):
        i = max((i for i, r in enumerate(rows) if r[0] == "key_splitting"),
                key=lambda i: float(rows[i][1]) + float(rows[i][2]))
        rows[i][2] = repr(float(rows[i][2]) - 0.05)  # slide the corner inward
        return rows

    _rewrite_csv(out / "gdof.csv", move)
    fails = checks.check("gdof", out, GDOF, 1)
    assert fails and all("reference vertex" in f for f in fails), fails


def test_verify_check_exempts_only_negative_margins_of_passing_rows(tmp_path):
    # a genuine report with every margin made nonnegative passes; one passing
    # row with a negative margin gives the known fault alone, and a row that
    # does not pass is never exempted
    _zickey("verify", "--seed", 7, "--out", tmp_path / "verify.json")
    report = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    for row in report["results"]:
        row["margin"] = abs(row["margin"])

    def check(edit):
        rows = json.loads(json.dumps(report))
        edit(rows["results"][0])
        (tmp_path / "verify.json").write_text(json.dumps(rows), encoding="utf-8")
        return checks.check("verify", tmp_path, {"seed": 7}, 1)

    assert check(lambda row: None) == []
    fails = check(lambda row: row.update(margin=-0.1))
    assert len(fails) == 1 and fails[0].startswith(checks.KNOWN_FAULT), fails
    fails = check(lambda row: row.update({"pass": False, "margin": -0.1}))
    assert fails and not any(f.startswith(checks.KNOWN_FAULT) for f in fails), fails


def test_a_command_exiting_nonzero_makes_the_run_incorrect(tmp_path, monkeypatch):
    # `verify --corrupt` exits 1; no output check runs on it, so only its
    # exit code can make the run incorrect
    monkeypatch.setitem(run.workloads.WORKLOADS, "corrupt_verify", lambda rng, work: [
        run.workloads.Op("verify", ["verify", "--corrupt"], {"seed": 20240817})])
    args = argparse.Namespace(workload="corrupt_verify", seed=1, seconds=0, trace=0)
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.run(args, tmp_path / "work")
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_every_layer_resolves_in_the_program():
    for name, (modules, _) in spans.LAYERS.items():
        attr = name.rsplit(".", 1)[1]
        for mod_name in modules:
            assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
                f"{name}: {mod_name}.{attr}"


def test_tracer_refuses_a_layer_the_program_lacks(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", {"cli.no_such_layer": (("zickey.cli",), None)})
    with pytest.raises(AttributeError, match="no_such_layer"):
        spans.Tracer().install()


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
