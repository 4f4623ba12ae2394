"""Smoke test of tools/fingerprint.py on two commands and the sum rates
and regions of two sweep cases."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)

SUBSET = [
    ["gdof", "--alpha", "0.5", "--gamma", "0.2", "--eta", "0.6", "--svg"],
    ["region", "--h11", "1", "--h22", "1", "--h21", "0.6", "--p1", "-1",
     "--p2", "100"],
]
# a channel on the coarse grid, and one whose layered sums overflow (both
# sweeps raise)
SUMS = [((1.0, 1.0, 0.6, 100.0, 100.0), "coarse"),
        ((1.0, 1.0, 1.0, 1.5e308, 1.5e308), "full-power")]


def test_fingerprints_repeat_and_compare(tmp_path, capsys):
    prints = {**fingerprint.run(SUBSET), **fingerprint.run_sweeps(SUMS)}
    # every file, exit code, console text, sum rate and region vertex;
    # fresh directories, same digests
    assert prints == {**fingerprint.run(SUBSET),
                      **fingerprint.run_sweeps(SUMS)}
    assert [(name.split()[0], prints[name]["exit"])
            for name in list(prints)[2:]] == [
        ("max_sum_rates", 0), ("sweep_regions", 0),
        ("max_sum_rates", "DomainError"), ("sweep_regions", "DomainError")]
    assert prints[list(prints)[3]]["regions"] != \
        prints[list(prints)[5]]["regions"]
    gdof, region = (prints[" ".join(argv)] for argv in SUBSET)
    assert gdof["exit"] == 0 and region["exit"] == 3
    assert sorted(gdof["files"]) == ["gdof.csv", "gdof.svg", "gdof_meta.json"]
    assert region["files"] == {}
    assert gdof["stdout"] != region["stdout"] == fingerprint._digest(b"")

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(prints))
    new.write_text(json.dumps(prints))
    assert fingerprint.main(["--compare", str(old), str(new)]) == 0
    assert capsys.readouterr().out == "no entry moved\n"
    gdof["files"]["gdof.svg"] = fingerprint._digest(b"moved")
    del prints[" ".join(SUBSET[1])]
    sums, regions = list(prints)[-2], list(prints)[-3]
    prints[sums]["sums"] = fingerprint._digest(b"moved")
    prints[regions]["regions"] = fingerprint._digest(b"moved")
    new.write_text(json.dumps(prints))
    assert fingerprint.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        " ".join(SUBSET[0]) + ": files/gdof.svg",
        sums + ": sums",
        " ".join(SUBSET[1]) + ": only in old",
        regions + ": regions"]
