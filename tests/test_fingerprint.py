"""Smoke test of tools/fingerprint.py on two commands."""

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


def test_fingerprints_repeat_and_compare(tmp_path, capsys):
    prints = fingerprint.run(SUBSET)
    # every file, exit code and console text; fresh directories, same digests
    assert prints == fingerprint.run(SUBSET)
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
    new.write_text(json.dumps(prints))
    assert fingerprint.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        " ".join(SUBSET[0]) + ": files/gdof.svg",
        " ".join(SUBSET[1]) + ": only in old"]
