"""Invariant battery: full pass, schema validity, corrupt self-test."""

import json

import jsonschema
import pytest

from zickey.verify import (INVARIANTS, REPORT_SCHEMA, render_report,
                           run_battery)


def test_default_battery_passes():
    report = run_battery()
    assert report["all_pass"] is True
    assert report["corrupt"] is False
    assert report["n_scenarios"] == len(report["results"])
    ran = {r["invariant"] for r in report["results"]}
    assert ran == {name for name, _ in INVARIANTS}
    # every passing inequality row records its slack
    for row in report["results"]:
        assert row["pass"] is True
        assert isinstance(row["margin"], float)


def test_report_schema():
    report = run_battery()
    jsonschema.validate(report, REPORT_SCHEMA)
    # the rendered form round-trips
    assert json.loads(render_report(report)) == report


def test_battery_deterministic_per_seed():
    a = render_report(run_battery(seed=123))
    b = render_report(run_battery(seed=123))
    assert a == b
    c = run_battery(seed=124)
    assert c["all_pass"] is True  # invariants hold at any seed


def test_corrupt_fails_exactly_the_containment_invariant():
    report = run_battery(corrupt=True)
    assert report["all_pass"] is False
    failed = {r["invariant"] for r in report["results"] if not r["pass"]}
    assert failed == {"schemes_within_outer"}
    # margin is slack, so failing rows sit below zero
    bad = [r for r in report["results"]
           if r["invariant"] == "schemes_within_outer" and not r["pass"]]
    assert bad and all(r["margin"] < 0 for r in bad)
    jsonschema.validate(report, REPORT_SCHEMA)


@pytest.mark.parametrize("seed", [7, 20240817, 1, 2, 3])
def test_margin_sign_matches_pass(seed):
    # margins are the slack of the test that decides pass, so round-off
    # cannot leave a passing row below zero
    report = run_battery(seed=seed)
    assert report["all_pass"] is True
    for row in report["results"]:
        assert row["pass"] == (row["margin"] >= 0.0), row
    corrupt = run_battery(seed=seed, corrupt=True)
    for row in corrupt["results"]:
        assert row["pass"] == (row["margin"] >= 0.0), row
    assert {r["invariant"] for r in corrupt["results"]
            if not r["pass"]} == {"schemes_within_outer"}
