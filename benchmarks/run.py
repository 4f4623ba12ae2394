"""Benchmark of the zickey command line, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload region_default --seed 1 \
        --seconds 20 --trace 0

The run imports `zickey` from `src/`, builds the workload's round of CLI
commands from the seed, and calls `zickey.cli.main(argv)` in this process,
one command after another, repeating the round until `--seconds` have
passed (whole rounds only). Afterwards every output of the first round is
checked against `reference.py`, and the last round's files are compared
byte for byte with the first round's. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer ones with `--trace 1`.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set-up is timed once per this many seconds of the measured window, in
# bursts of at most SETUP_BURST between two commands, and at least
# MIN_SETUPS times a run
SETUP_EVERY_S = 0.5
SETUP_BURST = 8
MIN_SETUPS = 5
# this workload compares a rerun of every command with its first run
RERUN_WORKLOAD = "coarse_batch"

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}
# per round of the workload; `.calls` counts span entries, `.s` is a span's
# time, `.self_s` its time minus that of the spans inside it, and every
# other name is a count recorded at the layer boundary
PER_LAYER = {
    "schemes.sweep_region.calls": "count",
    "schemes.sweep_region.self_s": "s",
    "schemes.polygon_points.s": "s",
    "schemes.corner_points": "count",
    "schemes.max_sum_rate.calls": "count",
    "schemes.max_sum_rate.s": "s",
    "geometry.pareto_filter.s": "s",
    "geometry.pareto_filter.points_in": "count",
    "geometry.pareto_filter.points_out": "count",
    "geometry.pareto_filter.keep_ratio": "ratio",
    "geometry.hull.calls": "count",
    "geometry.hull.self_s": "s",
    "geometry.hull.vertices_out": "count",
    "geometry.intersect_halfplanes.calls": "count",
    "geometry.intersect_halfplanes.s": "s",
    "bounds.composite_outer_region.calls": "count",
    "bounds.composite_outer_region.s": "s",
    "bounds.evaluate_outer_bounds.s": "s",
    "gdof.gdof_region.s": "s",
    "gdof.gdof_convergence_check.s": "s",
    "verify.run_battery.s": "s",
    "verify.rows": "count",
    "svg.polyline_chart.s": "s",
    "svg.bytes_out": "count",
    "scenario.load_config.s": "s",
    "cli.main.self_s": "s",
    "cli.main.p50_s": "s",
    "cli.bytes_written": "count",
}


def import_program():
    """A fresh import of `zickey.cli` from src/ (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "zickey" or m.startswith("zickey.")]:
        del sys.modules[name]
    cli = importlib.import_module("zickey.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"zickey imported from {cli.__file__}, not from src/")
    return cli


def zickey_modules():
    return {n: m for n, m in sys.modules.items()
            if n == "zickey" or n.startswith("zickey.")}


def timed_setup(name, seed, work):
    """Seconds to import a fresh `zickey` and build the round into `work`.

    The fresh modules are dropped afterwards and the running ones put back,
    so the commands keep running on the modules they started with.
    """
    kept = zickey_modules()
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    import_program()
    workloads.build(name, seed, work / "inputs")
    dt = time.perf_counter() - t0
    for n in zickey_modules():
        del sys.modules[n]
    sys.modules.update(kept)
    gc.collect()  # so the dropped modules are not collected inside a command
    return dt


def call(main, argv):
    """Exit code of one CLI command, its console output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        except Exception:  # the benchmark keeps going and counts a failure
            print(traceback.format_exc(), file=sys.__stderr__)
            return "exception"


def layer_value(name, tracer, rounds, op_times):
    if name == "geometry.pareto_filter.keep_ratio":
        n_in = tracer.counts["geometry.pareto_filter.points_in"]
        return tracer.counts["geometry.pareto_filter.points_out"] / n_in if n_in else 0.0
    if name == "cli.main.p50_s":
        return statistics.median(op_times)
    span, _, field = name.rpartition(".")
    if field == "calls":
        total = tracer.spans[span].calls
    elif field == "s":
        total = tracer.spans[span].total
    elif field == "self_s":
        total = tracer.spans[span].self_time
    else:
        total = tracer.counts[name]
    return total / rounds


def run(args, work):
    if not (SRC / "zickey" / "__init__.py").is_file():
        raise SystemExit(f"error: no zickey package under {SRC}")
    sys.path.insert(0, str(SRC))
    # the first import also loads numpy and compiles src/, so it is not timed
    cli = import_program()
    ops = workloads.build(args.workload, args.seed, work / "inputs")

    tracer = Tracer() if args.trace else None
    main = cli.main
    if tracer:
        tracer.install()
        main = tracer.wrap("cli.main", main)
    results = []  # (round, op index, seconds, exit code)
    setup_times = []
    rounds, paused = 0, 0.0  # paused: seconds of set-up inside the window
    t_start = time.perf_counter()
    while True:
        slot = work / ("r0" if rounds == 0 else "r1")
        for i, op in enumerate(ops):
            out = slot / f"{i:03d}"
            out.mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            rc = call(main, op.full_argv(out))
            results.append((rounds, i, time.perf_counter() - t0, rc))
            if tracer:
                tracer.counts["cli.bytes_written"] += sum(
                    f.stat().st_size for f in out.iterdir())
            # set-ups spread over the window, so that their median spans the
            # host's slow and fast spells as the commands' times do
            t0 = time.perf_counter()
            owed = int((t0 - t_start - paused) / SETUP_EVERY_S) - len(setup_times)
            for _ in range(min(SETUP_BURST, owed)):
                setup_times.append(timed_setup(args.workload, args.seed, work / "setup"))
            paused += time.perf_counter() - t0
        rounds += 1
        if (time.perf_counter() - t_start - paused >= args.seconds
                and (rounds >= 2 or args.workload != RERUN_WORKLOAD)):
            break
    window = time.perf_counter() - t_start - paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < MIN_SETUPS:
        setup_times.append(timed_setup(args.workload, args.seed, work / "setup"))

    import checks  # mpmath loads only after the measured window

    # an operation fails when it exits non-zero or raises, or when its
    # output fails a check; every such failure makes `correct` false except
    # the known fault of an operation that exited 0
    problems, faulty = {}, set()
    for i, op in enumerate(ops):
        codes = [rc for _, j, _, rc in results if j == i]  # one per round
        fails = [f"round {r} exited {rc}" for r, rc in enumerate(codes) if rc != 0]
        if codes[0] == 0:
            fails += checks.check(op.kind, work / "r0" / f"{i:03d}", op.ctx,
                                  f"{args.seed}:{i}")
            if rounds > 1 and codes[-1] == 0:
                fails += checks.same_files(work / "r0" / f"{i:03d}",
                                           work / "r1" / f"{i:03d}")
        if fails:
            faulty.add(i)
        fails = [m for m in fails if not m.startswith(checks.KNOWN_FAULT)]
        if fails:
            problems[i] = fails
    for i, fails in problems.items():
        print(f"failed: {ops[i].kind} {' '.join(ops[i].argv)}", file=sys.stderr)
        for msg in fails[:5]:
            print(f"  {msg}", file=sys.stderr)

    failed = sum(1 for _, i, _, rc in results if rc != 0 or i in faulty)
    times = [dt for _, _, dt, _ in results]
    if tracer:
        metrics = {name: {"value": layer_value(name, tracer, rounds, times), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "ops_per_s": (len(results) - failed) / window,
                  "op_p50_s": statistics.median(times), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload}: {rounds} round(s) of {len(ops)} commands in {window:.2f} s")
    return {"correct": not problems, "attempted": len(results), "failed": failed,
            "metrics": metrics}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    work = HERE / "out" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))


if __name__ == "__main__":
    main()
