"""The benchmark's workloads: one round of CLI commands each, built from a seed.

A round is a fixed list of operations; a run repeats its round until the
measuring time is up. Every operation carries what the checks need to
judge its output: the channel, the grid, the sweep axis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = ("key_splitting", "rate_splitting", "rate_splitting_no_an",
            "key_as_wiretap", "one_time_pad")
GDOF_SCHEMES = ("key_splitting", "rate_splitting", "key_as_wiretap",
                "one_time_pad")
# the CLI's grid presets, restated: points per axis
GRIDS = {
    "default": {"n_lambda1": 33, "n_lambda2": 33, "n_beta1": 33, "n_beta2": 33,
                "n_eta": 21},
    "coarse": {"n_lambda1": 9, "n_lambda2": 9, "n_beta1": 9, "n_beta2": 9,
               "n_eta": 7},
}
RK_SWEEP = ("0", "2", "5")          # --rk-min, --rk-max, --rk-steps
ALPHA_SWEEP = ("0.25", "1.25", "5")  # crosses alpha = 1: blank cells occur
COARSE_CHANNELS = 10
# `zickey verify` reports passing rows with negative margins on almost every
# seed; at its default seed it does so every time, so the benchmark runs it
# there only, once a round, and counts it as failed (see checks.KNOWN_FAULT)
VERIFY_SEED = 20240817


@dataclass
class Op:
    """One CLI command; `argv` lacks the output location."""

    kind: str                  # region | sumrate | gdof | verify
    argv: list
    ctx: dict = field(default_factory=dict)

    def full_argv(self, out_dir: Path) -> list:
        if self.kind == "verify":
            return self.argv + ["--out", str(out_dir / "verify.json")]
        return self.argv + ["--out-dir", str(out_dir)]


def _flags(ch: dict) -> list:
    out = []
    for key in ("h11", "h22", "h21", "p1", "p2", "rk"):
        out += [f"--{key}", repr(ch[key])]
    return out


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def region_default(rng, work: Path):
    ops = []
    for h21 in (0.6, 0.8, 1.2):
        ch = {"h11": 1.0, "h22": 1.0, "h21": h21, "p1": 100.0, "p2": 100.0,
              "rk": rng.choice((0.2, 1.0, 2.0))}
        ops.append(Op("region", ["region", *_flags(ch)],
                      {"channel": ch, "grid": GRIDS["default"]}))
    return ops


def sumrate_sweep_powers(rng, work: Path):
    h22 = rng.uniform(0.5, 1.5)
    ch = {"h11": rng.uniform(0.5, 1.5), "h22": h22,
          "h21": h22 * rng.uniform(0.2, 0.9),  # weak cross link
          "p1": _log_uniform(rng, 10.0, 1000.0),
          "p2": _log_uniform(rng, 10.0, 1000.0), "rk": 0.0}
    lo, hi, steps = RK_SWEEP
    along_rk = Op("sumrate",
                  ["sumrate", *_flags(ch)[:-2],  # no --rk: rk is the swept axis
                   "--rk-min", lo, "--rk-max", hi,
                   "--rk-steps", steps, "--sweep-powers"],
                  {"axis": "rk", "channel": ch, "grid": GRIDS["default"],
                   "points": _linspace(lo, hi, steps)})
    p, rk = _log_uniform(rng, 10.0, 1000.0), rng.uniform(0.0, 2.0)
    lo, hi, steps = ALPHA_SWEEP
    along_alpha = Op("sumrate",
                     ["sumrate", "--p", repr(p), "--rk", repr(rk),
                      "--alpha-min", lo, "--alpha-max", hi,
                      "--alpha-steps", steps, "--sweep-powers"],
                     {"axis": "alpha", "p": p, "rk": rk,
                      "grid": GRIDS["default"],
                      "points": _linspace(lo, hi, steps)})
    return [along_rk, along_alpha]


def coarse_batch(rng, work: Path):
    ops = []
    for i in range(COARSE_CHANNELS):
        h11, h22, h21 = (rng.uniform(0.2, 2.0) for _ in range(3))
        # alternate the regimes: even channels weak, odd ones high
        if (i % 2 == 0) == (h21 > h22):
            h21, h22 = h22, h21
        ch = {"h11": h11, "h22": h22, "h21": h21,
              "p1": _log_uniform(rng, 1.0, 1000.0),
              "p2": _log_uniform(rng, 1.0, 1000.0), "rk": rng.uniform(0.0, 3.0)}
        config = work / f"channel{i}.cfg"
        config.write_text("".join(f"{k} = {v!r}\n" for k, v in ch.items()),
                          encoding="utf-8")
        ops.append(Op("region", ["region", "--config", str(config),
                                 "--grid", "coarse", "--svg"],
                      {"channel": ch, "grid": GRIDS["coarse"]}))
        alpha, gamma, eta = rng.uniform(0, 1), rng.uniform(0, 1.5), rng.uniform(0, 1)
        ops.append(Op("gdof", ["gdof", "--alpha", repr(alpha), "--gamma",
                               repr(gamma), "--eta", repr(eta), "--svg"],
                      {"alpha": alpha, "gamma": gamma, "eta": eta}))
    ops.append(Op("verify", ["verify", "--seed", str(VERIFY_SEED)],
                  {"seed": VERIFY_SEED}))
    return ops


def _linspace(lo, hi, steps):
    lo, hi, n = float(lo), float(hi), int(steps)
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


WORKLOADS = {
    "region_default": region_default,
    "sumrate_sweep_powers": sumrate_sweep_powers,
    "coarse_batch": coarse_batch,
}


def build(name: str, seed: int, work: Path) -> list:
    """The workload's round of operations; the same seed gives the same round."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
