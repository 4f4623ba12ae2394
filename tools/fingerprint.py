"""SHA-256 fingerprints of the zickey command line's outputs.

Run from the repository root:

    python3 tools/fingerprint.py fingerprints.json
    python3 tools/fingerprint.py --compare old.json new.json

The first form runs every command of COMMANDS in this process, with the
`zickey` package of this checkout's `src/`, each into an empty directory
of its own, and writes one JSON file: per command, its exit code and the
SHA-256 digests of its standard output, its standard error and every
file it wrote. The output directory's path reads `<out>` in the console
text, so two checkouts give the same digests wherever their outputs
agree byte for byte. It also digests, on each case of SUM_RATES, the
exact floats that `schemes.max_sum_rates` gives every variant and the
vertex bytes of every variant's `schemes.sweep_regions` region, or the
error each raises. The second form lists every entry that differs
between two such files and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _draws(seed: int, n: int):
    """n seeded random channels for region and n GDOF points for gdof."""
    rng = random.Random(seed)
    region, gdof = [], []
    for _ in range(n):
        h11, h22, h21 = (rng.uniform(0.2, 2.0) for _ in range(3))
        p1, p2 = (10 ** rng.uniform(0.0, 3.0) for _ in range(2))
        region.append(["region", "--h11", repr(h11), "--h22", repr(h22),
                       "--h21", repr(h21), "--p1", repr(p1), "--p2", repr(p2),
                       "--rk", repr(rng.uniform(0.0, 3.0)),
                       "--grid", "coarse", "--svg"])
        gdof.append(["gdof", "--alpha", repr(rng.uniform(0.0, 1.0)),
                     "--gamma", repr(rng.uniform(0.0, 1.5)),
                     "--eta", repr(rng.uniform(0.0, 1.0)), "--svg"])
    return region + gdof


SHOWCASE = ["--h11", "1", "--h22", "1", "--p1", "100", "--p2", "100"]
COMMANDS = [
    # the default grid on every (h21, rk) showcase pair
    *(["region", *SHOWCASE, "--h21", h21, "--rk", rk]
      for h21 in ("0.6", "0.8", "1.2") for rk in ("0.2", "1", "2")),
    *_draws(7, 4),
    # full power and the no-secrecy sum face
    ["region", *SHOWCASE, "--h21", "0.6", "--rk", "1", "--full-power",
     "--nonsecrecy-bound"],
    # the sum rates along rk, at full power (the default) and power-swept
    *(["sumrate", *SHOWCASE, "--h21", "0.6", "--rk-min", "0", "--rk-max", "2",
       "--rk-steps", "5", *powers] for powers in ([], ["--sweep-powers"])),
    ["sumrate", "--p", "100", "--rk", "1", "--alpha-min", "0.25",
     "--alpha-max", "1.25", "--alpha-steps", "5"],
    # the alpha family's sum rates: tiny, moderate and huge powers, with
    # and without a key
    *(["sumrate", "--p", p, "--rk", rk, "--alpha-min", "0.25",
       "--alpha-max", "1.25", "--alpha-steps", "5", "--sweep-powers"]
      for p, rk in (("100", "1"), ("1e-3", "0"), ("1e-3", "1.5"), ("10", "0"),
                    ("10", "1.5"), ("1e4", "0"), ("1e4", "1.5"))),
    ["verify", "--seed", "7"],
    ["verify", "--seed", "20240817"],
    ["verify", "--seed", "7", "--corrupt"],
]


# name: GridSpec keyword arguments
SUM_RATE_GRIDS = {
    "coarse": {"n_lambda1": 9, "n_lambda2": 9, "n_beta1": 9, "n_beta2": 9,
               "n_eta": 7},
    "17-point": {"n_lambda1": 17, "n_lambda2": 17, "n_beta1": 17,
                 "n_beta2": 17, "n_eta": 17},
    "full-power": {"full_power": True},
    "default": {},
}
SUM_RATE_RKS = (0.0, 0.5, 2.0, 1e6)


def _sum_rate_cases(seed: int, n: int):
    """n seeded channels, powers 1e-12 to 1e12, one in four each with
    P1 = 0, P2 = 0 or h21 = 0, each on every grid of SUM_RATE_GRIDS."""
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        h11, h22, h21 = (rng.uniform(0.2, 2.0) for _ in range(3))
        p1, p2 = (10 ** rng.uniform(-12.0, 12.0) for _ in range(2))
        p1, p2, h21 = [(p1, p2, h21), (0.0, p2, h21), (p1, 0.0, h21),
                       (p1, p2, 0.0)][i % 4]
        cases += [((h11, h22, h21, p1, p2), grid) for grid in SUM_RATE_GRIDS]
    return cases


SUM_RATES = _sum_rate_cases(11, 12)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(commands) -> dict:
    """{command line: {"exit", "stdout", "stderr", "files"}} of commands."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from zickey.cli import main

    prints = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(commands):
            out = Path(tmp) / str(i)
            out.mkdir()
            where = (["--out", str(out / "report.json")] if argv[0] == "verify"
                     else ["--out-dir", str(out)])
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = main([*argv, *where])
                except SystemExit as e:
                    code = e.code
                except Exception as e:  # a traceback is a fingerprint too
                    code = type(e).__name__
            prints[" ".join(argv)] = {
                "exit": code,
                **{name: _digest(text.getvalue().replace(str(out), "<out>")
                                 .encode("utf-8"))
                   for name, text in (("stdout", stdout), ("stderr", stderr))},
                "files": {p.name: _digest(p.read_bytes())
                          for p in sorted(out.iterdir())},
            }
    return prints


def run_sweeps(cases) -> dict:
    """{case: {"exit", "sums" or "regions"}}: per (channel, grid name) of
    cases and per sweep, 0 and the digest of every variant's max_sum_rates
    floats at SUM_RATE_RKS in hex, or of every variant's sweep_regions
    vertex bytes in hex; or the name and the digest of the message of what
    the sweep raised."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from zickey import ChannelParams, GridSpec
    from zickey.schemes import VARIANTS, max_sum_rates, sweep_regions

    sweeps = {
        "max_sum_rates": ("sums", lambda ch, grid: {
            scheme: [float(v).hex() for v in values] for scheme, values in
            max_sum_rates(ch, VARIANTS, grid, SUM_RATE_RKS).items()}),
        "sweep_regions": ("regions", lambda ch, grid: {
            scheme: region.vertices.tobytes().hex() for scheme, region in
            sweep_regions(ch, VARIANTS, grid).items()}),
    }
    prints = {}
    for channel, grid in cases:
        for sweep, (key, outputs) in sweeps.items():
            try:
                got = outputs(ChannelParams(*channel),
                              GridSpec(**SUM_RATE_GRIDS[grid]))
            except Exception as e:  # an error is a fingerprint too
                code, text = type(e).__name__, str(e)
            else:
                code, text = 0, json.dumps(got)
            name = f"{sweep} {' '.join(map(repr, channel))} {grid}"
            prints[name] = {"exit": code, key: _digest(text.encode("utf-8"))}
    return prints


def compare(old: dict, new: dict) -> list:
    """One line per command whose fingerprint moved, naming what moved."""
    moved = []
    for cmd in sorted(old.keys() | new.keys()):
        if cmd not in new or cmd not in old:
            moved.append(f"{cmd}: only in {'old' if cmd in old else 'new'}")
            continue
        a, b = old[cmd], new[cmd]
        what = [k for k in ("exit", "stdout", "stderr", "sums", "regions")
                if a.get(k) != b.get(k)]
        fa, fb = a.get("files", {}), b.get("files", {})
        what += [f"files/{name}" for name in sorted(fa.keys() | fb.keys())
                 if fa.get(name) != fb.get(name)]
        if what:
            moved.append(f"{cmd}: {', '.join(what)}")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?",
                        help="write the fingerprints of COMMANDS here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="list the entries that moved between two files")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8"))
                    for p in args.compare)
        moved = compare(old, new)
        print("\n".join(moved) if moved else "no entry moved")
        return 1 if moved else 0
    if not args.out:
        parser.error("give an output file or --compare OLD NEW")
    prints = {**run(COMMANDS), **run_sweeps(SUM_RATES)}
    Path(args.out).write_text(json.dumps(prints, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"wrote {len(prints)} fingerprints to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
