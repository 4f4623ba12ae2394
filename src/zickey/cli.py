"""Command line front end.

Subcommands: `region` (rate region polygons plus the outer bound),
`sumrate` (largest sum rate along an alpha or key-rate sweep), `gdof`
(normalized high-power regions), and `verify` (invariant battery).

Outputs are CSV tables plus a JSON metadata sidecar; `--svg` draws a
chart by re-reading the emitted CSV so the picture can never disagree
with the data. Reruns produce byte-identical files. Exit codes: 0 ok,
1 failed verification, 2 bad configuration, 3 unsupported parameter
domain.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .bounds import composite_outer_region, evaluate_outer_bounds
from .channel import ChannelParams, DomainError, classify_regime, snr_inr
from .gdof import GdofParams, gdof_region, no_secrecy_gdof
from .scenario import (GRID_KEYS, KNOWN_KEYS, ConfigError, build_channel,
                       build_grid, load_config, parse_value)
from .schemes import SCHEMES, VARIANTS, GridSpec, max_sum_rates, sweep_regions
# unused here; benchmarks/spans.py traces them under this module's name
from .schemes import max_sum_rate, sweep_region  # noqa: F401
from .svg import polyline_chart
from .verify import render_report, run_battery

DEFAULT_VARIANTS = tuple(VARIANTS)

GRID_PRESETS = {
    "coarse": GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9, n_eta=7),
    "default": GridSpec(),
    "fine": GridSpec(n_lambda1=49, n_lambda2=49, n_beta1=49, n_beta2=49,
                     n_eta=31),
}


def _f(v) -> str:
    # repr of a Python float round-trips exactly
    return repr(float(v))


def _merge_values(args) -> dict:
    """Scenario dict from the config file with CLI flags layered on top.

    A flag counts when its destination is a scenario key and it was given;
    text values are parsed by the scenario file's rules.
    """
    values = load_config(args.config) if args.config else {}
    for key, v in vars(args).items():
        if key in KNOWN_KEYS and v is not None and v is not False:
            values[key] = parse_value(key, v) if isinstance(v, str) else v
    return values


def _validate_schemes(names, allowed) -> tuple:
    names = tuple(names)
    for n in names:
        if n not in allowed:
            raise ConfigError(f"unknown scheme {n!r}; expected one of: "
                              + ", ".join(allowed))
    if len(set(names)) != len(names):
        raise ConfigError("duplicate scheme names")
    return names


def _apply_grid_option(grid: GridSpec, spec: str) -> GridSpec:
    if spec in GRID_PRESETS:
        return GRID_PRESETS[spec]
    kwargs = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad --grid entry {part!r}; expected a preset "
                              "(coarse|default|fine) or name=value pairs")
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in GRID_KEYS:
            raise ConfigError(f"unknown grid field {name!r}")
        # value syntax and range rules are shared with scenario files
        kwargs[name] = parse_value(f"grid.{name}", raw.strip())
    return replace(grid, **kwargs)


def _resolve_grid(args, values) -> GridSpec:
    grid = build_grid(values)
    if args.grid:
        grid = _apply_grid_option(grid, args.grid)
    return grid


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _vertex_rows(name, region):
    return [(name, _f(x), _f(y)) for x, y in region.vertices]


def _svg_polygons(csv_paths, xlabel, ylabel, title) -> str:
    """Chart of closed polygons, one per distinct name in column 0."""
    series = {}  # in order of first appearance
    for csv_path in csv_paths:
        for name, xs, ys in _read_csv(csv_path)[1]:
            series.setdefault(name, []).append((float(xs), float(ys)))
    plot = [(name, pts + pts[:1] if len(pts) > 2 else pts)
            for name, pts in series.items()]
    return polyline_chart(plot, xlabel, ylabel, title)


def _svg_curves(csv_path: Path, ylabel, title) -> str:
    """Chart of one curve per value column, x from column 0, blanks skipped."""
    header, rows = _read_csv(csv_path)
    plot = []
    for col in range(1, len(header)):
        pts = [(float(r[0]), float(r[col])) for r in rows if r[col] != ""]
        if pts:
            plot.append((header[col], pts))
    return polyline_chart(plot, header[0], ylabel, title)


def _out_dir(values) -> Path:
    out = Path(values.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(out: Path, command, csv_paths, svg, draw, meta) -> int:
    """Draw the chart when asked, write the meta sidecar, list every file.

    draw() returns the SVG text, drawn from the CSVs already written.
    """
    written = list(csv_paths)
    if svg:
        written.append(out / f"{command}.svg")
        written[-1].write_text(draw(), encoding="utf-8")
    written.append(out / f"{command}_meta.json")
    meta = {"command": command, **meta, "files": [p.name for p in written]}
    written[-1].write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    for p in written:
        print(f"wrote {p}")
    return 0


def _channel_meta(ch: ChannelParams) -> dict:
    s1, s2, i1 = snr_inr(ch)
    return {"h11": ch.h11, "h22": ch.h22, "h21": ch.h21,
            "p1": ch.p1, "p2": ch.p2, "rk": ch.rk,
            "snr1": s1, "snr2": s2, "inr1": i1}


def cmd_region(args) -> int:
    values = _merge_values(args)
    ch = build_channel(values)
    grid = _resolve_grid(args, values)
    if values.get("full_power"):
        grid = replace(grid, full_power=True)
    schemes = _validate_schemes(values.get("schemes", DEFAULT_VARIANTS),
                                VARIANTS)
    regime = classify_regime(ch)
    suppressed = tuple(s for s in schemes
                       if regime == "high" and VARIANTS[s][2])
    kept = tuple(s for s in schemes if s not in suppressed)
    for name in suppressed:
        print(f"note: skipping {name}: only claimed while the cross link "
              "does not dominate (inr1 <= snr2)", file=sys.stderr)

    out = _out_dir(values)
    csv_paths = []

    def write(name, region):
        csv_paths.append(out / f"region_{name}.csv")
        _write_csv(csv_paths[-1], ("scheme", "R1", "R2"),
                   _vertex_rows(name, region))

    for name, region in sweep_regions(ch, kept, grid).items():
        write(name, region)
    include_ns = bool(values.get("nonsecrecy_bound", False))
    write("outer", composite_outer_region(ch, include_nonsecrecy=include_ns))
    ob = evaluate_outer_bounds(ch, include_nonsecrecy=include_ns)
    return _finish(out, "region", csv_paths, values.get("svg"),
                   lambda: _svg_polygons(csv_paths, "R1 [bits/use]",
                                         "R2 [bits/use]", "secrecy rate regions"),
                   {"channel": _channel_meta(ch),
                    "regime": regime,
                    "grid": asdict(grid),
                    "schemes": list(kept),
                    "suppressed": list(suppressed),
                    "nonsecrecy_bound": include_ns,
                    "outer_bounds": asdict(ob)})


def _family_channel(p: float, alpha: float, rk: float) -> ChannelParams:
    """Symmetric channel with snr = p and inr = p**alpha."""
    if p <= 0.0:
        raise ConfigError("the symmetric family needs p > 0")
    if alpha < 0.0:
        raise ConfigError("alpha must be >= 0")
    try:
        h21 = p ** ((alpha - 1.0) / 2.0)
    except OverflowError:
        raise DomainError("cross gain p**((alpha - 1)/2) overflows float64 "
                          f"at p = {p!r}, alpha = {alpha!r}") from None
    return ChannelParams(h11=1.0, h22=1.0, h21=h21, p1=p, p2=p, rk=rk)


def _axis_values(values, prefix, lo_default, hi_default, n_default):
    if f"{prefix}_list" in values:
        return [float(v) for v in values[f"{prefix}_list"]]
    steps = values.get(f"{prefix}_steps", n_default)
    if steps < 1:
        raise ConfigError(f"{prefix}_steps must be >= 1")
    lo = values.get(f"{prefix}_min", lo_default)
    hi = values.get(f"{prefix}_max", hi_default)
    return [float(v) for v in np.linspace(lo, hi, steps)]


def _outer_sum_cell(ch: ChannelParams, include_nonsecrecy: bool):
    c = evaluate_outer_bounds(ch, include_nonsecrecy=include_nonsecrecy).caps[2]
    return None if np.isinf(c) else c


def cmd_sumrate(args) -> int:
    values = _merge_values(args)
    schemes = _validate_schemes(values.get("schemes", DEFAULT_VARIANTS),
                                VARIANTS)
    grid = _resolve_grid(args, values)
    full_power = bool(values.get("full_power", True)) and not args.sweep_powers
    swept_grid = replace(grid, full_power=full_power)
    include_ns = bool(values.get("nonsecrecy_bound", False))

    alpha_axis = {"alpha_min", "alpha_max", "alpha_steps", "alpha_list"} & set(values)
    rk_axis = {"rk_min", "rk_max", "rk_steps", "rk_list"} & set(values)
    if bool(alpha_axis) == bool(rk_axis):
        raise ConfigError("choose exactly one sweep axis: alpha_* keys "
                          "or rk_* keys")

    if alpha_axis:
        axis_name = "alpha"
        axis_vals = _axis_values(values, "alpha", 0.0, 1.2, 25)
        if "p" not in values:
            raise ConfigError("the alpha sweep needs the symmetric power p")
        rk = values.get("rk", 0.0)
        chans = [_family_channel(values["p"], a, rk) for a in axis_vals]
        runs = [(ch, [ch.rk]) for ch in chans]
    else:
        axis_name = "rk"
        axis_vals = _axis_values(values, "rk", 0.0, 2.0, 21)
        if any(r < 0 for r in axis_vals):
            raise ConfigError("rk must be >= 0")
        explicit = {"h11", "h22", "h21", "p1", "p2", "p1_db", "p2_db"} & set(values)
        if explicit:
            ch0 = build_channel(values)
        elif "p" in values:
            if "alpha" not in values:
                raise ConfigError("the symmetric family needs alpha "
                                  "for an rk sweep")
            ch0 = _family_channel(values["p"], values["alpha"], 0.0)
        else:
            raise ConfigError("give a channel (h11, h22, h21, p1, p2) or "
                              "the symmetric family (p and alpha)")
        chans = [replace(ch0, rk=r) for r in axis_vals]
        # the key rate changes no scheme's terms: one sweep for every rk
        runs = [(ch0, axis_vals)]

    suppressed = set()
    sums = []  # per axis value: {scheme left in: its largest sum rate}
    for ch, rks in runs:
        high = classify_regime(ch) == "high"
        kept = [name for name in schemes if not (high and VARIANTS[name][2])]
        suppressed.update(set(schemes) - set(kept))
        best = max_sum_rates(ch, kept, swept_grid, rks)
        sums += [{name: best[name][k] for name in kept}
                 for k in range(len(rks))]
    table = []
    for axis_v, ch, best in zip(axis_vals, chans, sums):
        cell = _outer_sum_cell(ch, include_ns)
        table.append([_f(axis_v),
                      *(_f(best[name]) if name in best else ""
                        for name in schemes),
                      "" if cell is None else _f(cell)])
    for name in sorted(suppressed):
        print(f"note: {name} left blank where the cross link dominates "
              "(inr1 > snr2)", file=sys.stderr)

    out = _out_dir(values)
    csv_path = out / "sumrate.csv"
    _write_csv(csv_path, [axis_name, *schemes, "outer"], table)
    meta = {
        "axis": axis_name,
        "axis_values": [float(v) for v in axis_vals],
        "schemes": list(schemes),
        "suppressed_in_high_regime": sorted(suppressed),
        "full_power": full_power,
        "nonsecrecy_bound": include_ns,
        "grid": asdict(grid),
    }
    if axis_name == "alpha":
        meta["family"] = {"p": values["p"], "rk": values.get("rk", 0.0)}
    else:
        meta["channel"] = _channel_meta(chans[0])
    return _finish(out, "sumrate", [csv_path], values.get("svg"),
                   lambda: _svg_curves(csv_path, "sum rate [bits/use]",
                                       f"largest sum rate vs {axis_name}"),
                   meta)


def cmd_gdof(args) -> int:
    values = _merge_values(args)
    missing = [k for k in ("alpha", "gamma") if k not in values]
    if missing:
        raise ConfigError("missing: " + ", ".join(missing))
    gp = GdofParams(alpha=values["alpha"], gamma=values["gamma"],
                    eta=values.get("eta", 1.0))
    schemes = _validate_schemes(values.get("schemes", SCHEMES), SCHEMES)
    rows = [row for name in schemes
            for row in _vertex_rows(name, gdof_region(gp, name))]
    # no-secrecy reference shape, always included for comparison
    rows += _vertex_rows("no_secrecy", no_secrecy_gdof(gp.alpha))

    out = _out_dir(values)
    csv_path = out / "gdof.csv"
    _write_csv(csv_path, ("scheme", "d1", "d2"), rows)
    return _finish(out, "gdof", [csv_path], values.get("svg"),
                   lambda: _svg_polygons([csv_path], "d1", "d2",
                                         "normalized high-power regions"),
                   {"alpha": gp.alpha, "gamma": gp.gamma, "eta": gp.eta,
                    "schemes": list(schemes)})


def cmd_verify(args) -> int:
    report = run_battery(seed=args.seed, corrupt=args.corrupt)
    text = render_report(report)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    if not report["all_pass"]:
        failed = sorted({r["invariant"] for r in report["results"]
                         if not r["pass"]})
        print("failed invariants: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zickey",
        description="Secrecy rate regions, outer bounds, and normalized "
                    "high-power regions for the two-user Gaussian one-sided "
                    "interference channel with a shared secret key.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value scenario file")
        sp.add_argument("--out-dir", help="output directory (default: current)")
        sp.add_argument("--svg", action="store_true",
                        help="draw an SVG chart from the emitted CSV")

    def swept(sp, outer, *floats):
        # the channel, the schemes and the sweep grid of region and sumrate
        for name in ("h11", "h22", "h21", "p1", "p2", "rk", *floats):
            sp.add_argument(f"--{name.replace('_', '-')}", type=float)
        sp.add_argument("--p1-db", type=float,
                        help="p1 in dB (alternative to --p1)")
        sp.add_argument("--p2-db", type=float)
        sp.add_argument("--schemes",
                        help="comma list of: " + ", ".join(VARIANTS))
        sp.add_argument("--grid",
                        help="preset (coarse|default|fine) or name=value pairs")
        sp.add_argument("--nonsecrecy-bound", action="store_true",
                        help="fold the no-secrecy sum-rate reference into "
                             f"the outer {outer}")

    region = sub.add_parser(
        "region", help="achievable rate region polygons plus the outer bound")
    common(region)
    swept(region, "region")
    region.add_argument("--full-power", action="store_true",
                        help="pin beta1 = beta2 = 1 in the sweep")
    region.set_defaults(func=cmd_region)

    sumrate = sub.add_parser(
        "sumrate", help="largest sum rate along an alpha or key-rate sweep")
    common(sumrate)
    swept(sumrate, "column", "p", "alpha", "alpha_min", "alpha_max", "rk_min",
          "rk_max")
    for name in ("alpha_steps", "rk_steps"):
        sumrate.add_argument(f"--{name.replace('_', '-')}", type=int)
    sumrate.add_argument("--alpha-list",
                         help="comma list of alpha values to sweep")
    sumrate.add_argument("--rk-list", help="comma list of key rates to sweep")
    sumrate.add_argument("--sweep-powers", action="store_true",
                         help="also sweep the power back-off fractions "
                              "(default pins beta1 = beta2 = 1)")
    sumrate.set_defaults(func=cmd_sumrate)

    gdof = sub.add_parser(
        "gdof", help="normalized high-power region polygons")
    common(gdof)
    gdof.add_argument("--alpha", type=float,
                      help="interference exponent log(inr)/log(snr)")
    gdof.add_argument("--gamma", type=float,
                      help="key rate normalized by 0.5*log2(snr)")
    gdof.add_argument("--eta", type=float,
                      help="key fraction spent on the common layer")
    gdof.add_argument("--schemes",
                      help="comma list of: " + ", ".join(SCHEMES))
    gdof.set_defaults(func=cmd_gdof)

    verify = sub.add_parser(
        "verify", help="run the invariant battery and print a JSON report")
    verify.add_argument("--seed", type=int, default=20240817)
    verify.add_argument("--corrupt", action="store_true",
                        help="shave one outer-bound face to prove the "
                             "containment checks can fail")
    verify.add_argument("--out", help="also write the JSON report here")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
