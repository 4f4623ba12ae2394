"""Plain key=value scenario files for the command line tools.

Syntax: one `key = value` per line, `#` starts a comment, blank lines
are skipped. Dotted `grid.*` keys set the sweep grid's point counts;
`full_power` is a command's own key, not a grid key. Powers can be
given linearly (p1, p2) or in dB (p1_db, p2_db), never both ways.
Command line flags override file values of the same name.
"""

from __future__ import annotations

from dataclasses import fields

from .channel import ChannelParams, db_to_linear
from .schemes import GridSpec


class ConfigError(ValueError):
    """Bad scenario file or inconsistent command line options."""


FLOAT_KEYS = frozenset({
    "h11", "h22", "h21", "p1", "p2", "p1_db", "p2_db", "rk", "p",
    "alpha", "gamma", "eta", "alpha_min", "alpha_max", "rk_min", "rk_max",
})
# the GridSpec point counts, each set by a dotted grid.<field> key
GRID_KEYS = tuple(f.name for f in fields(GridSpec) if f.name.startswith("n_"))
INT_KEYS = frozenset({"alpha_steps", "rk_steps"}
                     | {f"grid.{k}" for k in GRID_KEYS})
BOOL_KEYS = frozenset({"nonsecrecy_bound", "full_power", "svg"})
STR_KEYS = frozenset({"out_dir"})
LIST_FLOAT_KEYS = frozenset({"alpha_list", "rk_list"})
LIST_STR_KEYS = frozenset({"schemes"})
KNOWN_KEYS = (FLOAT_KEYS | INT_KEYS | BOOL_KEYS | STR_KEYS
              | LIST_FLOAT_KEYS | LIST_STR_KEYS)
# the keys each command reads; any other is unknown in its scenario file
_SWEPT = {"h11", "h22", "h21", "p1", "p2", "p1_db", "p2_db", "rk", "schemes",
          "nonsecrecy_bound", "full_power", "out_dir", "svg",
          *(f"grid.{k}" for k in GRID_KEYS)}
COMMAND_KEYS = {
    "region": frozenset(_SWEPT),
    "sumrate": frozenset(_SWEPT | LIST_FLOAT_KEYS | {
        "p", "alpha", "alpha_min", "alpha_max", "alpha_steps", "rk_min",
        "rk_max", "rk_steps"}),
    "gdof": frozenset({"alpha", "gamma", "eta", "schemes", "out_dir", "svg"}),
}

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _parse_float(key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if v != v or v in (float("inf"), float("-inf")):
        raise ConfigError(f"key {key!r}: value must be finite, got {raw!r}")
    return v


def _parse_int(key, raw):
    try:
        v = int(raw, 10)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None
    if v < 1:
        raise ConfigError(f"key {key!r}: must be >= 1, got {v}")
    return v


def _parse_bool(key, raw):
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"key {key!r}: expected true/false, got {raw!r}")


def parse_value(key: str, raw: str):
    """Parse one raw string value according to its key's type."""
    if key in FLOAT_KEYS:
        return _parse_float(key, raw)
    if key in INT_KEYS:
        return _parse_int(key, raw)
    if key in BOOL_KEYS:
        return _parse_bool(key, raw)
    if key in LIST_FLOAT_KEYS | LIST_STR_KEYS:
        items = tuple(s.strip() for s in raw.split(",") if s.strip())
        if not items:
            raise ConfigError(f"key {key!r}: empty list")
        if key in LIST_FLOAT_KEYS:
            return tuple(_parse_float(key, s) for s in items)
        return items
    if key in STR_KEYS:
        return raw
    raise ConfigError(f"unknown key {key!r}")


def parse_config(text: str, keys=KNOWN_KEYS) -> dict:
    """Parse scenario text into a validated {key: value} dict; a key not
    in keys is unknown."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        out[key] = parse_value(key, raw)
    return out


def load_config(path, keys=KNOWN_KEYS) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_config(fh.read(), keys)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from None


def resolve_power(values: dict, lin_key: str, db_key: str):
    """Linear power from either a linear or a dB key (both set is an error)."""
    if lin_key in values and db_key in values:
        raise ConfigError(f"give {lin_key} or {db_key}, not both")
    if db_key in values:
        return db_to_linear(values[db_key])
    return values.get(lin_key)


def build_channel(values: dict) -> ChannelParams:
    """Channel from scenario values; all gains and powers must be present."""
    p1 = resolve_power(values, "p1", "p1_db")
    p2 = resolve_power(values, "p2", "p2_db")
    missing = [k for k, v in (("h11", values.get("h11")),
                              ("h22", values.get("h22")),
                              ("h21", values.get("h21")),
                              ("p1", p1), ("p2", p2)) if v is None]
    if missing:
        raise ConfigError("missing channel parameters: " + ", ".join(missing))
    return ChannelParams(h11=values["h11"], h22=values["h22"],
                         h21=values["h21"], p1=p1, p2=p2,
                         rk=values.get("rk", 0.0))


def build_grid(values: dict) -> GridSpec:
    """Sweep grid of the point counts in the dotted grid.* scenario keys."""
    return GridSpec(**{k: values[f"grid.{k}"] for k in GRID_KEYS
                       if f"grid.{k}" in values})
