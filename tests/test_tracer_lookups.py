"""The traced benchmark run wraps layer functions by the name each module
imports them under; a name a module no longer has stops that run, so every
lookup is checked here too."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib only: imports no zickey module
    return spans.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert "geometry.intersect_halfplanes" in layers
    for name, (modules, _) in layers.items():
        attr = name.rsplit(".", 1)[1]
        for mod_name in modules:
            fn = getattr(importlib.import_module(mod_name), attr, None)
            assert callable(fn), f"{mod_name} has no {attr} for span {name}"
