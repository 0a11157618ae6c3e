"""The benchmark's tracer against the current package.

``perfbench/tracing.py`` wraps named entry points of every layer and reads
``build_ospan``'s ``cache_dir`` argument.  Installing it here fails at once
when one of those names is deleted or renamed, instead of only in the
benchmark's minutes-long traced self-check.
"""

import importlib.util
import sys
from pathlib import Path

import orbifock
from orbifock.runner import Runner
from orbifock.zhu import OSpanEchelon

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every callable bound in an orbifock module or on a traced class."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "orbifock" or modname.startswith("orbifock."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[modname, attr] = value
    for cls in (OSpanEchelon, Runner):
        for attr, value in vars(cls).items():
            out[cls.__name__, attr] = value
    return out


def test_tracer_installs_and_restores_every_name(tmp_path):
    before = _bindings()
    tracer = _load_tracing().Tracer(run_id=0)
    tracer.install()
    try:
        during = _bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        for key in (("orbifock.twisted", "delta_coefficients"),
                    ("orbifock.twisted", "twisted_zero_mode"),
                    ("orbifock.zhu", "build_ospan"),
                    ("orbifock", "build_ospan"),
                    ("OSpanEchelon", "insert"),
                    ("Runner", "run_statement")):
            assert key in wrapped, key
        # The build observer binds the call to build_ospan's signature.
        for cache_dir in (None, str(tmp_path), str(tmp_path)):
            orbifock.zhu.build_ospan(1, 3, cache_dir=cache_dir)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert [metrics[f"zhu.build_ospan.{outcome}"]
            for outcome in ("uncached", "cache_miss", "cache_hit")] == [1, 1, 1]
    assert metrics["zhu.build_ospan.calls"] == 3
