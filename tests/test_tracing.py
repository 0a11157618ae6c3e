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
from mode_oracle import clear_twisted_caches
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
                    ("orbifock", "parse_script"),
                    ("OSpanEchelon", "insert"),
                    ("Runner", "run_statement")):
            assert key in wrapped, key
        # The build observer binds the call to build_ospan's signature.
        for cache_dir in (None, str(tmp_path), str(tmp_path)):
            orbifock.zhu.build_ospan(1, 3, cache_dir=cache_dir, sector=0)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert [metrics[f"zhu.build_ospan.{outcome}"]
            for outcome in ("uncached", "cache_miss", "cache_hit")] == [1, 1, 1]
    assert metrics["zhu.build_ospan.calls"] == 3


EVAL_SCRIPT = """\
assert_zero_eval circ(J1, w1)
assert_zero_eval circ(one, one)
assert_zero_eval w1 * Eu(1,2) - Eu(1,2)
assert_equiv J1 ~ w1
assert_eval w1 on Tplus = 1/16
"""


def test_tracer_sees_every_evaluation_layer():
    # A small rank-2 script must reach every layer the eval-r2 workload's
    # per-layer metrics require, so a family that stops going through a
    # traced entry point (Tplus through twisted_zero_mode, say) fails here.
    import orbifock.script
    from orbifock.runner import RunConfig

    tracing = _load_tracing()
    tracer = tracing.Tracer(run_id=0)
    tracer.install()
    try:
        clear_twisted_caches()
        stmts = orbifock.script.parse_script(EVAL_SCRIPT, 2)
        report = Runner(RunConfig(rank=2)).run(stmts)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert report.counts() == {"Proved": 4, "Disproved": 1, "Unknown": 0,
                               "Error": 0}, report.to_text()
    required = [name for name, workloads in tracing.LAYER_METRICS
                if "eval-r2" in workloads and name != "trace.overhead_ratio"]
    assert len(required) == 32
    assert [name for name in required if not metrics[name]] == []
    # One path per twisted family: Tplus through twisted_zero_mode, and one
    # exp(Delta_z) expansion per twisted evaluation.
    tplus = metrics["toplevel.evaluate.Tplus.calls"]
    tminus = metrics["toplevel.evaluate.Tminus.calls"]
    assert metrics["twisted.twisted_zero_mode.calls"] == tplus
    assert metrics["twisted.apply_delta.calls"] == tplus + tminus


CERTIFY_SCRIPT = """\
assert_equiv (70 H1 + 1188 w1^2 - 585 w1 + 27) * H1 ~ 0
assert_rank [w1, J1, H1] = 3
"""


def test_tracer_sees_every_cold_build_layer(tmp_path):
    # A certificate on an empty cache must reach every layer the
    # certify-cold workload's per-layer metrics require, so a build that
    # stops going through a traced entry point (circ_n, say) fails here.
    import orbifock.script
    from orbifock.runner import RunConfig

    tracing = _load_tracing()
    tracer = tracing.Tracer(run_id=0)
    tracer.install()
    try:
        stmts = orbifock.script.parse_script(CERTIFY_SCRIPT, 1)
        config = RunConfig(rank=1, max_weight=8, slack=2, cache_dir=str(tmp_path))
        report = Runner(config).run(stmts)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert report.counts() == {"Proved": 2, "Disproved": 0, "Unknown": 0,
                               "Error": 0}, report.to_text()
    assert metrics["zhu.build_ospan.cache_miss"] == 1
    required = [name for name, workloads in tracing.LAYER_METRICS
                if "certify-cold" in workloads and name != "trace.overhead_ratio"]
    assert [name for name in required if not metrics[name]] == []


def test_tracer_sees_every_warm_suite_layer(tmp_path):
    # suite all at rank 2 on the cache its own first run left: every layer
    # the suite-warm workload's per-layer metrics require must be reached,
    # every cached echelon read and only the anchored build made uncached.
    # The second run starts, as a fresh process would, with no delta table
    # and no expansions.
    from orbifock.runner import RunConfig
    from orbifock.suites import run_suite

    config = RunConfig(rank=2, cache_dir=str(tmp_path))
    assert run_suite("all", config).passed()
    tracing = _load_tracing()
    tracer = tracing.Tracer(run_id=0)
    tracer.install()
    try:
        clear_twisted_caches()
        report = run_suite("all", config)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert report.passed(), report.to_text()
    assert metrics["zhu.build_ospan.cache_miss"] == 0
    assert metrics["zhu.build_ospan.uncached"] == 1
    required = [name for name, workloads in tracing.LAYER_METRICS
                if "suite-warm" in workloads and name != "trace.overhead_ratio"]
    assert [name for name in required if not metrics[name]] == []
