"""Spans around the public entry points of each orbifock layer.

``Tracer.install`` wraps each traced function and rebinds it at every place
that looks the name up: the defining module, each ``from .x import name``
copy in the other orbifock modules, and the package namespace.  Methods are
wrapped on their class.  Nothing under ``src/`` is edited.

A span is (run id, span id, parent span id, name, start, end).  Spans stay
in memory during the run and are written out once at the end.  Self time is
a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

# Per-layer metrics, with the workloads on which each must be non-zero.
EVAL_WARM = ("eval-r2", "suite-warm")
ALL = ("eval-r2", "certify-cold", "suite-warm")
COLD = ("certify-cold",)
WARM = ("suite-warm",)
FAMILIES = ("Hplus", "Hminus", "Mlambda", "Tplus", "Tminus")

LAYER_METRICS = (
    [(f"toplevel.evaluate.{fam}.{q}", EVAL_WARM)
     for fam in FAMILIES for q in ("calls", "s")]
    + [("toplevel.disprove_equiv.calls", EVAL_WARM),
       ("toplevel.disprove_equiv.witness_ratio", ("eval-r2",)),
       ("toplevel.evaluate_word.calls", WARM),
       ("toplevel.evaluate_word.self_s", WARM),
       ("twisted.apply_delta.calls", EVAL_WARM),
       ("twisted.apply_delta.self_s", EVAL_WARM),
       ("twisted.twisted_zero_mode.calls", EVAL_WARM),
       ("twisted.twisted_zero_mode.self_s", EVAL_WARM),
       ("twisted.delta_coefficients.calls", EVAL_WARM),
       ("twisted.delta_coefficients.s", EVAL_WARM),
       ("vertex.mode_component.calls", ALL),
       ("vertex.mode_component.self_s", ALL),
       ("vertex.mode_component.terms_out", ALL),
       ("zhu.star.calls", ALL),
       ("zhu.star.self_s", ALL),
       ("zhu.circ_n.calls", ALL),
       ("zhu.circ_n.self_s", ALL),
       ("zhu.circ_n.zero_ratio", ("eval-r2",)),
       ("zhu.build_ospan.calls", COLD + WARM),
       ("zhu.build_ospan.s", COLD + WARM),
       ("zhu.build_ospan.cache_hit", WARM),
       ("zhu.build_ospan.cache_miss", COLD),
       ("zhu.build_ospan.uncached", WARM),
       ("zhu.insert.calls", COLD + WARM),
       ("zhu.insert.kept_ratio", COLD + WARM),
       ("zhu.insert.self_s", COLD + WARM),
       ("zhu.echelon.rows", COLD + WARM),
       ("fock.basis.calls", COLD + WARM),
       ("fock.basis.s", COLD + WARM),
       ("zhu.load_rows.calls", WARM),
       ("zhu.load_rows.s", WARM),
       ("zhu.reduce.calls", COLD + WARM),
       ("zhu.reduce.self_s", COLD + WARM),
       ("script.parse_script.calls", ALL),
       ("script.parse_script.s", ALL),
       ("script.realize.self_s", ALL),
       ("runner.run_statement.equiv.s", ALL),
       ("runner.run_statement.eval.s", EVAL_WARM),
       ("runner.run_statement.rank.s", COLD + WARM),
       ("runner.run_statement.zero_eval.s", EVAL_WARM)]
    + [(f"suites.{suite}.s", WARM)
       for suite in ("tables", "circle_reductions", "matrix_units",
                     "final_relations")]
    + [("trace.overhead_ratio", ALL)]
)


def metric_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def metric_better(name):
    if name.endswith(("kept_ratio", "witness_ratio", "cache_hit")):
        return "higher"
    return "lower"


def _family(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["fam"]


def _kind(args, kwargs):
    stmt = args[1] if len(args) > 1 else kwargs["stmt"]
    return stmt.kind


class Tracer:
    """Records spans and call-boundary counts for one worker run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_ids = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outermost = bytearray()  # no enclosing span of the same function
        self.stack = [-1]
        self.counts = {}
        self.echelon_rows = 0
        self._restore = []

    def name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, suffix=None, observe=None):
        """A wrapper of fn that records one span per call.

        ``suffix(args, kwargs)`` extends the span name per call, and
        ``observe(args, kwargs, result)`` counts outcomes at the boundary.
        """
        parent, names, start, end = self.parent, self.name, self.start, self.end
        outermost, stack = self.outermost, self.stack
        fixed = self.name_id(name)
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(fixed if suffix is None
                         else self.name_id(f"{name}.{suffix(args, kwargs)}"))
            outermost.append(depth[0] == 0)
            end.append(0.0)
            stack.append(sid)
            depth[0] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                depth[0] -= 1
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, wrapper):
        """Replace every orbifock module attribute bound to ``original``."""
        found = False
        for modname, module in list(sys.modules.items()):
            if modname != "orbifock" and not modname.startswith("orbifock."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound nowhere in orbifock")

    def _patch_function(self, modname, attr, name, **kw):
        original = getattr(sys.modules[modname], attr)
        self._rebind(original, self.wrap(original, name, **kw))

    def _patch_method(self, cls, attr, name, **kw):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, **kw))
        self._restore.append((cls, attr, original))

    def install(self):
        import orbifock.runner
        import orbifock.suites
        import orbifock.zhu

        build_sig = inspect.signature(orbifock.zhu.build_ospan)

        def observe_build(args, kwargs, ech):
            bound = build_sig.bind(*args, **kwargs).arguments
            if not bound.get("cache_dir") or bound.get("extra_generators"):
                self.count("build_ospan.uncached")
            elif ech.cache_hit:
                self.count("build_ospan.cache_hit")
            else:
                self.count("build_ospan.cache_miss")
            self.echelon_rows += len(ech.rows)

        def observe_witness(args, kwargs, witness):
            if witness is not None:
                self.count("disprove_equiv.witness")

        def observe_terms(args, kwargs, vec):
            self.count("mode_component.terms_out", len(vec.terms))

        def observe_zero(args, kwargs, vec):
            if vec.is_zero():
                self.count("circ_n.zero")

        def observe_kept(args, kwargs, kept):
            if kept:
                self.count("insert.kept")

        fn = self._patch_function
        fn("orbifock.toplevel", "evaluate", "toplevel.evaluate", suffix=_family)
        fn("orbifock.toplevel", "disprove_equiv", "toplevel.disprove_equiv",
           observe=observe_witness)
        fn("orbifock.toplevel", "evaluate_word", "toplevel.evaluate_word")
        fn("orbifock.twisted", "apply_delta", "twisted.apply_delta")
        fn("orbifock.twisted", "twisted_zero_mode", "twisted.twisted_zero_mode")
        fn("orbifock.twisted", "delta_coefficients", "twisted.delta_coefficients")
        fn("orbifock.vertex", "mode_component", "vertex.mode_component",
           observe=observe_terms)
        fn("orbifock.zhu", "star", "zhu.star")
        fn("orbifock.zhu", "circ_n", "zhu.circ_n", observe=observe_zero)
        fn("orbifock.zhu", "build_ospan", "zhu.build_ospan", observe=observe_build)
        fn("orbifock.fock", "basis", "fock.basis")
        fn("orbifock.script", "parse_script", "script.parse_script")
        fn("orbifock.script", "realize", "script.realize")
        for suite in ("tables", "circle_reductions", "matrix_units",
                      "final_relations"):
            fn("orbifock.suites", f"{suite}_suite", f"suites.{suite}")
        ech = orbifock.zhu.OSpanEchelon
        self._patch_method(ech, "insert", "zhu.insert", observe=observe_kept)
        self._patch_method(ech, "load_rows", "zhu.load_rows")
        self._patch_method(ech, "reduce", "zhu.reduce")
        self._patch_method(orbifock.runner.Runner, "run_statement",
                           "runner.run_statement", suffix=_kind)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def span_totals(self):
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        totals = {}
        for sid in range(n):
            dur = self.end[sid] - self.start[sid]
            t = totals.setdefault(self.names[self.name[sid]], [0, 0.0, 0.0])
            t[0] += 1
            if self.outermost[sid]:
                t[1] += dur
            t[2] += dur - child[sid]
        return totals

    def layer_metrics(self):
        """Every metric of LAYER_METRICS except the overhead ratio."""
        totals = self.span_totals()
        counts = self.counts
        out = {}
        for metric, _ in LAYER_METRICS:
            span, _, quantity = metric.rpartition(".")
            calls, incl, self_s = totals.get(span, (0, 0.0, 0.0))
            if quantity == "calls":
                out[metric] = calls
            elif quantity == "s":
                out[metric] = incl
            elif quantity == "self_s":
                out[metric] = self_s

        def share(key, calls_metric):
            calls = out[calls_metric]
            return counts.get(key, 0) / calls if calls else 0.0

        out["toplevel.disprove_equiv.witness_ratio"] = share(
            "disprove_equiv.witness", "toplevel.disprove_equiv.calls")
        out["zhu.circ_n.zero_ratio"] = share("circ_n.zero", "zhu.circ_n.calls")
        out["zhu.insert.kept_ratio"] = share("insert.kept", "zhu.insert.calls")
        out["vertex.mode_component.terms_out"] = counts.get(
            "mode_component.terms_out", 0)
        for outcome in ("cache_hit", "cache_miss", "uncached"):
            out[f"zhu.build_ospan.{outcome}"] = counts.get(
                f"build_ospan.{outcome}", 0)
        out["zhu.echelon.rows"] = self.echelon_rows
        return out

    def write_spans(self, path):
        """All spans as gzipped tab-separated lines, one span per line."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("run_id\tspan\tparent\tname\tstart\tend\n")
            for sid in range(len(self.start)):
                fh.write(f"{self.run_id}\t{sid}\t{self.parent[sid]}\t"
                         f"{self.names[self.name[sid]]}\t"
                         f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n")
