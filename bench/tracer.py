"""Per-layer tracing installed from outside the package.

`Tracer.install()` wraps public functions of the `gf2lie` layers in place
and rebinds every module-level name that refers to them, so a function
imported by name (`deform.d2`, `superize.verify_morphism`, ...) is traced
too.  `uninstall()` puts the originals back.

Each wrapped function is handled in one of three modes:

- SPAN: timed, and every call is kept as a span (name, start, end, parent
  span, verdict id) in memory until the run writes them out.
- TIMED: timed into per-name totals only.  Used for functions called tens
  of thousands of times or more, where keeping every span would cost
  more memory than the run itself.
- COUNT: calls counted, not timed.  Used where a call costs about as much
  as the timer around it (`Span.reduce`, `Span.add`, `Algebra.bracket`,
  `LinearMap.apply`, `cochain_term_weight`, each about 1 us or less and
  called up to millions of times), so timing it would distort the
  attribution; their time stays in the self time of the timed caller.

Self time is a call's duration minus the time its timed callees took,
kept with an explicit stack, so nested and recursive calls are exact.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

SPAN, TIMED, COUNT = "span", "timed", "count"
PACKAGE = "gf2lie"


# (metric name, module, attribute, mode, result hook).  An attribute "build_*"
# stands for every build_* function of the module under one name.
TARGETS = [
    ("gf2.Span.reduce", "gf2", "Span.reduce", COUNT, None),
    ("gf2.Span.add", "gf2", "Span.add", COUNT,
     lambda tr, a, k, r: tr.bump("gf2.Span.add.grew", bool(r))),
    ("gf2.rank", "gf2", "rank", TIMED, None),
    ("gf2.invert", "gf2", "invert", TIMED, None),
    ("gf2.kernel", "gf2", "kernel", TIMED, None),
    ("gf2.combination_kernel", "gf2", "combination_kernel", SPAN,
     lambda tr, a, k, r: tr.bump("gf2.combination_kernel.width_sum", k.get("width", a[-1]))),
    ("gf2.TaggedSpan.add", "gf2", "TaggedSpan.add", TIMED, None),
    ("liealg.Algebra.validate", "liealg", "Algebra.validate", SPAN, None),
    ("liealg.ideal_generated", "liealg", "ideal_generated", TIMED, None),
    ("liealg.simplicity_check", "liealg", "simplicity_check", SPAN,
     lambda tr, a, k, r: tr.bump("liealg.simplicity_check.seeds", r.seeds_tried)),
    ("liealg.verify_morphism", "liealg", "verify_morphism", TIMED,
     lambda tr, a, k, r: tr.bump("liealg.verify_morphism.accepted", bool(r))),
    ("liealg.derivations", "liealg", "derivations", SPAN, None),
    ("liealg.LinearMap.apply", "liealg", "LinearMap.apply", COUNT, None),
    ("liealg.Algebra.bracket", "liealg", "Algebra.bracket", COUNT, None),
    ("grading.cochain_term_weight", "grading", "cochain_term_weight", COUNT, None),
    ("cohomology.d2", "cohomology", "d2", TIMED, None),
    ("cohomology.d1", "cohomology", "d1", TIMED, None),
    ("cohomology.compute_h2", "cohomology", "compute_h2", SPAN,
     lambda tr, a, k, r: [tr.bump("cohomology.compute_h2." + key, dim)
                          for key, dim in zip(("z2_dim", "b2_dim", "h2_dim"), r.dims)]),
    ("cohomology.coboundary_of", "cohomology", "coboundary_of", SPAN, None),
    ("cohomology.block_consistent_representative", "cohomology",
     "block_consistent_representative", SPAN, None),
    ("deform.integrability_verdict", "deform", "integrability_verdict", SPAN, None),
    ("deform.zero_defect_representative", "deform", "zero_defect_representative", SPAN, None),
    ("deform.massey_tower", "deform", "massey_tower", SPAN, None),
    ("deform.jurman_deform_check", "deform", "jurman_deform_check", SPAN, None),
    ("superize.equivalence_of_superizations", "superize", "equivalence_of_superizations", SPAN,
     lambda tr, a, k, r: tr.bump("superize.maps_tried", r.tried)),
    ("superize.induced_super_iso", "superize", "induced_super_iso", TIMED,
     lambda tr, a, k, r: tr.bump("superize.induced_super_iso.hits", r is not None)),
    ("superize.restricted_closure", "superize", "restricted_closure", SPAN, None),
    ("isom.search_isomorphism", "isom", "search_isomorphism", SPAN,
     lambda tr, a, k, r: tr.bump("isom.engine." + (r.engine or "none"), 1)),
    ("isom.fingerprint", "isom", "fingerprint", SPAN, None),
    ("constructions.build", "constructions", "build_*", SPAN, None),
]

# figures from the result hooks: name -> (unit, counter, target whose calls divide it or None)
DERIVED = {
    "gf2.Span.add.grew_ratio": ("ratio", "gf2.Span.add.grew", "gf2.Span.add"),
    "gf2.combination_kernel.width_bits": (
        "bits", "gf2.combination_kernel.width_sum", "gf2.combination_kernel"),
    "liealg.simplicity_check.seeds": ("count", "liealg.simplicity_check.seeds", None),
    "liealg.verify_morphism.accept_ratio": (
        "ratio", "liealg.verify_morphism.accepted", "liealg.verify_morphism"),
    "cohomology.compute_h2.z2_dim": ("count", "cohomology.compute_h2.z2_dim", None),
    "cohomology.compute_h2.b2_dim": ("count", "cohomology.compute_h2.b2_dim", None),
    "cohomology.compute_h2.h2_dim": ("count", "cohomology.compute_h2.h2_dim", None),
    "superize.maps_tried": ("count", "superize.maps_tried", None),
    "superize.induced_super_iso.hit_ratio": (
        "ratio", "superize.induced_super_iso.hits", "superize.induced_super_iso"),
    "isom.engine.torus": ("count", "isom.engine.torus", None),
    "isom.engine.zgraded": ("count", "isom.engine.zgraded", None),
    "isom.engine.generic": ("count", "isom.engine.generic", None),
}


class Tracer:
    """Wraps the TARGETS of an imported `gf2lie` and accumulates per-layer figures."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.extra = defaultdict(int)
        self.spans: List[tuple] = []
        # frames: [time spent in timed callees, index of the enclosing span]
        self._stack: List[list] = [[0.0, -1]]
        self.verdict: Optional[str] = None
        self.absent: Dict[str, str] = {}
        self._undo: List[tuple] = []

    # -- figures --------------------------------------------------------
    def bump(self, key: str, amount) -> None:
        self.extra[key] += amount

    def metrics(self) -> Dict[str, dict]:
        """Every per-layer figure as {name: {"value", "unit"}}; absent targets read 0."""
        out = {}
        for name, _mod, _attr, mode, _hook in TARGETS:
            out[name + ".calls"] = {"value": self.calls.get(name, 0), "unit": "count"}
            if mode != COUNT:
                out[name + ".self_s"] = {"value": self.self_s.get(name, 0.0), "unit": "s"}
        for name, (unit, num, den) in DERIVED.items():
            value = self.extra[num]
            if den is not None:
                value = value / self.calls[den] if self.calls.get(den) else 0.0
            out[name] = {"value": value, "unit": unit}
        # verdict time spent outside every timed function: benchmark code and
        # untraced layer code such as parse_cocycle and Cochain2.text
        out["tracing.unattributed_s"] = {"value": self.self_s.get("bench.verdict", 0.0), "unit": "s"}
        return out

    def span_records(self) -> List[dict]:
        keys = ("name", "start", "end", "parent", "verdict")
        return [dict(zip(keys, s)) for s in self.spans]

    # -- a verdict is a top-level span --------------------------------------
    def run_verdict(self, verdict_id: str, fn: Callable):
        self.verdict = verdict_id
        try:
            return self._wrap("bench.verdict", fn, SPAN, None)()
        finally:
            self.verdict = None

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name, modname, attr, mode, hook in TARGETS:
            mod = sys.modules.get("%s.%s" % (PACKAGE, modname))
            if mod is None:
                self.absent[name] = "module %s.%s not found" % (PACKAGE, modname)
                continue
            if attr.endswith("*"):
                prefix = attr[:-1]
                fns = [(k, v) for k, v in sorted(vars(mod).items())
                       if k.startswith(prefix) and callable(v)
                       and getattr(v, "__module__", None) == mod.__name__]
                if not fns:
                    self.absent[name] = "%s has no %s functions" % (mod.__name__, attr)
                for _, fn in fns:
                    self._rebind(modules, fn, self._wrap(name, fn, mode, hook))
                continue
            owner, leaf = mod, attr
            if "." in attr:
                clsname, leaf = attr.split(".", 1)
                owner = getattr(mod, clsname, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.absent[name] = "%s has no attribute %s" % (mod.__name__, attr)
                continue
            wrapper = self._wrap(name, fn, mode, hook)
            if owner is mod:
                self._rebind(modules, fn, wrapper)
            else:
                self._undo.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)

    def _rebind(self, modules, fn, wrapper) -> None:
        """Replace fn by wrapper under every module-level name bound to it."""
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is fn:
                    self._undo.append((m, k, fn))
                    setattr(m, k, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, mode: str, hook) -> Callable:
        self.calls.setdefault(name, 0)
        calls = self.calls
        if mode == COUNT:
            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            return functools.update_wrapper(counted, fn)

        self.self_s.setdefault(name, 0.0)
        self_s, stack, spans, clock = self.self_s, self._stack, self.spans, time.perf_counter
        record = mode == SPAN

        def timed(*args, **kwargs):
            parent = stack[-1]
            if record:
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent[1]
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                calls[name] += 1
                self_s[name] += d - frame[0]
                parent[0] += d
                if record:
                    spans[idx] = (name, t0, t1, parent[1], self.verdict)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return functools.update_wrapper(timed, fn)
