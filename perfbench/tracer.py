"""Per-layer tracing of spancat from outside the package.

`Tracer.install()` replaces every public function in each spancat module's
globals, and every public method of FinAbInstance, PInjInstance and Sampler,
with a wrapper that passes the call through unchanged and records the call
count and self time of the wrapped function.  Self time comes from a
per-call stack: each frame accumulates the time of its traced children, and
a call's self time is its duration minus that sum.  Counts are kept in
memory; `layer_metrics` turns them into the per-layer metrics named in
BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

MODULES = (
    "axioms", "cli", "config", "core", "dot", "fakepb", "finab", "gen",
    "jsonio", "pinj", "relations", "spans",
)
CLASSES = (("finab", "FinAbInstance"), ("pinj", "PInjInstance"), ("gen", "Sampler"))
# private helpers wrapped as well, because a layer metric needs them
PRIVATE = {
    "cli": ("_write_output",),
    "axioms": ("_pullback_bijection_at", "_pushout_bijection_at"),
}
FP = "spancat.fakepb.fake_pullback"
VALIDATE_IN_FP = ("spancat.core.validate_square", "spancat.spans.validate_em_span")


class Tracer:
    """Call counts and self times keyed by function; see the module doc."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.homs = 0  # morphisms handed out by enumerate_homs
        self.pool_kept = 0  # morphisms kept by class-filtered pool misses
        self.pool_enumerated = 0  # morphisms those misses enumerated
        self.fp_s = 0.0  # inclusive time of outermost fake_pullback calls
        self.fp_validate_s = 0.0  # validate_square/validate_em_span under it
        self._fp_depth = 0
        self._stack = [0.0]
        self._wrapped: dict[int, object] = {}
        self._hooks = {
            "FinAbInstance.enumerate_homs": self._count_homs,
            "PInjInstance.enumerate_homs": self._count_homs,
            "Sampler.pool": self._pool_yield,
            FP: self._time_fake_pullback,
            **{k: self._time_validate for k in VALIDATE_IN_FP},
        }

    # -- wrapping -------------------------------------------------------------

    def wrap(self, key: str, func):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        push, pop, clock = stack.append, stack.pop, time.perf_counter

        def traced(*args, **kwargs):
            push(0.0)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - pop()
                stack[-1] += dt

        hook = self._hooks.get(key)
        return functools.update_wrapper(hook(traced) if hook else traced, func)

    def _count_homs(self, traced):
        def hook(*args, **kwargs):
            out = traced(*args, **kwargs)
            self.homs += len(out)
            return out
        return hook

    def _pool_yield(self, traced):
        # a class-filtered miss enumerates the hom set once; a hit enumerates
        # nothing, so the growth of `homs` during the call tells them apart
        def hook(smp, a, b, cls="any"):
            before = self.homs
            out = traced(smp, a, b, cls)
            if cls != "any" and self.homs > before:
                self.pool_kept += len(out)
                self.pool_enumerated += self.homs - before
            return out
        return hook

    def _time_fake_pullback(self, traced):
        def hook(*args, **kwargs):
            self._fp_depth += 1
            t0 = time.perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                self._fp_depth -= 1
                if not self._fp_depth:
                    self.fp_s += time.perf_counter() - t0
        return hook

    def _time_validate(self, traced):
        def hook(*args, **kwargs):
            if not self._fp_depth:
                return traced(*args, **kwargs)
            depth, self._fp_depth = self._fp_depth, 0  # count outermost only
            t0 = time.perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                self.fp_validate_s += time.perf_counter() - t0
                self._fp_depth = depth
        return hook

    def install(self) -> None:
        """Wrap spancat in place; call once per process, after import."""
        for short in MODULES:
            mod = importlib.import_module(f"spancat.{short}")
            for name, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("spancat"):
                    continue
                if name.startswith("_") and name not in PRIVATE.get(short, ()):
                    continue
                wrapper = self._wrapped.get(id(value))
                if wrapper is None:
                    wrapper = self.wrap(f"{value.__module__}.{value.__qualname__}", value)
                    self._wrapped[id(value)] = wrapper
                setattr(mod, name, wrapper)
        for short, cls_name in CLASSES:
            cls = getattr(importlib.import_module(f"spancat.{short}"), cls_name)
            for name in dir(cls):
                raw = inspect.getattr_static(cls, name)
                if name.startswith("_") or not isinstance(raw, types.FunctionType):
                    continue
                setattr(cls, name, self.wrap(f"{cls_name}.{name}", raw))

    # -- output ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: v for k, v in sorted(self.stats.items()) if v[0]},
            "homs": self.homs,
            "pool_kept": self.pool_kept,
            "pool_enumerated": self.pool_enumerated,
            "fp_s": self.fp_s,
            "fp_validate_s": self.fp_validate_s,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics from one traced unit's snapshot.

    Counts are exact; `*.self_s` are seconds of self time; ratios whose
    denominator is zero (the layer never ran) read 0."""
    stats = snap["stats"]

    def calls(*keys: str) -> int:
        return sum(stats.get(k, (0, 0.0))[0] for k in keys)

    def self_s(*keys: str) -> float:
        return sum(stats.get(k, (0, 0.0))[1] for k in keys)

    def both(*methods: str) -> tuple[str, ...]:
        return tuple(f"{c}.{m}" for c in ("FinAbInstance", "PInjInstance") for m in methods)

    fa, pi, sp = "spancat.finab.", "spancat.pinj.", "spancat.spans."
    rel, ax = "spancat.relations.", "spancat.axioms."
    assign_ops = tuple(pi + n for n in (
        "compose_assign", "pullback_assign", "factor_assign", "reverse_assign"))
    validate = both("validate_mor") + ("spancat.core.validate_square",)
    decisions = (ax + "is_pullback", ax + "is_pushout")
    bijections = (ax + "_pullback_bijection_at", ax + "_pushout_bijection_at")
    out = {
        "finab.snf.calls": calls(fa + "smith_normal_form"),
        "finab.snf.self_s": self_s(fa + "smith_normal_form"),
        "finab.hnf.calls": calls(fa + "hermite_form"),
        "finab.hom_compose.calls": calls(fa + "hom_compose"),
        "finab.hom_compose.self_s": self_s(fa + "hom_compose"),
        "finab.close_elements.calls": calls(fa + "close_elements"),
        "finab.close_elements.self_s": self_s(fa + "close_elements"),
        "finab.classify_miss_ratio": _ratio(
            calls(fa + "hom_classify"), calls("FinAbInstance.classify")),
        "pinj.assign_ops.calls": calls(*assign_ops),
        "pinj.assign_ops.self_s": self_s(*assign_ops),
        "pinj.validate_assign.calls": calls(pi + "validate_assign"),
    }
    for op in ("compose", "pullback_along_M", "pushout_along_E"):
        out[f"core.{op}.calls"] = calls(*both(op))
        out[f"core.{op}.self_s"] = self_s(*both(op))
    out.update({
        "core.classify.calls": calls(*both("classify")),
        "core.factorize.calls": calls(*both("factorize")),
        "core.enumerate_homs.calls": calls(*both("enumerate_homs")),
        "core.enumerate_homs.homs": snap["homs"],
        "core.validate.calls": calls(*validate),
        "core.validate.self_s": self_s(*validate),
        "gen.pool.calls": calls("Sampler.pool"),
        "gen.pool.self_s": self_s("Sampler.pool"),
        "gen.pool.yield": _ratio(snap["pool_kept"], snap["pool_enumerated"]),
        "gen.em_span_legs.calls": calls("Sampler.em_span_legs"),
        "axioms.decisions": calls(*decisions),
        "axioms.decisions.self_s": self_s(*decisions, *bijections),
        "axioms.competitors_per_decision": _ratio(calls(*bijections), calls(*decisions)),
        "spans.span_compose.calls": calls(sp + "span_compose"),
        "spans.span_compose.self_s": self_s(sp + "span_compose"),
        "spans.validate_em_span.calls": calls(sp + "validate_em_span"),
        "spans.validate_em_span.self_s": self_s(sp + "validate_em_span"),
        "spans.span_iso_eq.calls": calls(sp + "span_iso_eq"),
        "spans.cell_between.calls": calls(sp + "cell_between"),
        "fakepb.fake_pullback.calls": calls(FP),
        "fakepb.fake_pullback.self_s": self_s(FP),
        "fakepb.validate_share": _ratio(snap["fp_validate_s"], snap["fp_s"]),
        "relations.rel_compose.calls": calls(rel + "rel_compose"),
        "relations.rel_compose.self_s": self_s(rel + "rel_compose"),
        "relations.rel_iso_eq.calls": calls(rel + "rel_iso_eq"),
        "relations.rel_iso_eq.self_s": self_s(rel + "rel_iso_eq"),
        "relations.goursat_to_subgroup.self_s": self_s(rel + "goursat_to_subgroup"),
        "relations.oracle.self_s": self_s(fa + "subgroup_compose"),
        "cli.report.self_s": self_s("spancat.jsonio.dumps", "spancat.cli._write_output"),
    })
    return out
