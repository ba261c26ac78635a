"""Spans and counters for the traced run, recorded by wrappers installed
from outside the library.

Each wrapped function is replaced in every `hcfill` module that bound it by
import (and methods on their class), so calls between modules are traced
too.  A span is (name, start, end, parent span, operation id), in CPU
seconds of the process; spans stay in memory and are written out when the
run ends.  A layer's self time is its span time minus the time covered by
its child spans.  The wrappers' own bookkeeping before and after a call (the
repeat keys and counters) is charged to no span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

import checks

WRAPPED = {
    "content": ("exact_content", "greedy_content", "generate_candidates"),
    "space": ("ball_members",),
    "decomposition": ("fill", "decompose", "improvement_step", "critical_radius",
                      "annulus_radius", "vitali_select", "TildeContent.solve"),
    "coarea": ("slice_profile", "best_slice"),
    "cone": ("cone_covering",),
    "pushout": ("skeleton_descend", "average_point", "point_cover"),
    "width": ("width_bound", "nerve", "fiber_bound"),
}

class Recorder:
    """Spans, per-name call counts and self times, and counters."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self.hook_s = 0.0  # bookkeeping time left out of every span

    def start_op(self, op_index: int):
        self.op = op_index
        self._seen.clear()

    def note_repeat(self, name: str, key):
        """Count a call whose key already occurred in the same operation."""
        seen = self._seen[name]
        if key in seen:
            self.counters[f"{name}.repeats"] += 1
        else:
            seen.add(key)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.process_time())
        return idx

    def close(self, idx: int, name: str):
        end = time.process_time()
        _, children = self._stack.pop()
        duration = end - self.span_start[idx]
        self.span_end[idx] = end
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def exclude(self, seconds: float):
        """Leave `seconds` of the open span out of its self time."""
        self.hook_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def write(self, path: str):
        doc = {
            "names": self.names,
            "fields": ["name", "parent", "op", "start", "end"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- what each wrapper records besides its span -----------------------------

def _bind(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bound


def _after_candidates(rec, result, args, kwargs, bound):
    rec.counters["content.candidates"] += len(result[0])


def _exact_key(rec, name, args, kwargs, bound):
    a = bound(args, kwargs)
    target = None if a["target"] is None else frozenset(a["target"])
    rec.note_repeat(name, (a["space"], target, a["m"], a["family"]))


def _after_exact(rec, result, args, kwargs, bound):
    nodes = result.certificate["nodes"]
    rec.counters["content.bnb_nodes"] += nodes
    if nodes > bound(args, kwargs)["node_budget"]:
        rec.counters["content.budget_hits"] += 1


def _solve_key(rec, name, args, kwargs, bound):
    a = bound(args, kwargs)
    ctx = a["self"]
    rec.note_repeat(name, (ctx.cells, ctx.q_balls, frozenset(a["subset"]),
                           Fraction(a["exponent"])))


def _after_fill(rec, cert, args, kwargs, bound):
    counts = checks.fill_counts(cert)
    for key in ("steps", "balls", "empty_slices"):
        rec.counters[f"decomposition.{key}"] += counts[key]
    rec.counters["decomposition.residue_runs"] += counts["residue"]


def _after_cone(rec, cert, args, kwargs, bound):
    rec.counters["cone.balls"] += len(cert.balls)


def _after_descend(rec, trace, args, kwargs, bound):
    rec.counters["pushout.faces"] += checks.descent_faces(trace)


HOOKS = {  # name -> (key before the call, counter after it)
    "content.generate_candidates": (None, _after_candidates),
    "content.exact_content": (_exact_key, _after_exact),
    "decomposition.TildeContent.solve": (_solve_key, None),
    "decomposition.fill": (None, _after_fill),
    "cone.cone_covering": (None, _after_cone),
    "pushout.skeleton_descend": (None, _after_descend),
}


def _wrapper(rec: Recorder, name: str, fn):
    key, after = HOOKS.get(name, (None, None))
    bound = _bind(fn) if key or after else None

    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if key is not None:
            t0 = time.process_time()
            key(rec, name, args, kwargs, bound)
            rec.exclude(time.process_time() - t0)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx, name)
        if after is not None:
            t0 = time.process_time()
            after(rec, result, args, kwargs, bound)
            rec.exclude(time.process_time() - t0)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    return traced


def install(rec: Recorder) -> list:
    """Wrap every WRAPPED name wherever an `hcfill` module bound it.
    Returns the patches as (owner, attribute, original, where) tuples."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "hcfill" or name.startswith("hcfill.")}
    patches = []
    for module, names in WRAPPED.items():
        home = modules[f"hcfill.{module}"]
        for qual in names:
            span = f"{module}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, _wrapper(rec, span, orig))
                patches.append((cls, meth, orig, f"hcfill.{module}.{cls_name}"))
                continue
            orig = getattr(home, qual)
            wrapped = _wrapper(rec, span, orig)
            for mod_name, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        patches.append((mod, attr, orig, mod_name))
    return patches


def uninstall(patches: list):
    for owner, attr, orig, _ in reversed(patches):
        setattr(owner, attr, orig)


def layer_metrics(rec: Recorder, overhead_frac: float, declared: list, scale: float) -> dict:
    """The declared (name, unit) per-layer metrics from the recorder; self
    times are multiplied by `scale`, the pass's speed-probe factor."""
    values: dict = {}
    for span in rec.calls.keys() | {f"{m}.{q}" for m, qs in WRAPPED.items() for q in qs}:
        values[f"{span}.calls"] = rec.calls.get(span, 0)
        values[f"{span}.self_s"] = rec.self_s.get(span, 0.0) * scale
    values.update(rec.counters)

    def ratio(a, b):
        return a / b if b else 0.0

    values["content.exact_content.s_per_node"] = ratio(
        values["content.exact_content.self_s"], values.get("content.bnb_nodes", 0))
    for span in ("content.exact_content", "decomposition.TildeContent.solve"):
        values[f"{span}.repeat_ratio"] = ratio(
            values.get(f"{span}.repeats", 0), values[f"{span}.calls"])
    values["width.admissible_ratio"] = ratio(
        values["width.fiber_bound.calls"], values["width.nerve.calls"])
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared}


def counts(rec: Recorder) -> dict:
    """The machine-independent part of the trace: calls and counters."""
    out = {f"{name}.calls": n for name, n in rec.calls.items()}
    out.update(rec.counters)
    return dict(sorted(out.items()))
