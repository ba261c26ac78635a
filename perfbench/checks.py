"""Output checks, run untimed after every operation, and the sources of
known cover costs that lower bounds are held against.

Known cover costs for an instance come from closed forms (the unit cube),
the committed reference table (default seed only), an exhaustive optimum
for nets of at most EXHAUSTIVE_MAX_POINTS points, and every witness the same
run produced on the instance.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import hcfill
from hcfill.exact import fmt_scalar
from hcfill.width import fiber_bound

# A net lower bound above a known cover is the documented "Sound brackets"
# defect (greedy_content on nets reports its own cost as value_lower; budget-
# limited exact_content on nets reports the deflated witness cost).  It is
# counted as a failed operation but does not make the run incorrect.
KNOWN_DEFECT = "net_lower_above_known_cover"
EXHAUSTIVE_MAX_POINTS = 12
CONTENT_KINDS = ("exact_content", "greedy_content")
REL_TOL = 1e-9


def serialise(result) -> str:
    """The report text exactly as the CLI writes it (without indentation)."""
    return json.dumps(result.to_dict(), sort_keys=True, default=fmt_scalar)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rational(x) -> bool:
    return isinstance(x, (Fraction, int))


def leq(a, b) -> bool:
    """a <= b, exact on rationals and with a relative tolerance on floats."""
    if _rational(a) and _rational(b):
        return a <= b
    return float(a) <= float(b) + REL_TOL * max(1.0, abs(float(b)))


def same(a, b) -> bool:
    return leq(a, b) and leq(b, a)


def parse_cost(x):
    return Fraction(x) if isinstance(x, str) else float(x)


def _dist(metric: str, a, b) -> float:
    diffs = [abs(x - y) for x, y in zip(a, b)]
    if metric == "linf":
        return max(diffs)
    if metric == "l1":
        return sum(diffs)
    return math.sqrt(sum(d * d for d in diffs))


def net_optimum(net, m) -> float | None:
    """Cheapest cover of a small coordinate net by balls centred at its
    points with radii from the positive distances to the other points (the
    family exact_content searches), by dynamic programming over covered
    sets.  None for nets too large to enumerate."""
    k = len(net.points)
    if k > EXHAUSTIVE_MAX_POINTS or net.metric == "matrix":
        return None
    masks: dict[int, float] = {}
    for c in range(k):
        d = [_dist(net.metric, net.points[c], net.points[e]) for e in range(k)]
        for r in sorted({x for x in d if x > 0}) or [0.0]:
            mask = sum(1 << e for e in range(k) if d[e] <= r + 1e-9)
            cost = r ** float(m)
            masks[mask] = min(masks.get(mask, math.inf), cost)
    best = [math.inf] * (1 << k)
    best[0] = 0.0
    for covered in range(1 << k):
        if best[covered] == math.inf:
            continue
        for mask, cost in masks.items():
            grown = covered | mask
            if grown != covered and best[covered] + cost < best[grown]:
                best[grown] = best[covered] + cost
    return best[-1]


def _content_facts(inst, kind: str, res, fails: list) -> dict:
    space = inst.space
    target = frozenset(space.cells) if isinstance(space, hcfill.VoxelSpace) \
        else frozenset(range(len(space.points)))
    try:
        res.witness.validate(space)
    except hcfill.InputError as exc:
        fails.append(("witness_does_not_cover", str(exc)))
    if res.witness.target != target:
        fails.append(("witness_target_mismatch", "witness covers another target"))
    if not same(res.value_upper, res.witness.cost):
        fails.append(("upper_not_witness_cost",
                      f"{res.value_upper} != witness {res.witness.cost}"))
    if res.optimal and not (res.value_lower == res.value_upper
                            and same(res.value_upper, res.witness.cost)):
        fails.append(("optimal_bracket_not_degenerate", "optimal result with a gap"))
    if inst.closed_form is not None:
        if kind == "exact_content" and not (res.optimal and res.value_upper == inst.closed_form):
            fails.append(("closed_form", f"content {res.value_upper} != {inst.closed_form}"))
        if not leq(inst.closed_form, res.value_upper):
            fails.append(("closed_form", f"cover {res.value_upper} below {inst.closed_form}"))
    facts = {"lower": fmt_scalar(res.value_lower), "upper": fmt_scalar(res.value_upper),
             "optimal": res.optimal,
             "tightness": float(res.value_lower) / float(res.value_upper)}
    if kind == "exact_content":
        facts["nodes"] = res.certificate["nodes"]
    return facts


def _fill_facts(inst, cert, fails: list) -> dict:
    if not cert.ok():
        fails.append(("fill_certificate", "a non-advisory check failed"))
    current = frozenset(inst.space.cells)
    for k, step in enumerate(cert.sequence.steps, start=1):
        report = hcfill.verify_decomposition(inst.space, current, step.decomposition)
        if not report["ok"]:
            fails.append(("verify_decomposition", f"step {k}: {report}"))
        current = step.new_cells
    return fill_counts(cert)


def fill_counts(cert) -> dict:
    """The answer counts of a fill certificate (also the traced counters)."""
    balls = [b for s in cert.sequence.steps for b in s.decomposition.balls]
    return {"steps": len(cert.sequence.steps), "balls": len(balls),
            "empty_slices": sum(1 for b in balls if not b.slice_cells),
            "residue": cert.pushout_trace is not None}


def _width_facts(inst, res, fails: list) -> dict:
    try:
        nv = hcfill.nerve(res.covering, inst.space)
    except hcfill.InputError as exc:
        fails.append(("width_cover", str(exc)))
        nv = None
    if nv is not None:
        if nv.dimension > inst.m - 1:
            fails.append(("width_nerve_dimension", f"{nv.dimension} > {inst.m - 1}"))
        if fiber_bound(nv) != res.bound:
            fails.append(("width_fiber_bound", f"{fiber_bound(nv)} != {res.bound}"))
    diameter = hcfill.space_diameter(inst.space)
    return {"bound": fmt_scalar(res.bound), "diameter": fmt_scalar(diameter),
            "ratio": float(res.bound) / float(diameter)}


def _descend_facts(inst, trace, fails: list) -> dict:
    for key in ("final_in_skeleton", "boundary_points_fixed", "displacement_ok"):
        if not trace.checks[key]:
            fails.append(("skeleton_descend", f"{key} is false"))
    if len(trace.final) != len(inst.points):
        fails.append(("skeleton_descend", "point count changed"))
    return {"faces": descent_faces(trace)}


def descent_faces(trace) -> int:
    """Faces a skeleton descent passed through (also the traced counter)."""
    return sum(len(steps) for _, steps in trace.levels)


def check_op(op, result) -> tuple[dict, list]:
    """(facts, failures) for one operation's result; a failure is a
    (kind, message) pair."""
    fails: list = []
    if op.kind in CONTENT_KINDS:
        facts = _content_facts(op.instance, op.kind, result, fails)
    elif op.kind == "fill":
        facts = _fill_facts(op.instance, result, fails)
    elif op.kind == "width_bound":
        facts = _width_facts(op.instance, result, fails)
    else:
        facts = _descend_facts(op.instance, result, fails)
    return facts, fails


def reference_table(reference: dict, workload: str, seed: int, seconds: float) -> dict:
    """instance id -> reference entry, for the run the table was made for."""
    if (seed, seconds) != (reference["seed"], reference["seconds"]):
        return {}
    prefix = f"{workload}/"
    return {key[len(prefix):]: entry for key, entry in reference["best_known"].items()
            if key.startswith(prefix)}


def bound_summary(op, result):
    """What the cross-operation checks keep of a result: (lower, upper,
    witness cost, optimal) for a content solve, None otherwise."""
    if result is None or op.kind not in CONTENT_KINDS:
        return None
    return (result.value_lower, result.value_upper, result.witness.cost, result.optimal)


def known_covers(ops, summaries, table: dict) -> dict:
    """instance id -> cheapest cover cost known to the benchmark."""
    known: dict = {}

    def offer(key, cost):
        if cost is not None and (key not in known or leq(cost, known[key])):
            known[key] = cost

    for op, summary in zip(ops, summaries):
        if op.kind not in CONTENT_KINDS:
            continue
        inst = op.instance
        offer(inst.id, inst.closed_form)
        entry = table.get(inst.id)
        if entry is not None:
            offer(inst.id, parse_cost(entry["cost"]))
        if isinstance(inst.space, hcfill.NetSpace):
            offer(inst.id, net_optimum(inst.space, inst.m))
        if summary is not None:
            offer(inst.id, summary[2])
    return known


def lower_bound_failures(ops, summaries, table: dict) -> dict:
    """op id -> failures of the cross-operation checks: every reported lower
    bound at most the cheapest known cover, and optimal values equal to the
    reference optimum.  `summaries` holds bound_summary() of each result."""
    known = known_covers(ops, summaries, table)
    out: dict = {}
    for op, summary in zip(ops, summaries):
        if summary is None:
            continue
        lower, upper, _, optimal = summary
        inst = op.instance
        fails = []
        best = known[inst.id]
        if not leq(lower, best):
            kind = KNOWN_DEFECT if isinstance(inst.space, hcfill.NetSpace) \
                else "lower_above_known_cover"
            fails.append((kind, f"lower {float(lower):.6g} > known cover {float(best):.6g}"))
        entry = table.get(inst.id)
        if entry is not None and entry["optimal"] and optimal \
                and not same(upper, parse_cost(entry["cost"])):
            fails.append(("disagrees_with_reference",
                          f"optimum {upper} != reference {entry['cost']}"))
        if fails:
            out[op.id] = fails
    return out
