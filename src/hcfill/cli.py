"""Command-line interface: every operation as a subcommand emitting a
schema-versioned JSON report (deterministic: sorted keys).

Exit codes: 0 success, 1 input error (usage errors the parser finds
included), 2 verification failure (an inequality the artifact certifies did
not hold; the report carries the counterexample).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .config import RunConfig
from .content import exact_content, greedy_content, volume_lower_bound
from .cone import cone_covering, cone_coverage_check
from .coarea import DistanceToPoint, DistanceToSet, ExplicitValues, best_slice, coarea_integral, slice_profile
from .decomposition import decompose, fill
from .errors import InputError, VerificationError
from .exact import TOL, fmt_scalar, parse_scalar
from .pushout import (
    CubicalGrid,
    cube_equality_check,
    loomis_whitney_check,
    skeleton_descend,
)
from .space import (
    AllGridBalls,
    Ball,
    CentersIn,
    Covering,
    FixedFamily,
    RadiusCapped,
    VoxelSpace,
    _cells,
    _field,
    _integer,
    _numbers,
    cover_cost,
    intersect_families,
    load_json,
    load_space,
)
from .width import width_bound

SCHEMA = "hcfill/1"


def _emit(report: dict, out: str | None) -> None:
    doc = {"schema": SCHEMA, "version": __version__, **report}
    text = json.dumps(doc, sort_keys=True, indent=2, default=fmt_scalar)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, header, rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_number(text: str, option: str) -> Fraction:
    """A numeric option ("p/q", integer or decimal) as an exact Fraction;
    malformed text is an input error."""
    try:
        return parse_scalar(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{option}: not a number: {text!r}") from None


def _parse_m(text: str) -> Fraction:
    return _parse_number(text, "--m")


def _parse_point(text: str, option: str):
    return tuple(_parse_number(x, option) for x in text.split(","))


def _load_cover(path: str) -> Covering:
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("balls"), list):
        raise InputError(f"{path}: a cover document needs a 'balls' list")
    balls = tuple(Ball.from_dict(b) for b in doc["balls"])
    what = f"{path}: cover document"
    target = _field(doc, "target", lambda cells: _cells(cells, "cover target cell"),
                    frozenset(), what)
    return Covering(balls, target, _field(doc, "m", parse_scalar, Fraction(1), what))


def _load_points(path: str) -> list:
    doc = load_json(path)
    if not isinstance(doc, list):
        raise InputError(f"{path}: a points document is a list of points")
    return [_numbers(p, parse_scalar, f"{path}: point") for p in doc]


def _family(args) -> object:
    if args.family == "all-grid":
        fam = AllGridBalls()
    elif not args.family_file:
        raise InputError(f"--family {args.family} requires --family-file")
    elif args.family == "fixed":
        fam = FixedFamily(_load_cover(args.family_file).balls)
    else:
        fam = CentersIn(tuple(_load_points(args.family_file)))
    if args.radius_cap is not None:
        fam = intersect_families(fam, RadiusCapped(_parse_number(args.radius_cap, "--radius-cap")))
    return fam


# ---------------------------------------------------------------------------
# subcommands

def _cmd_content(args, cfg: RunConfig) -> int:
    space = load_space(args.space)
    family = _family(args)
    m = _parse_m(args.m)
    solver = exact_content if args.exact else greedy_content
    kwargs = {"node_budget": cfg.node_budget} if args.exact else {}
    result = solver(space, None, m, family, **kwargs)
    report = {"command": "content", "result": result.to_dict()}
    if isinstance(space, VoxelSpace) and args.family == "all-grid":
        report["volume_lower_bound"] = fmt_scalar(volume_lower_bound(space, None, m))
    _emit(report, args.out)
    return 0


def _cmd_coarea(args, cfg: RunConfig) -> int:
    space = load_space(args.space)
    if not isinstance(space, VoxelSpace):
        raise InputError("coarea slicing needs the voxel model")
    cover = _load_cover(args.cover)
    kind, _, rest = args.function.partition(":")
    if kind == "dist":
        descriptor = DistanceToPoint(_parse_point(rest, "--f"))
    elif kind == "dist-set":
        doc = load_json(rest)
        if not isinstance(doc, list):
            raise InputError(f"{rest}: a dist-set document is a list of cells")
        descriptor = DistanceToSet(_cells(doc, "dist-set cell"))
    elif kind == "values":
        doc = load_json(rest)
        if not isinstance(doc, dict):
            raise InputError(f"{rest}: a values document is an object with 'values' and 'lip'")
        what = f"{rest}: values document"
        values = _field(doc, "values", lambda pairs: {
            _numbers(c, _integer, "values cell"): parse_scalar(v) for c, v in pairs}, what=what)
        descriptor = ExplicitValues(values, _field(doc, "lip", parse_scalar, what=what))
    else:
        raise InputError(f"unknown function descriptor {args.function!r}")
    rng = None
    if args.range:
        lo, _, hi = args.range.partition(":")
        rng = (_parse_number(lo, "--range"), _parse_number(hi, "--range"))
    m = _parse_m(args.m)
    domain = cover.target or frozenset(space.cells)
    profile = slice_profile(space, domain, descriptor, cover, rng)
    integral = coarea_integral(profile, m)
    r_best, slice_cost = best_slice(profile, m)
    r1, r2 = profile.range
    budget = 2 * float(descriptor.lip) * float(cover_cost([b.radius for b in cover.balls], m))
    mean_bound = float(integral) / float(r2 - r1)
    report = {
        "command": "coarea",
        "profile": profile.to_dict(),
        "integral": fmt_scalar(integral),
        "integral_bound": budget,
        "integral_ok": float(integral) <= budget + TOL,
        "best_R": fmt_scalar(r_best),
        "slice_cost": fmt_scalar(slice_cost),
        "slice_cost_ok": float(slice_cost) <= mean_bound + TOL,
        "slice_cells": len(profile.level_set(r_best)),
    }
    _emit(report, args.out)
    return 0 if report["integral_ok"] and report["slice_cost_ok"] else 2


def _cmd_cone(args, cfg: RunConfig) -> int:
    cover = _load_cover(args.cover)
    apex = _parse_point(args.apex, "--apex")
    m = _parse_m(args.m)
    cert = cone_covering(cover, apex, _parse_number(args.radius, "--R"), m, args.variant)
    coverage = cone_coverage_check(cert, cover)
    report = {
        "command": "cone",
        "certificate": cert.to_dict(),
        "coverage": coverage,
    }
    _emit(report, args.out)
    return 2 if coverage["uncovered"] else 0


def _cmd_decompose(args, cfg: RunConfig) -> int:
    space = load_space(args.space)
    m = _parse_m(args.m)
    eps = _parse_number(args.eps, "--eps") if args.eps is not None else None
    result = decompose(space, None, m, eps, node_budget=cfg.node_budget)
    _emit({"command": "decompose", "decomposition": result.to_dict()}, args.out)
    return 0


def _cmd_fill(args, cfg: RunConfig) -> int:
    space = load_space(args.space)
    m = _parse_m(args.m)
    eps = _parse_number(args.eps, "--eps") if args.eps is not None else None
    cert = fill(
        space, None, m, eps, cfg.step_cap,
        node_budget=cfg.node_budget, pushout_candidates=cfg.pushout_candidates,
    )
    report = {"command": "fill", "certificate": cert.to_dict()}
    if args.report:
        _emit(report, args.report)
    if args.emit_plot:
        _write_csv(args.emit_plot, ("step", "content", "displacement"),
                   cert.step_rows)
    _emit(report, args.out)
    return 0


def _cmd_pushout(args, cfg: RunConfig) -> int:
    pts = _load_points(args.points)
    grid = CubicalGrid(args.n, _parse_number(args.grid_R, "--grid-R"))
    floor = _parse_number(args.floor, "--floor")
    if floor < 0:
        raise InputError(f"--floor must be >= 0, got {args.floor!r}")
    trace = skeleton_descend(pts, grid, _parse_m(args.m), candidates=cfg.pushout_candidates,
                             floor=floor)
    report = {"command": "pushout", "trace": trace.to_dict()}
    if args.emit_plot:
        rows = [
            (k, step.face.dim, float(step.ratio), float(step.cone_cost), step.moved)
            for k, steps in trace.levels
            for step in steps
        ]
        _write_csv(args.emit_plot, ("level", "face_dim", "ratio", "cone_cost", "moved"), rows)
    _emit(report, args.out)
    return 0


def _cmd_lw_check(args, cfg: RunConfig) -> int:
    space = load_space(args.space)
    report = loomis_whitney_check(space, node_budget=cfg.node_budget)
    _emit({"command": "lw-check", "report": report}, args.out)
    return 0


def _cmd_cube_eq(args, cfg: RunConfig) -> int:
    report = cube_equality_check(args.n, _parse_number(args.delta, "--delta"))
    _emit({"command": "cube-eq", "report": report}, args.out)
    return 0


def _cmd_width(args, cfg: RunConfig) -> int:
    space = load_space(args.space)
    budget = {} if args.budget is None else {"budget": args.budget}
    result = width_bound(space, _parse_m(args.m), node_budget=cfg.node_budget, **budget)
    _emit({"command": "width", "result": result.to_dict()}, args.out)
    return 0


def _cmd_corpus(args, cfg: RunConfig) -> int:
    import os

    if not os.path.isdir(args.dir):
        raise InputError(f"fixture directory not found: {args.dir}")
    paths = sorted(
        os.path.join(args.dir, f) for f in os.listdir(args.dir)
        if f.endswith(".json")
    )
    rows = []
    failures = 0
    for path in paths:
        try:
            space = load_space(path)
        except InputError as exc:
            raise InputError(f"{path}: {exc}")
        row = {"fixture": os.path.basename(path)}
        if not isinstance(space, VoxelSpace):  # every suite is voxel-only
            row["skipped"] = "net fixture"
            rows.append(row)
            continue
        try:
            if args.suite == "invariants":
                row.update(_suite_invariants(space, cfg))
            elif args.suite == "decompose":
                d = decompose(space, None, 2, node_budget=cfg.node_budget)
                row.update({"alpha": d.alpha, "balls": len(d.balls), "ok": d.ok()})
            elif args.suite == "width":
                w = width_bound(space, 2, node_budget=cfg.node_budget)
                row.update({
                    "bound": fmt_scalar(w.bound),
                    "c_measured": w.c_measured,
                    "ok": True,
                })
            elif args.suite == "lw":
                rep = loomis_whitney_check(space, node_budget=cfg.node_budget)
                row.update({"N": rep["N"], "ok": rep["ok"]})
            else:
                raise InputError(f"unknown suite {args.suite!r}")
        except VerificationError as exc:
            row.update({"ok": False, "error": str(exc)})
            failures += 1
        rows.append(row)
    report = {
        "command": "corpus",
        "suite": args.suite,
        "fixtures": len(rows),
        "failures": failures,
        "rows": rows,
    }
    for key in ("alpha", "c_measured"):
        values = [r[key] for r in rows if key in r]
        if values:
            report[f"{key}_summary"] = {
                "min": min(values),
                "max": max(values),
                "mean": sum(values) / len(values),
            }
    _emit(report, args.out)
    return 2 if failures else 0


def _suite_invariants(space, cfg: RunConfig) -> dict:
    """Each check reads the side of the content brackets that decides it.
    HC_1^2 >= HC_2 holds when upper(HC_2) <= lower(HC_1)^2 and fails when
    lower(HC_2) > upper(HC_1)^2; between the two it is undecided (null),
    named under "undecided", and the row is not ok without failing."""
    from .space import space_diameter, space_radius

    checks = {}
    res = {}
    for m in (1, 2):
        res[m] = exact_content(space, None, m, node_budget=cfg.node_budget)
        rad = space_radius(space)
        diam = space_diameter(space)
        checks[f"content_le_radius_pow_{m}"] = res[m].value_upper <= rad**m
        checks[f"radius_le_diameter_pow_{m}"] = rad**m <= diam**m
    if res[2].value_upper <= res[1].value_lower ** 2:
        checks["dimension_comparison"] = True
    elif res[2].value_lower > res[1].value_upper ** 2:
        checks["dimension_comparison"] = False
    else:
        checks["dimension_comparison"] = None
    if False in checks.values():
        raise VerificationError("invariant suite failed", checks)
    undecided = [name for name, held in checks.items() if held is None]
    row = {"checks": checks, "ok": not undecided}
    if undecided:
        row["undecided"] = undecided
    return row


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hcfill",
        description="Hausdorff-content solvers, filling certificates and "
                    "width bounds on finite metric models",
    )
    parser.add_argument("--config", help="path to a RunConfig JSON file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("content", help="content of a space under a ball family")
    p.add_argument("--space", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--family", default="all-grid",
                   choices=("all-grid", "fixed", "centers-in"))
    p.add_argument("--family-file", help="balls/centers JSON for fixed/centers-in")
    p.add_argument("--radius-cap")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_content)

    p = sub.add_parser("coarea", help="slice a covered set through a function")
    p.add_argument("--space", required=True)
    p.add_argument("--f", dest="function", required=True,
                   help="dist:x,y | dist-set:cells.json | values:vals.json")
    p.add_argument("--cover", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--range", help="lo:hi")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_coarea)

    p = sub.add_parser("cone", help="cone covering certificate")
    p.add_argument("--cover", required=True)
    p.add_argument("--apex", required=True)
    p.add_argument("--R", dest="radius", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--variant", default="standard",
                   choices=("standard", "improved"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("decompose", help="disjoint-ball decomposition")
    p.add_argument("--space", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--eps")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("fill", help="full filling certificate")
    p.add_argument("--space", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--eps")
    p.add_argument("--report", help="write the certificate JSON here as well")
    p.add_argument("--emit-plot", help="write (step, content, displacement) CSV")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fill)

    p = sub.add_parser("pushout", help="skeleton descent of a point set")
    p.add_argument("--points", required=True)
    p.add_argument("--grid-R", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--floor", default="0",
                   help="least radius of the point covers whose content is accounted")
    p.add_argument("--emit-plot")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pushout)

    p = sub.add_parser("lw-check", help="projection-count isoperimetric check")
    p.add_argument("--space", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lw_check)

    p = sub.add_parser("cube-eq", help="coordinate-cube equality case")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", default="1/8")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cube_eq)

    p = sub.add_parser("width", help="nerve-based width upper bound")
    p.add_argument("--space", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("corpus", help="run a suite over a fixture directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--suite", default="invariants",
                   choices=("invariants", "decompose", "width", "lw"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        return args.func(args, cfg)
    except VerificationError as exc:
        payload = {
            "schema": SCHEMA,
            "error": "verification-failure",
            "message": str(exc),
            "counterexample": exc.report,
        }
        print(json.dumps(payload, sort_keys=True, indent=2, default=fmt_scalar),
              file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
