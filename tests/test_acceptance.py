"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured values.  Tolerances are pinned here, not configured elsewhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured-constant summaries.
"""

import random
import time
from fractions import Fraction

from hcfill.cli import main as cli_main
from hcfill.coarea import DistanceToPoint, coarea_integral, slice_profile
from hcfill.cone import cone_coverage_check, cone_covering
from hcfill.content import exact_content, greedy_content, volume_lower_bound
from hcfill.decomposition import Constants, decompose, fill, improvement_sequence
from hcfill.errors import DecompositionViolation
from hcfill.pushout import (
    CubicalGrid,
    cube_equality_check,
    loomis_whitney_check,
    skeleton_descend,
)
from hcfill.shapes import (
    make_box,
    make_cube,
    make_dumbbell,
    make_l_hexomino,
    make_ring,
    make_strip_with_bulbs,
    random_blob,
    scale_replicate,
)
from hcfill.space import (
    AllGridBalls,
    Ball,
    Covering,
    linf,
    save_space,
    space_diameter,
    space_radius,
)
from hcfill.width import fiber_bound, nerve, width_bound


def report(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------
# criterion 1: exact cube contents

def test_criterion_1_cube_content():
    for n in (2, 3):
        s = make_cube(n, 8, Fraction(1, 8))
        for m in range(1, n + 1):
            t0 = time.time()
            res = exact_content(s, None, m)
            elapsed = time.time() - t0
            assert res.optimal
            assert res.value == Fraction(1, 2**m)
            assert volume_lower_bound(s, None, m) == Fraction(1, 2**m)
            assert elapsed < 10.0
    report("PASS criterion 1: cube contents exactly 2^-m (n=2,3; m=1..n), "
           "volume bound matches, each instance < 10 s")


# ---------------------------------------------------------------------------
# criterion 2: basic-property suite

def test_criterion_2_basic_properties():
    t0 = time.time()
    rng = random.Random(2024)
    violations = 0
    fixtures = 0
    for seed in range(200):
        n = 3 if seed % 10 == 9 else 2
        s = random_blob(
            seed, n=n,
            max_cells=6 if n == 3 else 8,
            box=4 if n == 3 else 5,
            delta=Fraction(1, 8),
        )
        fixtures += 1
        v1 = exact_content(s, None, 1).value
        v2 = exact_content(s, None, 2).value

        cells = s.sorted_cells()
        cut = rng.randrange(1, len(cells)) if len(cells) > 1 else 1
        a, b = frozenset(cells[:cut]), frozenset(cells[cut:]) or frozenset(cells[:1])
        va = exact_content(s, a, 1).value
        vb = exact_content(s, b, 1).value
        if not exact_content(s, a | b, 1).value <= va + vb:
            violations += 1  # subadditivity
        if not va <= v1:
            violations += 1  # monotonicity

        rad, diam = space_radius(s), space_diameter(s)
        for m, v in ((1, v1), (2, v2)):
            if not v <= rad**m <= diam**m:
                violations += 1
        if not v1**2 >= v2:
            violations += 1  # dimension comparison, cross-powered

        lam = 2 if seed % 2 == 0 else 3
        scaled = scale_replicate(s, lam)
        sv = exact_content(scaled, None, 2, AllGridBalls(stride=lam)).value
        if sv != lam**2 * v2:
            violations += 1  # rescaling with the rescaled family

    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 300.0
    report(f"PASS criterion 2: {fixtures} fixtures, 0 violations, "
           f"{elapsed:.1f} s (< 300 s)")


# ---------------------------------------------------------------------------
# criterion 3: coarea inequalities

def test_criterion_3_coarea():
    rng = random.Random(33)
    violations = 0
    for trial in range(200):
        s = random_blob(trial + 1000, 2, rng.randrange(4, 10), 5)
        cover = greedy_content(s, None, 2).witness
        anchor = rng.choice(s.sorted_cells())
        f = DistanceToPoint(s.cell_center(anchor))
        profile = slice_profile(s, s.cells, f, cover)
        for ball, interval in zip(cover.balls, profile.intervals):
            if interval is not None and interval[1] - interval[0] > 2 * ball.radius:
                violations += 1
        if coarea_integral(profile, 2) > 2 * cover.cost:
            violations += 1
    assert violations == 0
    report("PASS criterion 3: 200 random (space, cover, distance) triples, "
           "per-ball width <= 2*Lip*r and integral <= 2*Lip*cost, 0 violations")


# ---------------------------------------------------------------------------
# criterion 4: cone bounds + coverage

def test_criterion_4_cone():
    rng = random.Random(44)
    for _ in range(100):
        n = rng.choice((2, 3))
        apex = tuple(Fraction(0) for _ in range(n))
        balls = []
        for _ in range(rng.randrange(1, 4)):
            r = Fraction(rng.randrange(1, 8), 32)
            center = tuple(Fraction(rng.randrange(-12, 12), 32) for _ in range(n))
            balls.append(Ball(center, r))
        R = max(linf(b.center, apex) + b.radius for b in balls)
        cover = Covering(tuple(balls), frozenset(), 1)
        m = rng.choice((2, Fraction(5, 2), 3))
        mf = Fraction(m)
        std = cone_covering(cover, apex, R, m, "standard")
        imp = cone_covering(cover, apex, R, m, "improved")
        factor = (1 + 1 / mf) ** mf if mf.denominator == 1 else \
            (1 + 1 / float(mf)) ** float(mf)
        assert float(std.cost) <= float(mf) * float(factor) * float(R) \
            * float(std.input_cost) + 1e-9
        assert float(imp.cost) <= 2 * float(factor) * float(R) \
            * float(imp.input_cost) + 1e-9
        assert imp.cost <= std.cost
        for cert in (std, imp):
            assert cone_coverage_check(cert, cover)["uncovered"] == []
    report("PASS criterion 4: 100 random cone certificates within both "
           "variant bounds; both variants prove coverage exactly")


# ---------------------------------------------------------------------------
# criterion 5: decompositions

def test_criterion_5_decomposition():
    from hcfill.decomposition import verify_decomposition

    alphas = []
    violations = 0
    for seed in range(50):
        s = random_blob(seed + 5000, 2, 4 + seed % 6, 5)
        for m in (2, Fraction(5, 2), 3):
            try:
                d = decompose(s, None, m)
            except DecompositionViolation:
                violations += 1
                continue
            assert 1 / 12 < d.alpha <= 1 + 1e-9
            if seed % 10 == 0:  # independent re-check on a sample
                assert verify_decomposition(s, s.cells, d)["ok"]
            alphas.append(d.alpha)
    assert violations == 0
    lo, hi = min(alphas), max(alphas)
    mean = sum(alphas) / len(alphas)
    report(f"PASS criterion 5: 150 decompositions (50 sets x m in {{2, 2.5, 3}}), "
           f"0 violations, independent re-checks ok; alpha in "
           f"[{lo:.3f}, {hi:.3f}], mean {mean:.3f}")


# ---------------------------------------------------------------------------
# criterion 6: improvement decay

def test_criterion_6_improvement_decay():
    violations = 0
    fixtures = [random_blob(seed + 600, 2, 5 + seed % 5, 5) for seed in range(17)]
    fixtures += [make_cube(2, 8, Fraction(1, 8)), make_ring(8, Fraction(1, 8)),
                 make_dumbbell(3, 4)]
    for s in fixtures:
        seq = improvement_sequence(s, None, 2, max_steps=5)
        c = seq.steps[0].decomposition.constants if seq.steps else \
            Constants.for_exponent(2)
        hc = float(seq.initial_content)
        for k, step in enumerate(seq.steps, start=1):
            if float(step.content_after) > c.decay * float(seq.contents[k - 1]) \
                    + step.eps + 1e-12:
                violations += 1
        bound = 10 * 2 * 12**2 * c.ball_scale * hc**0.5 + seq.eps
        if seq.max_total_displacement > bound + 1e-12:
            violations += 1
    assert violations == 0
    report(f"PASS criterion 6: {len(fixtures)} fixtures, K=5: per-step ratio "
           "<= 1 - 1/(2*12^m) + slack and cumulative displacement <= "
           "10*m*12^m*A(m)*HC^(1/m) + eps, 0 violations")


# ---------------------------------------------------------------------------
# criterion 7: the filling pipeline

def test_criterion_7_pipeline():
    fixtures = {
        "ring16": make_ring(16, Fraction(1, 16)),
        "square8": make_cube(2, 8, Fraction(1, 8)),
        "dumbbell": make_dumbbell(),
        "blob": random_blob(77, 2, 40, 10, Fraction(1, 8)),
        "box3d": make_cube(3, 3, Fraction(1, 4)),
        "box4d": make_cube(4, 2, Fraction(1, 2)),
    }
    i1_next = Constants.for_exponent(3).filling_constant
    i2 = Constants.for_exponent(2).radius_constant
    lines = []
    for name, s in fixtures.items():
        assert len(s.cells) <= 5000 and s.n <= 4
        t0 = time.time()
        cert = fill(s, None, 2)
        elapsed = time.time() - t0
        assert elapsed < 600.0
        hc = float(cert.base_content)
        eps = cert.sequence.eps
        assert cert.trace_total <= i1_next * hc**1.5 + eps
        assert cert.filling_radius <= i2 * hc**0.5 + eps
        measured = cert.to_dict()["measured"]
        lines.append(
            f"  {name}: trace/HC^1.5 = {measured['trace_over_content_power']:.2f}"
            f" (allowed {i1_next:.0f}); radius/HC^0.5 = "
            f"{measured['radius_over_content_root']:.2f} (allowed {i2:.0f})"
        )
    report("PASS criterion 7: fill certificates within both final bounds "
           "with enormous margin; measured ratios:")
    for line in lines:
        report(line)


# ---------------------------------------------------------------------------
# criterion 8: projection counts and the cube equality

def test_criterion_8_loomis_whitney():
    shapes = [
        make_cube(2, 1, Fraction(1, 4)),
        make_box(2, (3, 5), Fraction(1, 8)),
        make_l_hexomino(),
        make_dumbbell(),
        make_ring(9, Fraction(1, 16)),
        make_cube(3, 3, Fraction(1, 4)),
    ]
    # adversarial: diagonal staircase and a plus sign
    stairs = frozenset((i, i) for i in range(6)) | frozenset((i + 1, i) for i in range(5))
    shapes.append(make_box(2, (1, 1)).__class__(2, Fraction(1, 8), stairs))
    plus = frozenset({(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)})
    shapes.append(make_box(2, (1, 1)).__class__(2, Fraction(1, 8), plus))
    for seed in range(10):
        shapes.append(random_blob(seed + 800, 2, 10, 6))
        shapes.append(random_blob(seed + 900, 3, 8, 4, Fraction(1, 4)))
    for s in shapes:
        rep = loomis_whitney_check(s)
        prod = 1
        for c in rep["N_j"]:
            prod *= c
        assert rep["N"] ** (s.n - 1) <= prod
        assert rep["ok"]
    for n in (2, 3):
        assert cube_equality_check(n)["ok"]
    report(f"PASS criterion 8: projection-count inequality exact on "
           f"{len(shapes)} shapes incl. adversarial; cube equality exact for n=2,3")


# ---------------------------------------------------------------------------
# criterion 9: pushout traces

def test_criterion_9_pushout():
    rng = random.Random(99)
    ratios = []
    for trial in range(30):
        n = 2 if trial % 3 else 3
        m = 2 if n == 2 else rng.choice((2, 3))
        grid = CubicalGrid(n, Fraction(1))
        pts = []
        for _ in range(rng.randrange(2, 5)):
            pts.append(tuple(Fraction(rng.randrange(0, 33), 16) for _ in range(n)))
        pts = list(dict.fromkeys(pts))
        trace = skeleton_descend(pts, grid, m, candidates=16,
                                 floor=Fraction(1, 256))
        assert trace.checks["boundary_points_fixed"]
        assert trace.checks["final_in_skeleton"]
        levels = n - (m - 1) + 1
        assert trace.max_displacement <= levels * grid.R
        measured = trace.checks["trace_vs_input"]["measured_const"]
        assert measured <= 10 * 2**n  # ratio ceiling at the top level
        for _, steps in trace.levels:
            ratios.extend(step.ratio for step in steps)
    if ratios:
        report(f"PASS criterion 9: 30 traces satisfy boundary fixity, skeleton "
               f"membership and displacement exactly; projection ratios in "
               f"[{min(ratios):.2f}, {max(ratios):.2f}]")
    else:
        report("PASS criterion 9: 30 traces, all points already low-dimensional")


# ---------------------------------------------------------------------------
# criterion 10: width certificates

def test_criterion_10_width():
    fixtures = [make_dumbbell(), make_ring(8, Fraction(1, 8)),
                random_blob(123, 2, 12, 6)]
    for s in fixtures:
        w = width_bound(s, 2, budget=80, seed=0)
        nv = nerve(w.covering, s)
        assert nv.dimension <= 1
        assert fiber_bound(nv) == w.bound

    s = make_strip_with_bulbs()
    w = width_bound(s, 2, budget=150, seed=0)
    nv = nerve(w.covering, s)
    assert nv.dimension <= 1
    assert fiber_bound(nv) == w.bound
    diam = float(space_diameter(s))
    assert float(w.bound) * 4 <= diam
    report(f"PASS criterion 10: certificates re-verify; long-body fixture "
           f"UW_1 bound {float(w.bound):.4f} vs diameter {diam:.2f} "
           f"({diam / float(w.bound):.1f}x margin, >= 4x), c_measured = "
           f"{w.c_measured:.3f}")


# ---------------------------------------------------------------------------
# criterion 11: determinism

def test_criterion_11_determinism(tmp_path):
    ring = tmp_path / "ring.json"
    save_space(make_ring(8, Fraction(1, 8)), str(ring))
    dumb = tmp_path / "dumb.json"
    save_space(make_dumbbell(), str(dumb))
    jobs = [
        ("content", "--space", str(ring), "--m", "2", "--exact"),
        ("decompose", "--space", str(ring), "--m", "2"),
        ("fill", "--space", str(ring), "--m", "2"),
        ("width", "--space", str(dumb), "--m", "2", "--budget", "60"),
        ("lw-check", "--space", str(dumb)),
        ("cube-eq", "--n", "2"),
    ]
    for job in jobs:
        outs = []
        for run in (0, 1):
            out = tmp_path / f"{job[0]}-{run}.json"
            code = cli_main([*job, "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{job[0]} report not byte-identical"
    report("PASS criterion 11: byte-identical reports across reruns for "
           "content, decompose, fill, width, lw-check, cube-eq")
