"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line and asserting at its stated tolerance (exact field equality
unless noted).

Criteria 3 and 4 check the periods of the golden-case pentagon centers
P_n = r^n(P0):

  * criterion 3 pins P0..P6 to [1, 7, 38, 232, 1388, 8332, 49988].  The
    published table reads 1338 for P4, a digit typo: the first
    coefficient-exact return of P4 is at 1388 and its orbit never touches
    the line.  ``tests/test_casestudy.py::TestPentagonCenters::
    test_p4_field_level_return`` confirms this along a separate path (the
    field-level ``dynamics.step``, not the integer stepper kernel), and
    shows F^1338(P4) != P4.  1338 also breaks the table's own recurrence
    period(P_{n+1}) = 6*period(P_n) + 4*(-1)^n, which 1388 satisfies;
  * criterion 4 asserts that recurrence exactly for n = 1..8, and
    |period(P_{n+1})/period(P_n) - 6| < 0.001 for n = 5..8.  The recurrence
    gives |ratio - 6| = 4/period(P_n), which is below 0.001 only once
    period(P_n) > 4000, so the ratio bound starts at n = 5 (the n = 4 ratio
    is 8332/1388 = 6.0029); n = 4 is covered by the exact recurrence.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; set PWROT_LONG=1 to include the extended period-table run.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from pwrot import stepper
from pwrot.casestudy import (
    golden_context,
    golden_rescale,
    hexagon_case,
    hexagon_context,
    pentagon_centers,
    q_orbit_returns,
)
from pwrot.critical import critical_bundle
from pwrot.cyclo import golden_coords, make_field
from pwrot.dynamics import inverse_step, minimal_period, orbit, step
from pwrot.geometry import (
    Box,
    Location,
    point_on_segment,
    polygon_contains,
    polygon_is_regular,
)
from pwrot.stepper import run_signs
from pwrot.tiles import (
    interior_samples,
    scan_region,
    slope_census,
    tile_from_seed,
    tile_images,
)


def conclude(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared expensive data ---------------------------------------------------------


@pytest.fixture(scope="session")
def gc():
    return golden_context()


@pytest.fixture(scope="session")
def pentagon_periods(gc):
    """Minimal periods of P0..P9 with timings for the two table criteria."""
    centers = pentagon_centers(gc, 9)
    t0 = time.perf_counter()
    first = [minimal_period(p, 100000).period for p in centers[:7]]
    elapsed_first = time.perf_counter() - t0
    t0 = time.perf_counter()
    rest = [minimal_period(p, 11_000_000).period for p in centers[7:]]
    elapsed_rest = time.perf_counter() - t0
    return first + rest, elapsed_first, elapsed_rest


SCANS = {
    "4/5": ((4, 5), Box(-3, -3, 3, 3), Fraction(1, 2), 3000),
    "11/12": ((11, 12), Box(-1, -1, 3, 2), Fraction(1, 4), 1000),
    "3/7": ((3, 7), Box(-2, -2, 2, 2), Fraction(1, 3), 3000),
}

VERTEX_DEPTH_CAP = 24  # tiles whose boundary reaches the line within this many steps


def _vertex_hit_depths(tile, cap=VERTEX_DEPTH_CAP):
    depths = []
    for v in tile.polygon.vertices:
        w = v
        hit = None
        for j in range(cap + 1):
            if w.imag().is_zero():
                hit = j
                break
            w = step(w)
        if hit is None:
            return None
        depths.append(hit)
    return depths


@pytest.fixture(scope="session")
def discovered():
    """Scan-discovered tiles per rotation, with the boundary-depth subset
    shared by criteria 6 and 8."""
    out = {}
    for label, ((p, q), box, grid, budget) in SCANS.items():
        ctx = make_field(p, q)
        report = scan_region(ctx, box, grid, budget, max_tile_period=2000)
        all_tiles = report.tile_list
        selected = []
        for tile in all_tiles:
            depths = _vertex_hit_depths(tile)
            if depths is not None:
                selected.append((tile, depths))
        out[label] = {"ctx": ctx, "all": all_tiles, "selected": selected}
    return out


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_exact_iterates(gc):
    t0 = time.perf_counter()
    pts = orbit(gc.Q, 10)
    expected = [
        (0, -1, 0, 0),
        (0, Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)),
        (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (1, 1, 0, 0),
        (Fraction(1, 2), 0, 0, Fraction(-1, 2)),
        (-1, 0, -1, 0),
        (-1, Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)),
        (0, Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)),
        (0, 0, 1, 0),
        (Fraction(3, 2), 0, 0, Fraction(1, 2)),
        (0, 1, 0, 0),
    ]
    ok = True
    for w, coords in zip(pts, expected):
        got = golden_coords(w)
        if got != tuple(Fraction(c) for c in coords):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    conclude(
        1,
        ok and elapsed < 1.0,
        f"first 10 iterates of Q exact in the phi basis ({elapsed:.3f}s < 1s)",
    )


def test_criterion_02_return_indices(gc):
    t0 = time.perf_counter()
    rets = q_orbit_returns(gc, 220)
    expected = [
        (0, (0, -1)), (3, (1, 1)), (10, (0, 1)), (15, (-2, 1)), (38, (-3, 1)),
        (48, (-3, 3)), (53, (-5, 3)), (78, (-7, 5)), (83, (-9, 5)),
        (93, (-9, 7)), (220, (-10, 7)),
    ]
    got = [(idx, pair) for idx, _, pair in rets]
    want = [(i, (Fraction(a), Fraction(b))) for i, (a, b) in expected]
    elapsed = time.perf_counter() - t0
    conclude(
        2,
        got == want and elapsed < 1.0,
        f"11 line returns in 220 steps with exact Z[phi] values ({elapsed:.3f}s < 1s)",
    )


PINNED_PERIODS_FIRST = [1, 7, 38, 232, 1388, 8332, 49988]
PINNED_PERIODS_REST = [299932, 1799588, 10797532]


def test_criterion_03_period_table(pentagon_periods):
    periods, elapsed_first, _ = pentagon_periods
    ok = periods[:7] == PINNED_PERIODS_FIRST and elapsed_first < 30.0
    detail = (
        f"P0..P6 periods {periods[:7]} vs pinned {PINNED_PERIODS_FIRST} "
        f"({elapsed_first:.2f}s < 30s)"
    )
    mismatches = [
        n for n, (got, want) in enumerate(zip(periods, PINNED_PERIODS_FIRST)) if got != want
    ]
    if mismatches:
        n = mismatches[0]
        detail += (
            f"; first mismatch at P{n}: pinned {PINNED_PERIODS_FIRST[n]}, "
            f"computed {periods[n]}"
        )
    conclude(3, ok, detail)


@pytest.mark.long
def test_criterion_03_extended_period_table(pentagon_periods):
    periods, _, elapsed_rest = pentagon_periods
    ok = periods[7:] == PINNED_PERIODS_REST and elapsed_rest < 600.0
    conclude(
        3,
        ok,
        f"extended: P7..P9 periods {periods[7:]} vs pinned {PINNED_PERIODS_REST} "
        f"({elapsed_rest:.2f}s < 600s)",
    )


def test_criterion_04_ratio_property(pentagon_periods):
    periods, _, _ = pentagon_periods
    off_recurrence = [
        n for n in range(1, 9) if periods[n + 1] != 6 * periods[n] + 4 * (-1) ** n
    ]
    ratios = {n: periods[n + 1] / periods[n] for n in range(5, 9)}
    bad = {n: r for n, r in ratios.items() if abs(r - 6) >= 0.001}
    detail = (
        "period(P_{n+1}) = 6*period(P_n) + 4*(-1)^n checked exactly for n=1..8; ratios "
        + ", ".join(f"n={n}: {r:.6f}" for n, r in sorted(ratios.items()))
    )
    if off_recurrence:
        detail += f"; recurrence fails at n={off_recurrence}"
    if bad:
        detail += f"; |ratio - 6| < 0.001 fails at n={sorted(bad)}"
    conclude(4, not off_recurrence and not bad, detail)


def test_criterion_05_hexagon_case():
    t0 = time.perf_counter()
    report = hexagon_case(budget=100)
    hc = hexagon_context()
    tile = tile_from_seed(hc.center, 100)
    vertex_match = tile.polygon.key() == hc.hexagon.key()
    elapsed = time.perf_counter() - t0
    ok = report.passed and vertex_match and elapsed < 5.0
    conclude(
        5,
        ok,
        f"20-periodic center, exact six-vertex match, irregular, 20 distinct "
        f"images closing up, none meeting the line ({elapsed:.2f}s < 5s); "
        f"failures: {report.failures()}",
    )


def test_criterion_06_permutation_rotation_structure(discovered):
    checked = 0
    problems = []
    for label, data in discovered.items():
        ctx = data["ctx"]
        q = ctx.q
        for tile, _ in data["selected"]:
            ell, k = tile.ell, tile.k
            if k != q // math.gcd(ell, q) and tile.rotational:
                problems.append(f"{label}: k mismatch for ell={ell}")
                continue
            # multiplicative order of the block rotation
            u = ctx.lam_pow(ell % q)
            power = ctx.one()
            order = None
            for j in range(1, q + 1):
                power = power * u
                if power == 1:
                    order = j
                    break
            if order != k:
                problems.append(f"{label}: lambda^{ell} has order {order}, tile says {k}")
                continue
            rec = minimal_period(tile.center, k * ell + 1)
            if rec.period != ell:
                problems.append(f"{label}: center period {rec.period} != ell {ell}")
                continue
            expected = k * ell
            sample_ok = True
            for sample in interior_samples(tile, 5, seed=17):
                rec = minimal_period(sample, expected + 1)
                if rec.period != expected or rec.iterates_on_line:
                    sample_ok = False
                    break
            if not sample_ok:
                problems.append(f"{label}: interior sample period != k*ell={expected}")
                continue
            images, block_map = tile_images(tile)
            keys = {img.key() for img in images}
            from pwrot.geometry import apply_affine

            back = apply_affine(tile.polygon, block_map)
            if len(keys) != ell or back.key() != tile.polygon.key():
                problems.append(f"{label}: image cycle broken for ell={ell}")
                continue
            checked += 1
    conclude(
        6,
        checked >= 25 and not problems,
        f"{checked} scan-discovered tiles across three rotations verified "
        f"(center period ell, order k, 5 interior samples at k*ell, ell distinct "
        f"images with exact return); problems: {problems}",
    )


def test_criterion_07_geometry_bounds(discovered):
    checked = 0
    problems = []
    for label, data in discovered.items():
        ctx = data["ctx"]
        q = ctx.q
        side_bound = q if q % 2 == 0 else 2 * q
        for tile in data["all"]:
            if tile.sides > side_bound:
                problems.append(f"{label}: {tile.sides} sides > {side_bound}")
            try:
                census = slope_census(tile)
            except Exception as err:
                problems.append(f"{label}: slope census failed: {err}")
                continue
            if len(census) > (q // 2 if q % 2 == 0 else q):
                problems.append(f"{label}: {len(census)} slope classes")
            if math.gcd(tile.ell, q) == 1:
                regular = polygon_is_regular(tile.polygon)
                if not ((tile.sides == q and regular) or (q % 2 == 1 and tile.sides == 2 * q)):
                    problems.append(
                        f"{label}: dichotomy fails (ell={tile.ell}, sides={tile.sides}, "
                        f"regular={regular})"
                    )
            checked += 1
    conclude(
        7,
        checked > 0 and not problems,
        f"{checked} discovered tiles within side/slope bounds and coprime dichotomy; "
        f"problems: {problems}",
    )


def test_criterion_08_critical_set_soundness(discovered):
    problems = []
    rng = random.Random(2024)
    # depth-10 bundles at two rotations: exact midpoint soundness + slopes
    for (p, q), box in [((4, 5), Box(-4, -4, 4, 4)), ((11, 12), Box(-1, -2, 6, 3))]:
        ctx = make_field(p, q)
        bundle = critical_bundle(ctx, 10, box)
        segs = bundle.all_segments()
        census = set()
        for seg in segs:
            from pwrot.geometry import edge_direction_power

            t = edge_direction_power(ctx, seg.b - seg.a)
            if t is None:
                problems.append(f"{p}/{q}: segment off the slope grid")
                continue
            census.add(t % (q // 2) if q % 2 == 0 else t)
            w = seg.midpoint()
            for _ in range(seg.depth):
                w = step(w)
            if not w.imag().is_zero():
                problems.append(f"{p}/{q}: depth-{seg.depth} midpoint misses the line")
        for _ in range(500):
            seg = segs[rng.randrange(len(segs))]
            w = seg.midpoint()
            for _ in range(seg.depth):
                w = step(w)
            if not w.imag().is_zero():
                problems.append(f"{p}/{q}: random draw midpoint misses the line")
                break
        bound = q // 2 if q % 2 == 0 else q
        if len(census) > bound:
            problems.append(f"{p}/{q}: slope census {len(census)} > {bound}")

    # every vertex of every criterion-6 tile lies exactly on a segment of a
    # sufficiently deep bundle (depth = that vertex's first line hit)
    for label, data in discovered.items():
        ctx = data["ctx"]
        if not data["selected"]:
            continue
        xs, ys, need = [], [], 0
        for tile, depths in data["selected"]:
            need = max(need, max(depths))
            for v in tile.polygon.vertices:
                c = v.to_complex()
                xs.append(c.real)
                ys.append(c.imag)
        box = Box(
            Fraction(math.floor(min(xs) - 1)),
            Fraction(math.floor(min(ys) - 1)),
            Fraction(math.ceil(max(xs) + 1)),
            Fraction(math.ceil(max(ys) + 1)),
        )
        bundle = critical_bundle(ctx, need, box)
        by_depth = {}
        for seg in bundle.all_segments():
            by_depth.setdefault(seg.depth, []).append(seg)
        for tile, depths in data["selected"]:
            for v, d in zip(tile.polygon.vertices, depths):
                if not any(point_on_segment(s, v) for s in by_depth.get(d, [])):
                    problems.append(f"{label}: vertex misses its depth-{d} layer")
    conclude(
        8,
        not problems,
        f"midpoint line-returns exact, slope census bounded, all criterion-6 tile "
        f"vertices on their layers; problems: {problems[:4]}",
    )


def test_criterion_09_field_round_trips():
    rng = random.Random(99)
    contexts = [make_field(4, 5), make_field(11, 12), make_field(3, 7)]
    total = 0
    problems = []
    while total < 10000 and not problems:
        ctx = contexts[total % 3]
        den = rng.randint(1, 9)
        z1 = ctx.point(Fraction(rng.randint(-40, 40), den), Fraction(rng.randint(-40, 40), den))
        if inverse_step(step(z1)) != z1 or step(inverse_step(z1)) != z1:
            problems.append("round trip failed")
            break
        y = rng.randint(1, 40) * rng.choice([1, -1])
        z2 = ctx.point(Fraction(rng.randint(-40, 40), den), Fraction(y, den))
        z3 = ctx.point(Fraction(rng.randint(-40, 40), den), Fraction(y + (1 if y > 0 else -1), den))
        if (step(z2) - step(z3)).squared_abs() != (z2 - z3).squared_abs():
            problems.append("branch isometry failed")
            break
        a = ctx.num([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ctx.d)])
        b = ctx.num([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ctx.d)])
        if (a + b).conj() != a.conj() + b.conj() or (a * b).conj() != a.conj() * b.conj():
            problems.append("conjugation homomorphism failed")
            break
        total += 3  # the three planar points drawn this round
    conclude(
        9,
        total >= 10000 and not problems,
        f"{total} randomized points through round-trip, branch-isometry, and "
        f"conjugation homomorphism checks, all coefficient-exact; problems: {problems}",
    )


def test_criterion_10_renormalization_geometry(gc):
    problems = []
    if golden_rescale(gc, gc.Q) != gc.Q:
        problems.append("r(Q) != Q")
    rng = random.Random(10)
    ratio2 = gc.r_scale * gc.r_scale
    for _ in range(200):
        z1 = gc.ctx.point(Fraction(rng.randint(-30, 30), 7), Fraction(rng.randint(-30, 30), 7))
        z2 = gc.ctx.point(Fraction(rng.randint(-30, 30), 7), Fraction(rng.randint(-30, 30), 7))
        lhs = (golden_rescale(gc, z1) - golden_rescale(gc, z2)).squared_abs()
        if lhs != ratio2 * (z1 - z2).squared_abs():
            problems.append("contraction ratio violated")
            break

    tri = gc.triangle()
    src = critical_bundle(gc.ctx, 12, Box(-2, Fraction(-1, 2), 3, 7))
    inside = [
        s
        for s in src.all_segments()
        if s.depth > 0
        and polygon_contains(tri, s.a) != Location.EXTERIOR
        and polygon_contains(tri, s.b) != Location.EXTERIOR
    ]

    def hit_depth(z, limit=80):
        _, zero_idx, _ = run_signs(z, limit, stop_on_zero=True)
        return zero_idx

    curated = []
    max_hit = 0
    for seg in inside:
        ha = hit_depth(golden_rescale(gc, seg.a))
        hb = hit_depth(golden_rescale(gc, seg.b))
        if ha is not None and hb is not None:
            curated.append(seg)
            max_hit = max(max_hit, ha, hb)
    if len(curated) < 20:
        problems.append(f"only {len(curated)} curated segments")
    else:
        deep = critical_bundle(
            gc.ctx, max(40, max_hit), Box(-2, Fraction(-7, 10), 0, Fraction(9, 5))
        )
        dsegs = deep.all_segments()
        for seg in curated[:max(20, len(curated))]:
            for endpoint in (seg.a, seg.b):
                img = golden_rescale(gc, endpoint)
                if not any(point_on_segment(s, img) for s in dsegs):
                    problems.append("curated endpoint image misses every deep segment")
                    break
    conclude(
        10,
        not problems,
        f"r fixes Q, exact contraction ratio on 200 pairs, {len(curated)} curated "
        f"segments with both rescaled endpoints exactly on deep layers; "
        f"problems: {problems}",
    )
