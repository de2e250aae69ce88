import importlib.util
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from pwrot import geometry, stepper
from pwrot import tiles as tiles_module
from pwrot.casestudy import golden_context, golden_rescale, hexagon_context, pentagon_centers
from pwrot.cyclo import make_field
from pwrot.dynamics import (
    AffineMap,
    branch_offsets,
    itinerary,
    minimal_period,
    step,
)
from pwrot.errors import BudgetExceededError, CriticalLineError
from pwrot.geometry import (
    Box,
    Location,
    apply_affine,
    intersect_halfplanes,
    polygon_contains,
    polygon_is_regular,
)
from pwrot.pointexpr import parse_alpha, parse_box
from pwrot.tiles import (
    ScanOutcome,
    interior_samples,
    scan_region,
    slope_census,
    tile_from_seed,
    tile_images,
    verify_rotation_structure,
    verify_polygon_bounds,
)

from affine import affine_along, compose, pulled_back, rotation_center
from checks import failures


@pytest.fixture(scope="module")
def gc():
    return golden_context()


@pytest.fixture(scope="module")
def hexagon_tile():
    hc = hexagon_context()
    return tile_from_seed(hc.center, 100)


@pytest.fixture(scope="module")
def p0_tile(gc):
    return tile_from_seed(gc.P0, 10)


@pytest.fixture(scope="module")
def p1_tile(gc):
    return tile_from_seed(golden_rescale(gc, gc.P0), 100)


class TestTileFromSeed:
    def test_fixed_pentagon(self, p0_tile, gc):
        t = p0_tile
        assert (t.ell, t.k, t.sides) == (1, 5, 5)
        assert t.k > 1
        assert polygon_is_regular(t.polygon)
        assert t.center == gc.P0
        with pytest.raises(AttributeError):
            t.center = gc.Q
        assert polygon_contains(t.polygon, gc.P0) == Location.INTERIOR

    def test_seven_cycle_pentagon(self, p1_tile, gc):
        t = p1_tile
        p1 = golden_rescale(gc, gc.P0)
        assert (t.ell, t.k, t.sides) == (7, 5, 5)
        assert t.center == p1
        assert polygon_is_regular(t.polygon)

    def test_interior_points_have_full_period(self, p1_tile):
        for sample in interior_samples(p1_tile, 4, seed=11):
            rec = minimal_period(sample, 36)
            assert rec.period == 35
            assert not rec.iterates_on_line

    def test_hexagon(self, hexagon_tile):
        t = hexagon_tile
        assert (t.ell, t.k, t.sides) == (20, 3, 6)
        assert not polygon_is_regular(t.polygon)
        hc = hexagon_context()
        assert t.polygon.key() == hc.hexagon.key()

    def test_seed_on_critical_line_rejected(self, gc):
        with pytest.raises(CriticalLineError):
            tile_from_seed(gc.Q, 300)

    def test_budget_exhaustion(self, gc):
        z = gc.ctx.point(Fraction(1, 4), Fraction(1, 4))
        rec = minimal_period(z, 10 ** 4)
        if rec.period is None or rec.period > 3:
            with pytest.raises((BudgetExceededError, CriticalLineError)):
                tile_from_seed(z, 3)

    def test_vertices_reach_the_line(self, p1_tile):
        # tile boundaries belong to the critical set: every vertex's forward
        # orbit must hit the line within a small number of steps
        for v in p1_tile.polygon.vertices:
            w = v
            hit = False
            for _ in range(p1_tile.ell * p1_tile.k):
                if w.imag().is_zero():
                    hit = True
                    break
                w = step(w)
            assert hit

    def test_stepped_seed_gives_next_image(self, p1_tile, gc):
        # the tile of F(seed) is the first affine image of the tile of seed
        images, _ = tile_images(p1_tile)
        stepped = tile_from_seed(step(p1_tile.seed), 100)
        assert stepped.polygon.key() == images[1].key()

    def test_same_tile_two_seeds_identical_polygon(self, p1_tile, gc):
        other_seed = interior_samples(p1_tile, 1, seed=23)[0]
        other = tile_from_seed(other_seed, 100)
        assert other.polygon.key() == p1_tile.polygon.key()
        assert other.key() == p1_tile.key()


class TestBlockKey:
    """A tile is keyed by its minimal itinerary block.  A k = 1 tile has no
    unique center and reports its first seed, so a key holding the center
    would list it once per seed."""

    BOX = Box("2.24", "-2.77", "2.30", "-2.74")

    @pytest.fixture(scope="class")
    def report(self):
        return scan_region(make_field(11, 12), self.BOX, Fraction(1, 100), 3000)

    def test_scan_lists_each_tile_once(self, report):
        assert [mult for _, mult in report.tiles.values()] == [3, 18, 3, 2]
        assert len({t.polygon.key() for t in report.tile_list}) == 4

    def test_seeds_of_a_k1_tile_share_a_key(self, report):
        tile = next(t for t in report.tile_list if t.ell == 228)
        assert tile.k == 1 and tile.center == tile.seed
        a, b = (tile_from_seed(z, 3000) for z in interior_samples(tile, 2, seed=3))
        assert a.seed != b.seed
        assert a.key() == b.key() == tile.key()
        assert a.polygon == b.polygon == tile.polygon


class TestVerification:
    def test_rotation_structure_on_known_tiles(self, p0_tile, p1_tile, hexagon_tile):
        for tile in (p0_tile, p1_tile, hexagon_tile):
            report = verify_rotation_structure(tile, samples=3, seed=1)
            assert report.passed, failures(report)

    def test_polygon_bounds_on_known_tiles(self, p0_tile, p1_tile, hexagon_tile):
        for tile in (p0_tile, p1_tile, hexagon_tile):
            report = verify_polygon_bounds(tile)
            assert report.passed, failures(report)

    def test_line_check_fails_a_polygon_across_the_line(self, p1_tile):
        # P1's pentagon moved down by Im(center) straddles the real axis
        shift = -(p1_tile.ctx.i_unit * p1_tile.center.imag())
        moved = p1_tile._replace(polygon=apply_affine(p1_tile.polygon, AffineMap(0, shift)))
        checks = {label: (ok, detail)
                  for label, ok, detail in verify_rotation_structure(moved, samples=0).checks}
        ok, detail = checks["no open image meets the line"]
        assert (ok, detail) == (False, "crossing images: [0]")
        assert checks["images pairwise distinct"][0]

    def test_hexagon_numbers(self, hexagon_tile):
        report = verify_rotation_structure(hexagon_tile, samples=2, seed=2)
        assert report.passed
        # gcd(20, 12) = 4, so the coprime dichotomy must not be claimed
        labels = [label for label, _, _ in verify_polygon_bounds(hexagon_tile).checks]
        assert "coprime dichotomy" not in labels

    def test_coprime_dichotomy_applies(self, p1_tile):
        labels = [label for label, _, _ in verify_polygon_bounds(p1_tile).checks]
        assert "coprime dichotomy" in labels

    def test_slope_census_bound(self, p0_tile, p1_tile, hexagon_tile):
        assert len(slope_census(p0_tile)) <= 5
        assert len(slope_census(p1_tile)) <= 5
        assert len(slope_census(hexagon_tile)) <= 6


class TestScan:
    def test_scan_golden_region(self, gc):
        report = scan_region(gc.ctx, Box(-1, -1, 1, 1), Fraction(1, 2), 2000)
        kinds = {o.kind for o in report.outcomes}
        assert "period" in kinds
        # grid points on the axis are critical-set hits at index 0
        on_axis = [o for o in report.outcomes if o.y == 0]
        assert all(o.kind == "critical" and o.touch_index == 0 for o in on_axis)
        assert len(report.tiles) >= 2
        for tile, mult in report.tiles.values():
            assert mult >= 1
            assert verify_polygon_bounds(tile).passed

    def test_outcomes_are_frozen(self, gc):
        report = scan_region(gc.ctx, Box(0, 1, 1, 2), Fraction(1), 200)
        with pytest.raises(AttributeError):
            report.outcomes[0].kind = "budget"

    def test_scan_histogram_counts_periodic_samples(self, gc):
        report = scan_region(gc.ctx, Box(-1, -1, 1, 1), Fraction(1, 2), 2000)
        assert sum(report.histogram.values()) == sum(
            1 for o in report.outcomes if o.kind == "period"
        )

    def test_scan_searches_each_period_once(self, gc, monkeypatch):
        calls = []

        def counted(z, budget, **kwargs):
            calls.append(z)
            return minimal_period(z, budget, **kwargs)

        monkeypatch.setattr(tiles_module, "minimal_period", counted)
        report = scan_region(gc.ctx, Box(-1, -1, 1, 1), Fraction(1, 2), 2000)
        monkeypatch.undo()
        assert len(report.outcomes) == 25
        # one walk per pair z, -z of the 5 x 5 grid, and one for the origin;
        # no point is walked twice, and none after its negation
        assert len(calls) == 13
        for n, z in enumerate(calls):
            assert z not in calls[:n] and -z not in calls[:n]
        # inventory and histogram equal those of the periodic points taken one by one
        tiles, histogram = {}, {}
        for o in report.outcomes:
            if o.kind == "period":
                key = tile_from_seed(gc.ctx.point(o.x, o.y), 2000).key()
                tiles[key] = tiles.get(key, 0) + 1
                histogram[o.period] = histogram.get(o.period, 0) + 1
        assert {key: mult for key, (_, mult) in report.tiles.items()} == tiles
        assert report.histogram == histogram

    def test_hexagon_inventory(self):
        hc = hexagon_context()
        report = scan_region(hc.ctx, Box(Fraction(3, 2), 0, 3, 1), Fraction(1, 4), 200)
        irregular_hexes = [
            t for t, _ in report.tiles.values() if t.sides == 6 and not polygon_is_regular(t.polygon)
        ]
        assert irregular_hexes, "expected an irregular hexagon in the inventory"

    def test_enclosures_computed(self, gc, enclosures_computed):
        # the first tile-scan grid of the benchmark: a value is enclosed at
        # most once, when a predicate first reads it, so no more than the 244
        # enclosures this scan made before values kept their own
        scan_region(gc.ctx, Box(-3, -3, 3, 3), Fraction(1), 3000)
        assert 0 < len(enclosures_computed) <= 244


# the three tile-scan grids of the benchmark (``SCAN_GRIDS["full"]`` in
# perfbench/workloads.py): (alpha, box, step, budget)
BENCHMARK_SCANS = [
    ((4, 5), Box(-3, -3, 3, 3), Fraction(1), 3000),
    ((11, 12), Box(-1, -1, 3, 2), Fraction(1, 2), 1000),
    ((3, 7), Box(-2, -2, 2, 2), Fraction(4, 3), 3000),
]

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_benchmark_scans_are_the_benchmark_grids(monkeypatch):
    # the count pins below hold for the grids the benchmark scans, so the
    # copy here must name the same grids as perfbench/workloads.py; its
    # dataclass looks its module up in sys.modules while the file loads
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    grids = [(parse_alpha(alpha), parse_box(box), Fraction(step), budget)
             for alpha, box, step, budget in module.SCAN_GRIDS["full"]]
    assert grids == BENCHMARK_SCANS


@pytest.mark.parametrize("mode, corners, exact_tests", [
    ("enclosed", 151, 0),
    ("exact_predicates", 203, 412),
], ids=["enclosed", "exact_predicates"])
def test_sweep_builds_only_the_ring_corners(request, monkeypatch, mode, corners, exact_tests):
    # the sweep decides its tests on the offsets' enclosures, so it builds
    # only the corners of the rings, and makes no exact side test; with
    # every enclosed decision left open, each test builds its corner for the
    # exact test, as every test did before the enclosures decided them.  Of
    # the 30 tiles (254 sides), the scans build 18 (151 sides) from a walk
    # and negate the other 12, which builds no corner
    if mode != "enclosed":
        request.getfixturevalue(mode)
    built, tested, sweeping = [], [], []
    corner, side, sweep = geometry.grid_corner, geometry._side, geometry._sweep

    def counted_side(*args):
        if sweeping:
            tested.append(args)
        return side(*args)

    def flagged_sweep(offset):
        sweeping.append(offset)
        try:
            return sweep(offset)
        finally:
            sweeping.pop()

    monkeypatch.setattr(geometry, "grid_corner", lambda *a: built.append(a) or corner(*a))
    monkeypatch.setattr(geometry, "_side", counted_side)
    monkeypatch.setattr(geometry, "_sweep", flagged_sweep)
    walked, build = [], tiles_module._build_tile
    monkeypatch.setattr(tiles_module, "_build_tile", lambda *a: walked.append(build(*a)) or walked[-1])
    tiles = [t for alpha, box, step, budget in BENCHMARK_SCANS
             for t in scan_region(make_field(*alpha), box, step, budget).tile_list]
    assert len(tiles) == 30 and sum(t.sides for t in tiles) == 254
    assert len(walked) == 18 and sum(t.sides for t in walked) == 151
    assert len(built) == corners
    assert len(tested) == exact_tests


class TestScanSymmetry:
    """Off the line F(-z) = -F(z), so a scan walks one point of each pair
    z, -z and gives the other its partner's outcome and the negated tile.
    Each test runs with the enclosed predicates and with every predicate
    exact."""

    # boxes symmetric about 0, (alpha, box, step, budget): the first
    # benchmark grid, one with budget outcomes, and one with k = 1 tiles of
    # four seeds, whose negation's first seed is not the partner of its own
    SYMMETRIC = [
        ((4, 5), Box(-3, -3, 3, 3), Fraction(1), 3000),
        ((4, 5), Box(-2, -2, 2, 2), Fraction(1, 2), 300),
        ((14, 15), Box(-1, -1, 1, 1), Fraction(1, 12), 3000),
    ]
    # a partly symmetric box, one with no partners (a k = 1 tile), and one
    # with the row y = 0 and orbits that touch the line at step 18
    OTHERS = [
        ((11, 12), Box(-1, -1, 3, 2), Fraction(1, 2), 1000),
        ((11, 12), Box("2.24", "-2.77", "2.30", "-2.74"), Fraction(1, 100), 3000),
        ((11, 12), Box(-2, -1, 2, 1), Fraction(1, 2), 1000),
    ]

    @pytest.fixture(params=["enclosed", "exact_predicates"])
    def predicates(self, request):
        if request.param != "enclosed":
            request.getfixturevalue(request.param)

    def test_symmetric_box_lists_each_negation(self, predicates):
        for alpha, box, step, budget in self.SYMMETRIC:
            report = scan_region(make_field(*alpha), box, step, budget)
            points = {(o.x, o.y) for o in report.outcomes}
            assert {(-x, -y) for x, y in points} == points
            mult = {key: n for key, (_, n) in report.tiles.items()}
            assert {tuple(-s for s in key): n for key, n in mult.items()} == mult

    def test_outcomes_equal_direct_walks(self, predicates):
        partners, touches = [], []
        for alpha, box, step, budget in self.OTHERS:
            ctx = make_field(*alpha)
            report = scan_region(ctx, box, step, budget)
            at = {(o.x, o.y): o for o in report.outcomes}
            for o in report.outcomes:
                rec = minimal_period(ctx.point(o.x, o.y), budget)
                if rec.iterates_on_line:
                    walked = ScanOutcome(o.x, o.y, "critical",
                                         touch_index=rec.iterates_on_line[0][0])
                elif rec.period is None:
                    walked = ScanOutcome(o.x, o.y, "budget")
                else:
                    walked = ScanOutcome(o.x, o.y, "period", period=rec.period)
                assert o == walked
            pairs = [(o, at[-o.x, -o.y]) for o in report.outcomes
                     if (-o.x, -o.y) in at and (o.x, o.y) != (0, 0)]
            for o, partner in pairs:
                if o.kind == "critical":
                    assert (partner.kind, partner.touch_index) == ("critical", o.touch_index)
            partners.append(len(pairs))
            touches.append(sorted({o.touch_index for o, _ in pairs if o.kind == "critical"}))
        assert partners == [24, 0, 44]
        assert touches == [[0], [], [0, 18]]

    def test_tiles_equal_their_seeds_tiles(self, predicates, monkeypatch):
        walked, build = [], tiles_module._build_tile
        monkeypatch.setattr(tiles_module, "_build_tile", lambda *a: walked.append(build(*a)) or walked[-1])
        derived = []
        for alpha, box, step, budget in self.SYMMETRIC + self.OTHERS:
            for t in scan_region(make_field(*alpha), box, step, budget).tile_list:
                ref = tile_from_seed(t.seed, budget)
                assert (t.polygon, t.word, t.center) == (ref.polygon, ref.word, ref.center)
                if not any(t is w for w in walked):
                    derived.append(t)
        assert derived and any(t.k == 1 for t in derived)


class TestStreamedConstraints:
    """A tile's polygon equals the intersection of all k*ell pulled-back
    constraints, streamed from the walk of branch offsets as a reference,
    though the tile takes only its seed walk's nominees; the binding pass of
    intersect_halfplanes keeps at most m of them."""

    @pytest.fixture(scope="class")
    def known_tiles(self, gc, hexagon_tile):
        return [tile_from_seed(p, 7000) for p in pentagon_centers(gc, 4)] + [hexagon_tile]

    def test_stream_equals_materialised_list(self, known_tiles):
        for tile in known_tiles:
            ctx, word, n = tile.ctx, tile.word, tile.k * tile.ell
            # the reference: every prefix map composed branch by branch
            branch = {s: AffineMap(1, -s * ctx.lambda_) for s in (1, -1)}
            g, full = AffineMap(0, ctx.zero()), []
            for j in range(n):
                full.append(pulled_back(ctx, g.power, g.offset, word[j % tile.ell]))
                g = compose(branch[word[j % tile.ell]], g)
            def walk():
                return (
                    pulled_back(ctx, j, b, word[j % tile.ell])
                    for j, b in enumerate(branch_offsets(ctx, word, n - 1))
                )

            assert len(geometry._binding_offsets(walk())) <= ctx.m
            assert list(walk()) == full
            assert intersect_halfplanes(walk())[0] == intersect_halfplanes(full)[0] == tile.polygon
            # the vertex average is the block map's fixed point
            assert tile.center == rotation_center(affine_along(ctx, word))

    def test_intersections_see_at_most_m_constraints(self, gc, monkeypatch):
        # (constraints handed in, constraints the binding pass keeps) per
        # tile: a center seed's nominees stand for k indices each, so P4's
        # tile hands in more than m, and the one binding pass keeps at most m
        sizes = []
        binding = geometry._binding_offsets

        def counted(constraints):
            kept = binding(constraints)
            sizes.append((len(constraints), len(kept)))
            return kept

        monkeypatch.setattr(geometry, "_binding_offsets", counted)
        tile_from_seed(pentagon_centers(gc, 4)[4], 7000)
        scan_region(gc.ctx, Box(-1, -1, 1, 1), Fraction(1, 2), 2000)
        assert len(sizes) > 1 and sizes[0][0] > gc.ctx.m
        assert max(kept for _, kept in sizes) <= gc.ctx.m

    def test_p4_tile_memory_is_bounded(self, gc):
        p4 = pentagon_centers(gc, 4)[4]
        tracemalloc.start()
        try:
            tile = tile_from_seed(p4, 7000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tile.k * tile.ell == 6940
        assert peak < 1 << 20


def test_tiles_make_no_second_walk(gc, monkeypatch):
    # a tile reads its block and its binding constraints off its seed's
    # first-return walk, so neither a tile build nor a scan walks the seed's
    # itinerary or its branch offsets again
    hc = hexagon_context()

    def second_walk(*args, **kwargs):
        raise AssertionError("a second walk")

    with monkeypatch.context() as m:
        m.setattr(tiles_module, "itinerary", second_walk, raising=False)
        m.setattr(tiles_module, "branch_offsets", second_walk)
        m.setattr(stepper, "run_signs", second_walk)
        built = [tile_from_seed(pentagon_centers(gc, 4)[4], 7000), tile_from_seed(hc.center, 100)]
        report = scan_region(gc.ctx, Box(-1, -1, 1, 1), Fraction(1, 2), 2000)
    assert len(report.outcomes) == 25 and report.tiles
    assert built[0].period == 6940 and built[1].ell == 20
    for tile in built + report.tile_list:
        n = minimal_period(tile.seed, tile.period).period
        assert tile.word == itinerary(tile.seed, n)[:tile.ell]


@pytest.mark.long
def test_p7_tile_is_a_regular_pentagon(gc):
    p7 = pentagon_centers(gc, 7)[7]
    tile = tile_from_seed(p7, 300000)
    assert (tile.ell, tile.k, tile.sides) == (299932, 5, 5)
    assert tile.center == p7
    assert polygon_is_regular(tile.polygon)


@pytest.mark.long
def test_p6_tile_is_a_regular_pentagon(gc):
    p6 = pentagon_centers(gc, 6)[6]
    tile = tile_from_seed(p6, 50000)
    assert (tile.ell, tile.k, tile.sides) == (49988, 5, 5)
    assert tile.center == p6
    assert polygon_is_regular(tile.polygon)
