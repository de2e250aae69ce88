import tracemalloc
from fractions import Fraction

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
    HalfPlane,
    Location,
    intersect_halfplanes,
    polygon_contains,
    polygon_is_regular,
)
from pwrot.tiles import (
    interior_samples,
    scan_region,
    slope_census,
    tile_from_seed,
    tile_images,
    verify_rotation_structure,
    verify_polygon_bounds,
)

from affine import affine_along, compose, rotation_center


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
        assert t.rotational
        assert polygon_is_regular(t.polygon)
        assert t.center == gc.P0
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
            assert report.passed, report.failures()

    def test_polygon_bounds_on_known_tiles(self, p0_tile, p1_tile, hexagon_tile):
        for tile in (p0_tile, p1_tile, hexagon_tile):
            report = verify_polygon_bounds(tile)
            assert report.passed, report.failures()

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
        assert len(calls) == 25
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
            ctx, word, n = tile.ctx, tile.word.word, tile.k * tile.ell
            # the reference: every prefix map composed branch by branch
            branch = {s: AffineMap(1, -s * ctx.lambda_) for s in (1, -1)}
            g, full = AffineMap(0, ctx.zero()), []
            for j in range(n):
                full.append(HalfPlane(g.power % ctx.q, g.offset, word[j % tile.ell]))
                g = compose(branch[word[j % tile.ell]], g)
            def walk():
                return (
                    HalfPlane(j % ctx.q, b, word[j % tile.ell])
                    for j, b in enumerate(branch_offsets(ctx, word, n - 1))
                )

            assert len(geometry._binding_offsets(walk())) <= ctx.m
            assert list(branch_offsets(ctx, word, n - 1)) == [h.b for h in full]
            assert intersect_halfplanes(walk()) == intersect_halfplanes(full) == tile.polygon
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
        assert tile.word.word == itinerary(tile.seed, n).word[:tile.ell]


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
