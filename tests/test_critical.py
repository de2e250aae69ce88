import math
import random
from fractions import Fraction

import pytest

from pwrot.casestudy import hexagon_context
from pwrot.critical import (
    FORWARD,
    PULLBACK,
    base_layer,
    critical_bundle,
    forward_layer,
    merge_collinear,
    pullback_layer,
)
from pwrot import critical, geometry
from pwrot.cyclo import CycloNum, FieldContext, make_field, sign_of_imag
from pwrot.dynamics import step
from pwrot.errors import InternalInconsistencyError, ParameterError
from pwrot.geometry import Box, ExactSegment, clip_segment_to_box, edge_direction_power
from pwrot.tiles import tile_from_seed

from segments import point_on_segment


@pytest.fixture(scope="module")
def ctx5():
    return make_field(4, 5)


BOX = Box(-4, -4, 4, 4)


def grid_power(ctx, seg):
    """The least t in [0, q) with seg along lambda^t * R, after checking that
    the segment's ``power`` names the same line direction."""
    t = edge_direction_power(ctx, seg.b - seg.a)
    assert t is not None
    assert seg.power % (ctx.q if ctx.q % 2 else ctx.q // 2) == t
    return t


class TestLayers:
    def test_base_layer_is_the_line(self, ctx5):
        layer = base_layer(ctx5, BOX.inflate(10))
        assert layer.depth == 0 and len(layer.segments) == 1
        seg = layer.segments[0]
        assert seg.a == ctx5.point(-14, 0) and seg.b == ctx5.point(14, 0)

    def test_base_layer_of_a_box_off_the_line(self, ctx5):
        # a box that misses the real axis holds no piece of the line
        for box in (Box(-1, 1, 1, 2), Box(-1, -2, 1, Fraction(-1, 2))):
            for direction in (PULLBACK, FORWARD):
                layer = base_layer(ctx5, box, direction)
                assert (layer.depth, layer.segments, layer.direction) == (0, (), direction)

    def test_empty_layer_advances_to_an_empty_layer(self, ctx5):
        box = Box(0, 1, 1, 2)
        for direction, advance in ((PULLBACK, pullback_layer), (FORWARD, forward_layer)):
            layer = advance(base_layer(ctx5, box, direction), box, total_depth=1)
            assert (layer.depth, layer.segments, layer.direction) == (1, (), direction)

    def test_next_layer_checks_direction_and_depth(self, ctx5):
        with pytest.raises(ParameterError, match="pullback-direction layer"):
            pullback_layer(base_layer(ctx5, BOX, direction=FORWARD), BOX, total_depth=1)
        with pytest.raises(ParameterError, match="forward-direction layer"):
            forward_layer(base_layer(ctx5, BOX), BOX, total_depth=1)
        layer1 = pullback_layer(base_layer(ctx5, BOX.inflate(1)), BOX, total_depth=1)
        with pytest.raises(ParameterError, match="already at the target depth"):
            pullback_layer(layer1, BOX, total_depth=1)

    def test_first_pullback_direction(self, ctx5):
        # one inverse step tilts the line pieces to the conjugate direction
        layer0 = base_layer(ctx5, BOX.inflate(1))
        layer1 = pullback_layer(layer0, BOX, total_depth=1)
        assert layer1.depth == 1
        assert 1 <= len(layer1.segments) <= 2
        for seg in layer1.segments:
            assert seg.power == -1
            assert grid_power(ctx5, seg) == ctx5.q - 1  # direction of lambda^{-1}

    def test_pullback_membership_soundness(self, ctx5):
        bundle = critical_bundle(ctx5, 8, BOX)
        rng = random.Random(3)
        segs = [s for s in bundle.all_segments() if s.depth > 0]
        for seg in rng.sample(segs, min(25, len(segs))):
            grid_power(ctx5, seg)
            # a strictly interior rational combination of the endpoints
            t = Fraction(rng.randint(1, 9), 10)
            w = seg.a + t * (seg.b - seg.a)
            for _ in range(seg.depth):
                w = step(w)
            assert w.imag().is_zero()

    def test_forward_layer_rotates(self, ctx5):
        layer0 = base_layer(ctx5, BOX.inflate(1), direction=FORWARD)
        layer1 = forward_layer(layer0, BOX, total_depth=1)
        for seg in layer1.segments:
            assert seg.power == 1 and grid_power(ctx5, seg) == 1

    def test_forward_images_of_line_points_stay_sound(self, ctx5):
        # sampled points of a forward segment are genuine forward images:
        # pulling them back depth steps lands on the line
        from pwrot.dynamics import inverse_step

        bundle = critical_bundle(ctx5, 5, BOX, direction=FORWARD)
        rng = random.Random(4)
        for seg in bundle.all_segments():
            grid_power(ctx5, seg)
            if seg.depth == 0:
                continue
            t = Fraction(rng.randint(1, 9), 10)
            w = seg.a + t * (seg.b - seg.a)
            for _ in range(seg.depth):
                w = inverse_step(w)
            assert w.imag().is_zero()


class TestBundle:
    def test_rejects_unknown_direction_and_negative_depth(self, ctx5):
        with pytest.raises(ParameterError, match="unknown direction 'sideways'"):
            critical_bundle(ctx5, 2, BOX, direction="sideways")
        with pytest.raises(ParameterError, match="depth must be >= 0"):
            critical_bundle(ctx5, -1, BOX)

    def test_depth_zero(self, ctx5):
        bundle = critical_bundle(ctx5, 0, BOX)
        assert len(bundle.layers) == 1
        seg = bundle.layers[0].segments[0]
        assert seg.a == ctx5.point(-4, 0) and seg.b == ctx5.point(4, 0)

    def test_segments_clipped_to_user_box(self, ctx5):
        bundle = critical_bundle(ctx5, 8, BOX)
        for seg in bundle.all_segments():
            grid_power(ctx5, seg)
            for z in (seg.a, seg.b):
                c = z.to_complex()
                assert -4 - 1e-9 <= c.real <= 4 + 1e-9
                assert -4 - 1e-9 <= c.imag <= 4 + 1e-9

    def test_slope_census_within_theta(self, ctx5):
        bundle = critical_bundle(ctx5, 10, BOX)
        census = set()
        for seg in bundle.all_segments():
            census.add(grid_power(ctx5, seg))
        assert len(census) <= 5  # q odd: at most q slope classes

    def test_slope_census_even_q(self):
        ctx = make_field(11, 12)
        bundle = critical_bundle(ctx, 10, Box(-3, -3, 3, 3))
        census = set()
        for seg in bundle.all_segments():
            census.add(grid_power(ctx, seg) % 6)  # slopes fold modulo q/2 for even q
        assert len(census) <= 6

    def test_bigger_box_covers_smaller_run(self, ctx5):
        small = critical_bundle(ctx5, 6, Box(-2, -2, 2, 2))
        large = critical_bundle(ctx5, 6, Box(-3, -3, 3, 3))
        by_depth = {}
        for seg in large.all_segments():
            by_depth.setdefault(seg.depth, []).append(seg)
        for seg in small.all_segments():
            grid_power(ctx5, seg)
            candidates = by_depth.get(seg.depth, [])
            for w in (seg.a, seg.b, (seg.a + seg.b) / 2):
                assert any(point_on_segment(c, w) for c in candidates)

    def test_crossings_need_no_field_inverse(self, ctx5, monkeypatch):
        # every split and clip point is a grid corner: the only inverses are
        # the cached reciprocal sines, at most one per exponent difference
        calls = []
        real_inverse = CycloNum.inverse

        def counting_inverse(self):
            calls.append(self)
            return real_inverse(self)

        monkeypatch.setattr(CycloNum, "inverse", counting_inverse)
        geometry._inverse_sine.cache_clear()
        bundle = critical_bundle(ctx5, 10, BOX, direction="both")
        assert len(bundle.all_segments()) > 100
        assert len(calls) <= ctx5.m

    def test_forward_images_from_outside_old_windows_listed(self, ctx5):
        # F^19 of these line points lies outside the box widened by 1, yet
        # F^20 lands in the box: the window of each layer has to hold every
        # point that can still reach the box, not just the widened box
        bundle = critical_bundle(ctx5, 20, BOX, direction=FORWARD)
        deepest = [s for s in bundle.all_segments() if s.depth == 20]
        for x in (Fraction(-39, 10), Fraction(-19, 5), Fraction(-37, 10)):
            w = ctx5.from_rational(x)
            for _ in range(20):
                w = step(w)
            c = w.to_complex()
            assert abs(c.real) < 4 and abs(c.imag) < 4
            assert any(point_on_segment(s, w) for s in deepest), x

    def test_windows_hold_the_box(self):
        # rho is the least integer at least the largest corner modulus
        assert critical.window(BOX, 0) == Box(-6, -6, 6, 6)  # sqrt(32) = 5.66
        assert critical.window(Box(-1, -2, 6, 3), 5) == Box(-12, -12, 12, 12)  # sqrt(45)
        assert critical.window(Box(0, 0, 3, 4), 2) == Box(-7, -7, 7, 7)  # exactly 5
        assert critical.window(Box(0, 0, Fraction(1, 2), Fraction(1, 3)), 0) == Box(-1, -1, 1, 1)

    def test_equal_boxes_share_one_rho(self):
        critical.window.cache_clear()
        a, b = Box(-1, -2, 6, 3), Box("-1", Fraction(-4, 2), 6, 3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert critical.window(a, 2) is critical.window(b, 2) == Box(-9, -9, 9, 9)
        assert critical.window.cache_info().hits == 1

    def test_layers_are_frozen(self, ctx5):
        bundle = critical_bundle(ctx5, 1, BOX)
        with pytest.raises(AttributeError):
            bundle.truncated = True
        with pytest.raises(AttributeError):
            bundle.layers[0].depth = 2

    def test_cap_truncates_with_flag(self, ctx5):
        bundle = critical_bundle(ctx5, 10, BOX, cap=10)
        assert bundle.truncated
        assert max(layer.depth for layer in bundle.layers) < 10

    def test_negative_cap_is_rejected(self, ctx5):
        with pytest.raises(ParameterError, match="cap must be >= 0"):
            critical_bundle(ctx5, 2, BOX, cap=-1)
        assert critical_bundle(ctx5, 2, BOX, cap=0).truncated

    def test_cap_zero_keeps_the_line(self, ctx5):
        # the depth-0 layer is written whatever the cap
        for depth in (0, 2):
            bundle = critical_bundle(ctx5, depth, BOX, "both", cap=0)
            assert bundle.truncated == (depth > 0)
            assert [(layer.depth, layer.direction) for layer in bundle.layers] == [
                (0, PULLBACK), (0, FORWARD)]
            assert [len(layer.segments) for layer in bundle.layers] == [1, 1]

    def test_hexagon_boundary_on_critical_set(self):
        # vertices reach the line within 14 backward levels; the slowest edge
        # needs 21, so depth 22 covers the entire boundary
        hc = hexagon_context()
        tile = tile_from_seed(hc.center, 100)
        bundle = critical_bundle(hc.ctx, 22, Box(-1, -2, 6, 3))
        segs = bundle.all_segments()
        shallow = [s for s in segs if s.depth <= 14]
        for v in tile.polygon.vertices:
            assert any(point_on_segment(s, v) for s in shallow)
        for a, b in tile.polygon.edges():
            mid = (a + b) / 2
            assert any(point_on_segment(s, mid) for s in segs)


def chain(ctx, depth, box, direction):
    """Layers 0..depth of one direction, each clipped to its window only."""
    advance = pullback_layer if direction == PULLBACK else forward_layer
    layers = [base_layer(ctx, critical.window(box, depth), direction)]
    for _ in range(depth):
        layers.append(advance(layers[-1], box, depth))
    return layers


class TestEnclosedEndpoints:
    @pytest.mark.parametrize("p, q, box", [
        (4, 5, Box(-4, -4, 4, 4)), (11, 12, Box(-1, -2, 6, 3)), (3, 7, Box(-2, -2, 2, 2)),
    ])
    @pytest.mark.parametrize("direction", [PULLBACK, FORWARD])
    def test_branch_images_stay_reduced(self, p, q, box, direction):
        # the branch map builds zeta^t w + c on the lattice pair with no gcd;
        # every endpoint, in the windowed layers and in the bundle, is still
        # the reduced pair, and the enclosure it keeps is its own
        ctx = make_field(p, q)
        layers = chain(ctx, 10, box, direction)
        layers += critical_bundle(ctx, 10, box, direction).layers
        ends = 0
        for layer in layers:
            for seg in layer.segments:
                for w in (seg.a, seg.b):
                    assert w.den > 0 and math.gcd(w.den, *w.vec) == 1
                    assert w == ctx.from_lattice(w.vec, w.den)
                    assert w.enclosure() == CycloNum(ctx, w.vec, w.den).enclosure()
                    ends += 1
        assert ends > 40

    def test_enclosures_computed(self, ctx5, enclosures_computed):
        # an endpoint is enclosed once, when a clip or split first reads it:
        # no more than the 206 enclosures of this bundle when each endpoint
        # was enclosed as it was made, read or not
        critical_bundle(ctx5, 8, Box(-3, -3, 3, 3), "both")
        assert 0 < len(enclosures_computed) <= 206

    @pytest.mark.parametrize("alpha, box, most", [
        ((4, 5), Box(-4, -4, 4, 4), 159),
        ((11, 12), Box(-1, -2, 6, 3), 122),
    ])
    def test_grid_corners_built(self, monkeypatch, alpha, box, most):
        # the depth-20 bundles of the benchmark: a clip builds no corner for
        # a segment that both endpoints put outside one face, which a clip
        # face by face did (178 and 153 corners)
        built, corner = [], geometry.grid_corner
        for owner in (critical, geometry):
            monkeypatch.setattr(owner, "grid_corner", lambda *a: built.append(a) or corner(*a))
        critical_bundle(make_field(*alpha), 20, box, "both")
        assert 0 < len(built) <= most

    def test_exact_face_tests(self, monkeypatch):
        # the two depth-20 bundles of the benchmark: an endpoint's enclosure
        # leaves a window or box face open, for the exact test, 9 times in all
        faces = []
        monkeypatch.setattr(geometry, "sign_of_imag", lambda a: faces.append(a) or sign_of_imag(a))
        for alpha, box in (((4, 5), Box(-4, -4, 4, 4)), ((11, 12), Box(-1, -2, 6, 3))):
            critical_bundle(make_field(*alpha), 20, box, "both")
        assert 0 < len(faces) <= 9

    @pytest.mark.parametrize("direction", [PULLBACK, FORWARD])
    def test_widened_enclosures_leave_every_sign_exact(self, ctx5, request, monkeypatch,
                                                       direction):
        # with zero sine rows no certificate decides a split, so both
        # endpoints of every split reach the exact zero test of
        # FieldContext.sign; with every enclosure widened, every first face
        # of a clip takes the exact test; and the layers do not change
        plain = chain(ctx5, 4, BOX, direction)
        request.getfixturevalue("exact_enclosures")
        monkeypatch.setattr(FieldContext, "sine_row", lambda self, e: (0,) * self.d)
        conjugated, faces, permute = [], [], FieldContext._permute

        def counted(self, vec, k, e):
            if k == -1:
                conjugated.append(tuple(vec))
            return permute(self, vec, k, e)

        monkeypatch.setattr(FieldContext, "_permute", counted)
        monkeypatch.setattr(geometry, "sign_of_imag", lambda a: faces.append(a) or sign_of_imag(a))
        layers = chain(ctx5, 4, BOX, direction)
        assert [layer.segments for layer in layers] == [layer.segments for layer in plain]
        e = -ctx5.t0 % ctx5.m if direction == PULLBACK else 0
        for layer in layers[:-1]:
            assert layer.segments
            for seg in layer.segments:
                before = len(conjugated)
                critical._split_at(seg, e)
                assert conjugated[before:before + 2] == [seg.a.mul_zeta(e).vec, seg.b.mul_zeta(e).vec]
        for seg in layers[-1].segments:
            before = len(faces)
            clip_segment_to_box(seg, BOX)
            assert len(faces) - before >= 2


class TestMergeCollinear:
    def test_zero_length_segments_are_dropped(self, ctx5):
        z, seg = ctx5.point(5, 0), ExactSegment(ctx5.point(0, 0), ctx5.point(2, 0), 0)
        assert merge_collinear(ctx5, [ExactSegment(z, z, 0)]) == []
        assert merge_collinear(ctx5, [ExactSegment(z, z, 0), seg]) == [seg]

    def test_overlaps_merge(self, ctx5):
        segs = [
            ExactSegment(ctx5.point(0, 0), ctx5.point(2, 0), 0),
            ExactSegment(ctx5.point(1, 0), ctx5.point(3, 0), 0),
            ExactSegment(ctx5.point(5, 0), ctx5.point(6, 0), 0),
            ExactSegment(ctx5.point(0, 1), ctx5.point(1, 1), 5),
        ]
        merged = merge_collinear(ctx5, segs)
        assert len(merged) == 3
        assert all(m.power == 0 for m in merged)
        spans = sorted(
            (s.a.to_complex().real, s.b.to_complex().real)
            for s in merged
            if s.a.to_complex().imag == 0
        )
        assert spans[0] == (0.0, 3.0)
        assert spans[1] == (5.0, 6.0)

    def test_merge_preserves_cover(self, ctx5):
        bundle = critical_bundle(ctx5, 8, BOX)
        segs = bundle.all_segments()
        merged = merge_collinear(ctx5, segs)
        assert len(merged) <= len(segs)
        rng = random.Random(7)
        for m in merged:
            grid_power(ctx5, m)
        for seg in rng.sample(segs, min(20, len(segs))):
            t = Fraction(rng.randint(0, 10), 10)
            w = seg.a + t * (seg.b - seg.a)
            assert any(point_on_segment(m, w) for m in merged)

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_merged_endpoints_are_input_endpoints(self, p, q):
        ctx = make_field(p, q)
        segs = critical_bundle(ctx, 8, BOX, "both").all_segments()
        merged = merge_collinear(ctx, segs)
        assert len(merged) < len(segs)
        ends = {w for s in segs for w in (s.a, s.b)}
        assert all(m.a in ends and m.b in ends for m in merged)

    @pytest.mark.parametrize("exact", [False, True])
    def test_merge_makes_no_field_product(self, ctx5, monkeypatch, request, exact):
        # grid lines, mul_zeta permutations and point order only, also when
        # every order is decided by the exact test
        segs = critical_bundle(ctx5, 8, BOX, "both").all_segments()
        want = merge_collinear(ctx5, segs)
        if exact:
            request.getfixturevalue("exact_enclosures")

        def no_product(*_):
            raise AssertionError("field product")

        monkeypatch.setattr(FieldContext, "_mul_vecs", no_product)
        assert merge_collinear(ctx5, segs) == want

    def test_off_grid_segment_raises(self, ctx5):
        # a diagonal is no rotated copy of the real axis for q = 5, and a
        # segment along lambda is not along lambda^0
        for seg in (
            ExactSegment(ctx5.point(0, 0), ctx5.point(1, 1), 0),
            ExactSegment(ctx5.zero(), ctx5.lambda_, 0),
        ):
            with pytest.raises(InternalInconsistencyError):
                merge_collinear(ctx5, [seg])
