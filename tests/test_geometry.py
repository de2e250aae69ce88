import random
from fractions import Fraction

import pytest

from pwrot.cyclo import Sign, make_field, sign_of_imag
from pwrot.dynamics import Address, AffineMap, address, affine_along, step
from pwrot.geometry import (
    EMPTY,
    UNBOUNDED,
    Box,
    ConvexPolygon,
    ExactSegment,
    HalfPlane,
    Location,
    apply_affine,
    clip_segment_to_box,
    edge_direction_power,
    halfplane_from_constraint,
    intersect_halfplanes,
    line_intersection,
    line_through,
    make_polygon,
    orientation,
    point_on_segment,
    polygon_contains,
    polygon_is_regular,
)
from pwrot.errors import ParameterError


@pytest.fixture(scope="module")
def ctx5():
    return make_field(4, 5)


@pytest.fixture(scope="module")
def ctx12():
    return make_field(11, 12)


def upper(ctx):
    """The open upper half plane as a constraint."""
    return HalfPlane(0, ctx.zero(), 1)


def lower(ctx):
    return HalfPlane(0, ctx.zero(), -1)


class TestLines:
    def test_real_axis_side(self, ctx5):
        axis = line_through(ctx5.point(0, 0), ctx5.point(1, 0))
        assert axis.side_of(ctx5.point(0, 2)) == Sign.POSITIVE
        assert axis.side_of(ctx5.point(5, -1)) == Sign.NEGATIVE
        assert axis.side_of(ctx5.point(-7, 0)) == Sign.ZERO

    def test_intersection_at_origin(self, ctx5):
        axis = line_through(ctx5.point(0, 0), ctx5.point(1, 0))
        slanted = line_through(ctx5.zero(), ctx5.lambda_)
        assert line_intersection(axis, slanted) == ctx5.zero()

    def test_axis_meets_vertical(self, ctx12):
        axis = line_through(ctx12.point(0, 0), ctx12.point(1, 0))
        vertical = line_through(ctx12.point(3, 0), ctx12.point(3, 1))
        assert line_intersection(axis, vertical) == ctx12.from_rational(3)

    def test_parallel_and_coincident(self, ctx5):
        a = line_through(ctx5.point(0, 0), ctx5.point(1, 0))
        b = line_through(ctx5.point(0, 1), ctx5.point(1, 1))
        assert line_intersection(a, b) is None
        assert line_intersection(a, a) is None

    def test_intersection_lies_on_both_lines(self, ctx5):
        rng = random.Random(41)
        found = 0
        while found < 15:
            pts = [
                ctx5.point(Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 4))
                for _ in range(4)
            ]
            if pts[0] == pts[1] or pts[2] == pts[3]:
                continue
            l1 = line_through(pts[0], pts[1])
            l2 = line_through(pts[2], pts[3])
            w = line_intersection(l1, l2)
            if w is None:
                continue
            assert l1.side_of(w) == Sign.ZERO
            assert l2.side_of(w) == Sign.ZERO
            found += 1


class TestHalfPlaneFromConstraint:
    def test_identity_gives_half_planes(self, ctx5):
        ident = AffineMap(0, ctx5.zero())
        hp = halfplane_from_constraint(ident, 1)
        hm = halfplane_from_constraint(ident, -1)
        assert hp.contains(ctx5.point(0, 1))
        assert not hp.contains(ctx5.point(0, -1))
        assert hm.contains(ctx5.point(0, -1))
        assert not hm.contains(ctx5.point(3, 0))

    def test_one_step_preimage(self, ctx5):
        # membership in the pulled-back constraint agrees with the address of
        # the stepped point, checked by brute force on upper-half samples
        g = affine_along(ctx5, (1,))
        hp = halfplane_from_constraint(g, 1)
        rng = random.Random(42)
        for _ in range(30):
            w = ctx5.point(Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(1, 20), 3))
            assert hp.contains(w) == (address(step(w)) == Address.PLUS)


def square_constraints(ctx12, shuffle_seed=None):
    # directions lambda^0, lambda^3, lambda^6, lambda^9 are the four axes
    # for the order-12 rotation; offsets carve the unit square
    i = ctx12.i_unit
    cons = [
        HalfPlane(0, ctx12.zero(), 1),   # y > 0
        HalfPlane(3, i, 1),              # x < 1
        HalfPlane(6, i, 1),              # y < 1
        HalfPlane(9, ctx12.zero(), 1),   # x > 0
    ]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(cons)
    return cons


class TestIntersectHalfplanes:
    def test_opposite_half_planes_empty(self, ctx5):
        assert intersect_halfplanes([upper(ctx5), lower(ctx5)]) is EMPTY

    def test_single_half_plane_unbounded(self, ctx5):
        assert intersect_halfplanes([upper(ctx5)]) is UNBOUNDED

    def test_strip_unbounded(self, ctx12):
        cons = [
            HalfPlane(0, ctx12.zero(), 1),
            HalfPlane(6, ctx12.i_unit, 1),
        ]
        assert intersect_halfplanes(cons) is UNBOUNDED

    def test_empty_strip(self, ctx12):
        cons = [
            HalfPlane(0, -ctx12.i_unit, 1),  # y > 1
            HalfPlane(6, ctx12.zero(), 1),   # y < 0
        ]
        assert intersect_halfplanes(cons) is EMPTY

    def test_wedge_unbounded(self, ctx12):
        cons = [
            HalfPlane(0, ctx12.zero(), 1),
            HalfPlane(9, ctx12.zero(), 1),
        ]
        assert intersect_halfplanes(cons) is UNBOUNDED

    def test_unit_square(self, ctx12):
        poly = intersect_halfplanes(square_constraints(ctx12))
        expected = [
            ctx12.point(0, 0),
            ctx12.point(1, 0),
            ctx12.point(1, 1),
            ctx12.point(0, 1),
        ]
        assert isinstance(poly, ConvexPolygon)
        assert list(poly.vertices) == expected

    def test_order_independence_and_redundancy(self, ctx12):
        base = intersect_halfplanes(square_constraints(ctx12))
        shuffled = square_constraints(ctx12, shuffle_seed=9)
        # redundant parallel constraint (y > -3) plus an exact duplicate
        shuffled.append(HalfPlane(0, 3 * ctx12.i_unit, 1))
        shuffled.append(square_constraints(ctx12)[0])
        again = intersect_halfplanes(shuffled)
        assert again.key() == base.key()

    def test_triangle(self, ctx12):
        # lambda = zeta_12^11, so lambda^9 = i and lambda^4 = zeta_12^8
        sqrt3 = ctx12.zeta_pow(1) + ctx12.zeta_pow(1).conj()
        cons = [
            HalfPlane(9, ctx12.zero(), 1),     # x > 0
            HalfPlane(0, ctx12.zero(), 1),     # y > 0
            HalfPlane(4, ctx12.i_unit, 1),     # sqrt(3)*x + y < 2
        ]
        poly = intersect_halfplanes(cons)
        assert isinstance(poly, ConvexPolygon)
        assert list(poly.vertices) == [ctx12.zero(), sqrt3 * Fraction(2, 3), ctx12.point(0, 2)]

    def test_point_degenerate_is_empty(self, ctx12):
        # three grid lines through (1, 1) whose inward normals are 120 degrees
        # apart: the closed intersection is that single point
        p = ctx12.point(1, 1)
        cons = [HalfPlane(t, -(ctx12.lam_pow(t) * p), 1) for t in (0, 4, 8)]
        assert intersect_halfplanes(cons) is EMPTY

    def test_odd_q_antiparallel_strip_empty(self, ctx5):
        # for q = 5, -lambda^k is no power of lambda: the far side of a line
        # is reached only through side -1
        below_zero = HalfPlane(1, ctx5.zero(), -1)  # Im(lambda w) < 0
        above_one = HalfPlane(1, -ctx5.i_unit, 1)  # Im(lambda w) > 1
        above_zero = HalfPlane(1, ctx5.zero(), 1)  # Im(lambda w) > 0
        assert intersect_halfplanes([above_one, below_zero]) is EMPTY
        assert intersect_halfplanes([above_zero, below_zero]) is EMPTY

    def test_odd_q_strip_unbounded(self, ctx5):
        # 0 < Im(lambda w) < 1
        cons = [HalfPlane(1, ctx5.zero(), 1), HalfPlane(1, -ctx5.i_unit, -1)]
        assert intersect_halfplanes(cons) is UNBOUNDED

    def test_odd_q_wedge_unbounded(self, ctx5):
        cons = [
            HalfPlane(0, ctx5.zero(), 1),
            HalfPlane(1, ctx5.zero(), 1),
            HalfPlane(3, ctx5.zero(), -1),
        ]
        assert intersect_halfplanes(cons) is UNBOUNDED

    def test_random_grid_constraints_around_interior_point(self, ctx5, ctx12):
        # lines of random grid directions through a few shared quarter-grid
        # points, so that several often meet in one vertex, each oriented to
        # hold the point c strictly inside
        rng = random.Random(11)

        def quarter_point(ctx):
            return ctx.point(Fraction(rng.randint(-6, 6), 4), Fraction(rng.randint(-6, 6), 4))

        polygons = 0
        for ctx in (ctx5, ctx12):
            for _ in range(60):
                c = quarter_point(ctx)
                anchors = [quarter_point(ctx) for _ in range(3)]
                cons = []
                for _ in range(rng.randint(3, 2 * ctx.q)):
                    t = rng.randrange(ctx.q)
                    b = -(ctx.lam_pow(t) * rng.choice(anchors))
                    s = sign_of_imag(ctx.lam_pow(t) * c + b)
                    if s != Sign.ZERO:
                        cons.append(HalfPlane(t, b, int(s)))
                poly = intersect_halfplanes(cons)
                assert poly is not EMPTY
                if poly is UNBOUNDED:
                    continue
                polygons += 1
                assert polygon_contains(poly, c) == Location.INTERIOR
                for v in poly.vertices:
                    assert all(h.side_of(v) * h.side >= 0 for h in cons)
                for a, b in poly.edges():
                    assert orientation(a, b, c) == Sign.POSITIVE
                    assert any(
                        h.side_of(a) == Sign.ZERO and h.side_of(b) == Sign.ZERO and h.contains(c)
                        for h in cons
                    )
        assert polygons >= 30

    def test_vertices_respect_all_constraints(self, ctx12):
        cons = square_constraints(ctx12)
        poly = intersect_halfplanes(cons)
        for h in cons:
            for v in poly.vertices:
                assert h.side_of(v) != (
                    Sign.NEGATIVE if h.side > 0 else Sign.POSITIVE
                )
        centroid = poly.vertices[0]
        for v in poly.vertices[1:]:
            centroid = centroid + v
        centroid = centroid / len(poly.vertices)
        for h in cons:
            assert h.contains(centroid)

    def test_rejects_empty_input(self):
        with pytest.raises(ParameterError):
            intersect_halfplanes([])


class TestPolygon:
    def test_make_polygon_canonicalizes(self, ctx12):
        verts = [ctx12.point(1, 0), ctx12.point(1, 1), ctx12.point(0, 1), ctx12.point(0, 0)]
        p = make_polygon(verts)
        assert p.vertices[0] == ctx12.point(0, 0)

    def test_rejects_clockwise(self, ctx12):
        verts = [ctx12.point(0, 0), ctx12.point(0, 1), ctx12.point(1, 1), ctx12.point(1, 0)]
        with pytest.raises(ParameterError):
            make_polygon(verts)

    def test_rejects_collinear(self, ctx12):
        verts = [ctx12.point(0, 0), ctx12.point(1, 0), ctx12.point(2, 0), ctx12.point(1, 1)]
        with pytest.raises(ParameterError):
            make_polygon(verts)

    def test_contains(self, ctx12):
        p = intersect_halfplanes(square_constraints(ctx12))
        assert polygon_contains(p, ctx12.point(Fraction(1, 2), Fraction(1, 2))) == Location.INTERIOR
        assert polygon_contains(p, ctx12.point(Fraction(1, 2), 0)) == Location.BOUNDARY
        assert polygon_contains(p, ctx12.point(1, 1)) == Location.BOUNDARY
        assert polygon_contains(p, ctx12.point(2, 2)) == Location.EXTERIOR
        assert polygon_contains(p, ctx12.point(Fraction(1, 2), -1)) == Location.EXTERIOR

    def test_regularity(self, ctx12):
        square = intersect_halfplanes(square_constraints(ctx12))
        assert polygon_is_regular(square)
        rect = make_polygon(
            [ctx12.point(0, 0), ctx12.point(2, 0), ctx12.point(2, 1), ctx12.point(0, 1)]
        )
        assert not polygon_is_regular(rect)
        tri = make_polygon([ctx12.point(0, 0), ctx12.point(2, 0), ctx12.point(0, 1)])
        assert not polygon_is_regular(tri)

    def test_apply_affine_is_rigid(self, ctx12):
        square = intersect_halfplanes(square_constraints(ctx12))
        g = affine_along(ctx12, (1, -1, 1))
        img = apply_affine(square, g)
        assert {v.coeffs for v in img.vertices} == {g(v).coeffs for v in square.vertices}
        assert polygon_is_regular(img)


class TestEdgeDirections:
    def test_rotated_axis_directions(self, ctx12):
        sqrt3 = ctx12.zeta_pow(1) + ctx12.zeta_pow(1).conj()
        assert edge_direction_power(ctx12, ctx12.from_rational(5)) == 0
        assert edge_direction_power(ctx12, ctx12.lam_pow(2) * 3) == 2
        assert edge_direction_power(ctx12, sqrt3 + ctx12.i_unit) == 5
        assert edge_direction_power(ctx12, ctx12.point(1, 1)) is None

    def test_q5_off_grid(self, ctx5):
        assert edge_direction_power(ctx5, ctx5.point(1, 1)) is None
        assert edge_direction_power(ctx5, ctx5.lambda_ * 2) == 1


class TestSegments:
    def test_clip_long_segment(self, ctx5):
        seg = ExactSegment(ctx5.point(-10, 0), ctx5.point(10, 0))
        box = Box(-3, -3, 3, 3)
        out = clip_segment_to_box(seg, box)
        assert out.a == ctx5.point(-3, 0) and out.b == ctx5.point(3, 0)

    def test_clip_inside_unchanged(self, ctx5):
        seg = ExactSegment(ctx5.point(-1, 1), ctx5.point(2, 2), depth=4)
        out = clip_segment_to_box(seg, Box(-3, -3, 3, 3))
        assert out.a == seg.a and out.b == seg.b and out.depth == 4

    def test_corner_touch_suppressed(self, ctx5):
        seg = ExactSegment(ctx5.point(2, 4), ctx5.point(4, 2))
        assert clip_segment_to_box(seg, Box(-3, -3, 3, 3)) is None

    def test_disjoint(self, ctx5):
        seg = ExactSegment(ctx5.point(5, 5), ctx5.point(6, 9))
        assert clip_segment_to_box(seg, Box(-3, -3, 3, 3)) is None

    def test_point_on_segment(self, ctx5):
        seg = ExactSegment(ctx5.point(0, 0), ctx5.point(4, 2))
        assert point_on_segment(seg, ctx5.point(2, 1))
        assert point_on_segment(seg, seg.a) and point_on_segment(seg, seg.b)
        assert not point_on_segment(seg, ctx5.point(6, 3))
        assert not point_on_segment(seg, ctx5.point(2, 2))

    def test_orientation(self, ctx5):
        o, a, b = ctx5.point(0, 0), ctx5.point(1, 0), ctx5.point(0, 1)
        assert orientation(o, a, b) == Sign.POSITIVE
        assert orientation(o, b, a) == Sign.NEGATIVE
        assert orientation(o, a, ctx5.point(2, 0)) == Sign.ZERO
