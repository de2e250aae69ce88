import math
import random
import sys
from fractions import Fraction

import pytest

from pwrot.casestudy import golden_context, pentagon_centers
from pwrot.critical import window
from pwrot.cyclo import (
    CycloNum,
    FieldContext,
    Sign,
    _fixed_nodes,
    make_field,
    sign_of_imag,
    sign_of_real,
)
from pwrot.dynamics import AffineMap, minimal_period, step
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
    grid_corner,
    intersect_halfplanes,
    make_polygon,
    polygon_contains,
    polygon_is_regular,
    vertex_average,
)
from pwrot.errors import ParameterError
from pwrot import geometry, tiles
from pwrot.tiles import scan_region, tile_from_seed

from affine import affine_along, pulled_back
from fieldops import squared_abs
from segments import orientation, point_on_segment
from test_acceptance import SCANS


@pytest.fixture(scope="module")
def ctx5():
    return make_field(4, 5)


@pytest.fixture(scope="module")
def ctx12():
    return make_field(11, 12)


def upper(ctx):
    """The open upper half plane as a constraint."""
    return HalfPlane(0, ctx.zero())  # y > 0


def lower(ctx):
    return HalfPlane(ctx.m // 2, ctx.zero())  # y < 0


def through(e, w):
    """The half-plane Im(zeta^e * v) > Im(zeta^e * w), on whose line w lies."""
    return HalfPlane(e, -(w.ctx.zeta_pow(e) * w))


def opposite(h):
    """The open half-plane on the other side of h's line."""
    m = h.c.ctx.m
    return HalfPlane((h.e + m // 2) % m, -h.c)


def region(constraints):
    """The region of ``intersect_halfplanes``, without its vertex average."""
    return intersect_halfplanes(constraints)[0]


# the predicates of the tile build: decided on enclosures, on no enclosure
# (every test exact), or on enclosures too wide to decide anything
SWEEP_MODES = ["enclosed", "exact_predicates", "exact_enclosures"]


def use_mode(request, mode):
    """Switch the predicates to ``mode``, one of ``SWEEP_MODES``, for the
    rest of the test."""
    if mode != "enclosed":
        request.getfixturevalue(mode)


def side_of(h, w):
    """Sign of Im(zeta^e * w + c), by one field product: a reference that
    shares no code with ``geometry._side``."""
    return sign_of_imag(h.c.ctx.zeta_pow(h.e) * w + h.c)


def holds(h, w):
    """w lies in the open half-plane h."""
    return side_of(h, w) == Sign.POSITIVE


class TestHalfPlaneFromConstraint:
    """{w : s * Im(G(w)) > 0} for a branch composition G is HalfPlane(e, c)
    with e = t0 * G.power (+ m/2 when s < 0) and c = s * G.offset."""

    def test_identity_gives_half_planes(self, ctx5):
        ident = AffineMap(0, ctx5.zero())
        hp = pulled_back(ctx5, ident.power, ident.offset, 1)
        hm = pulled_back(ctx5, ident.power, ident.offset, -1)
        assert (hp, hm) == (HalfPlane(0, ctx5.zero()), HalfPlane(10, ctx5.zero()))
        assert holds(hp, ctx5.point(0, 1))
        assert not holds(hp, ctx5.point(0, -1))
        assert holds(hm, ctx5.point(0, -1))
        assert not holds(hm, ctx5.point(3, 0))

    def test_one_step_preimage(self, ctx5):
        # membership in the pulled-back constraint agrees with the branch of
        # the stepped point, checked by brute force on upper-half samples
        g = affine_along(ctx5, (1,))
        hp, hm = pulled_back(ctx5, g.power, g.offset, 1), pulled_back(ctx5, g.power, g.offset, -1)
        # lambda = zeta^16 in Q(zeta_20), and -lambda = zeta^6
        assert (hp, hm) == (HalfPlane(16, g.offset), HalfPlane(6, -g.offset))
        assert hm == opposite(hp)
        rng = random.Random(42)
        for _ in range(30):
            w = ctx5.point(Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(1, 20), 3))
            assert holds(hp, w) == (sign_of_imag(step(w)) == Sign.POSITIVE)
            assert holds(hm, w) == (sign_of_imag(step(w)) == Sign.NEGATIVE)


def square_constraints(ctx12, shuffle_seed=None):
    # exponents 0, 9, 6, 3 of zeta_12 (1, -i, -1, i) are the four axes;
    # offsets carve the unit square
    i = ctx12.i_unit
    cons = [
        HalfPlane(0, ctx12.zero()),   # y > 0
        HalfPlane(9, i),              # x < 1
        HalfPlane(6, i),              # y < 1
        HalfPlane(3, ctx12.zero()),   # x > 0
    ]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(cons)
    return cons


class TestIntersectHalfplanes:
    def test_opposite_half_planes_empty(self, ctx5):
        assert region([upper(ctx5), lower(ctx5)]) is EMPTY

    def test_single_half_plane_unbounded(self, ctx5):
        assert region([upper(ctx5)]) is UNBOUNDED

    def test_strip_unbounded(self, ctx12):
        cons = [
            HalfPlane(0, ctx12.zero()),    # y > 0
            HalfPlane(6, ctx12.i_unit),    # y < 1
        ]
        assert region(cons) is UNBOUNDED

    def test_empty_strip(self, ctx12):
        cons = [
            HalfPlane(0, -ctx12.i_unit),  # y > 1
            HalfPlane(6, ctx12.zero()),   # y < 0
        ]
        assert region(cons) is EMPTY

    def test_wedge_unbounded(self, ctx12):
        cons = [
            HalfPlane(0, ctx12.zero()),   # y > 0
            HalfPlane(3, ctx12.zero()),   # x > 0
        ]
        assert region(cons) is UNBOUNDED

    def test_unit_square(self, ctx12):
        poly = region(square_constraints(ctx12))
        expected = [
            ctx12.point(0, 0),
            ctx12.point(1, 0),
            ctx12.point(1, 1),
            ctx12.point(0, 1),
        ]
        assert isinstance(poly, ConvexPolygon)
        assert list(poly.vertices) == expected

    def test_order_independence_and_redundancy(self, ctx12):
        base = region(square_constraints(ctx12))
        shuffled = square_constraints(ctx12, shuffle_seed=9)
        # redundant parallel constraint (y > -3) plus an exact duplicate
        shuffled.append(HalfPlane(0, 3 * ctx12.i_unit))
        shuffled.append(square_constraints(ctx12)[0])
        again = region(shuffled)
        assert again.key() == base.key()

    def test_triangle(self, ctx12):
        # zeta_12^3 = i and zeta_12^8 = -(1 + sqrt(3) i)/2
        sqrt3 = ctx12.zeta_pow(1) + ctx12.zeta_pow(1).conj()
        cons = [
            HalfPlane(3, ctx12.zero()),     # x > 0
            HalfPlane(0, ctx12.zero()),     # y > 0
            HalfPlane(8, ctx12.i_unit),     # sqrt(3)*x + y < 2
        ]
        poly = region(cons)
        assert isinstance(poly, ConvexPolygon)
        assert list(poly.vertices) == [ctx12.zero(), sqrt3 * Fraction(2, 3), ctx12.point(0, 2)]

    def test_point_degenerate_is_empty(self, ctx12):
        # three grid lines through (1, 1) whose inward normals are 120 degrees
        # apart: the closed intersection is that single point
        p = ctx12.point(1, 1)
        cons = [through(e, p) for e in (0, 8, 4)]
        assert region(cons) is EMPTY

    def test_odd_q_antiparallel_strip_empty(self, ctx5):
        # for q = 5, -lambda = zeta^6 is no power of lambda = zeta^16 (those
        # are the multiples of 4 mod 20): the far side of a line has its own
        # exponent
        below_zero = HalfPlane(6, ctx5.zero())  # Im(lambda w) < 0
        above_one = HalfPlane(16, -ctx5.i_unit)  # Im(lambda w) > 1
        above_zero = HalfPlane(16, ctx5.zero())  # Im(lambda w) > 0
        assert region([above_one, below_zero]) is EMPTY
        assert region([above_zero, below_zero]) is EMPTY

    def test_odd_q_strip_unbounded(self, ctx5):
        # 0 < Im(lambda w) < 1
        cons = [HalfPlane(16, ctx5.zero()), HalfPlane(6, ctx5.i_unit)]
        assert region(cons) is UNBOUNDED

    def test_odd_q_wedge_unbounded(self, ctx5):
        cons = [
            HalfPlane(0, ctx5.zero()),    # Im(w) > 0
            HalfPlane(16, ctx5.zero()),   # Im(lambda w) > 0
            HalfPlane(18, ctx5.zero()),   # Im(lambda^3 w) < 0
        ]
        assert region(cons) is UNBOUNDED

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_random_grid_constraints_around_interior_point(self, ctx5, ctx12, request, mode):
        # lines of random grid directions through a few shared quarter-grid
        # points, so that several often meet in one vertex, each oriented to
        # hold the point c strictly inside; every mode gives the results of
        # the enclosed predicates
        rng = random.Random(11)

        def quarter_point(ctx):
            return ctx.point(Fraction(rng.randint(-6, 6), 4), Fraction(rng.randint(-6, 6), 4))

        systems = []
        for ctx in (ctx5, ctx12):
            for _ in range(60):
                c = quarter_point(ctx)
                anchors = [quarter_point(ctx) for _ in range(3)]
                cons = []
                for _ in range(rng.randint(3, 2 * ctx.q)):
                    h = through(ctx.t0 * rng.randrange(ctx.q) % ctx.m, rng.choice(anchors))
                    s = side_of(h, c)
                    if s != Sign.ZERO:
                        cons.append(h if s > 0 else opposite(h))
                systems.append((ctx, c, cons))
        enclosed = [region(cons) for _, _, cons in systems]
        use_mode(request, mode)

        polygons = 0
        for (ctx, c, cons), expected in zip(systems, enclosed):
            poly = region(cons)
            assert poly == expected
            assert poly is not EMPTY
            assert len(geometry._binding_offsets(cons)) <= ctx.m
            assert region(h for h in cons) == poly
            if poly is UNBOUNDED:
                continue
            polygons += 1
            assert polygon_contains(poly, c) == Location.INTERIOR
            for v in poly.vertices:
                assert all(side_of(h, v) != Sign.NEGATIVE for h in cons)
            for a, b in poly.edges():
                assert orientation(a, b, c) == Sign.POSITIVE
                assert any(
                    side_of(h, a) == Sign.ZERO and side_of(h, b) == Sign.ZERO and holds(h, c)
                    for h in cons
                )
        assert polygons >= 30

    def test_vertices_respect_all_constraints(self, ctx12):
        cons = square_constraints(ctx12)
        poly = region(cons)
        for h in cons:
            for v in poly.vertices:
                assert side_of(h, v) != Sign.NEGATIVE
        centroid = poly.vertices[0]
        for v in poly.vertices[1:]:
            centroid = centroid + v
        centroid = centroid / len(poly.vertices)
        for h in cons:
            assert holds(h, centroid)

    def test_rejects_empty_input(self):
        with pytest.raises(ParameterError):
            region([])

    def test_average_is_the_certified_vertex_average(self, ctx5, ctx12):
        poly, average = intersect_halfplanes(square_constraints(ctx12))
        assert average == vertex_average(poly.vertices) == ctx12.point(Fraction(1, 2), Fraction(1, 2))
        assert intersect_halfplanes([upper(ctx5), lower(ctx5)]) == (EMPTY, None)
        assert intersect_halfplanes([upper(ctx5)]) == (UNBOUNDED, None)


def box_faces(ctx, box):
    """The four faces of a box as grid half-planes: zeta^(m/4) = i, so
    Im(zeta^e * w) is y, x, -y and -x for e = 0, m/4, m/2 and 3m/4."""
    m, i = ctx.m, ctx.i_unit
    return [HalfPlane(0, -box.y0 * i), HalfPlane(m // 4, -box.x0 * i),
            HalfPlane(m // 2, box.y1 * i), HalfPlane(3 * m // 4, box.x1 * i)]


class TestBoxFaces:
    """A box face x = x0 has exponent m/4, which at odd q is no class of a
    pulled-back constraint (those are t0*t and t0*t + m/2, even mod m), yet
    it is a grid half-plane like any other."""

    @pytest.mark.parametrize("p, q", [(4, 5), (3, 7)])
    def test_faces_intersect_to_the_rectangle(self, p, q):
        ctx = make_field(p, q)
        box = Box(Fraction(-1, 3), Fraction(1, 2), Fraction(5, 4), 2)
        poly, average = intersect_halfplanes(box_faces(ctx, box))
        assert list(poly.vertices) == [ctx.point(box.x0, box.y0), ctx.point(box.x1, box.y0),
                                       ctx.point(box.x1, box.y1), ctx.point(box.x0, box.y1)]
        assert average == ctx.point((box.x0 + box.x1) / 2, (box.y0 + box.y1) / 2)

    def test_faces_cut_the_tile_of_p1(self):
        # P1's pentagon spans about -1.31 < x < -0.93, 0 < y < 0.36, so the
        # faces x >= -6/5 and y >= 1/10 cut it and the others miss it
        p1 = pentagon_centers(golden_context(), 1)[1]
        ctx = p1.ctx
        tile = tile_from_seed(p1, 100)
        rec = minimal_period(p1, 100, nominate=True)
        cons = tiles._nominee_halfplanes(rec, tile.period) + box_faces(
            ctx, Box(Fraction(-6, 5), Fraction(1, 10), 0, 1))
        poly, average = intersect_halfplanes(cons)
        assert isinstance(poly, ConvexPolygon) and poly != tile.polygon
        assert ctx.point(Fraction(-6, 5), Fraction(1, 10)) in poly.vertices
        assert polygon_contains(tile.polygon, average) == Location.INTERIOR
        for h in cons:
            assert all(side_of(h, v) != Sign.NEGATIVE for v in poly.vertices)
            assert holds(h, average)


def swept_and_rechecked(constraints):
    """(ring, result) with the earlier final check of intersect_halfplanes,
    every ring vertex against every constraint, in place of the one-point
    certificate; ring is the sweep's vertex ring, or None when the system is
    rejected before the sweep."""
    ctx = constraints[0].c.ctx
    m, half = ctx.m, ctx.m // 2
    offset = geometry._binding_offsets(constraints)
    for e, b in offset.items():
        if e < half and e + half in offset and sign_of_imag(b + offset[e + half]) != Sign.POSITIVE:
            return None, EMPTY
    exps = sorted(offset)
    if any(f - e >= half for e, f in zip(exps, exps[1:] + [exps[0] + m])):
        return None, UNBOUNDED
    ring = geometry._sweep(offset)
    if len(set(ring)) < 3 or any(
        geometry._side(offset, e, w) == Sign.NEGATIVE for e in exps for w in ring
    ):
        return ring, EMPTY
    return ring, make_polygon(ring)


def random_grid_system(ctx, rng, kind):
    """Grid constraints through a few shared half-integer points: with
    random sides ("random"), three or more lines through one point whose
    closed intersection is that point ("point"), or a strip of width zero
    cut by two more lines ("segment")."""
    q = ctx.q

    def half_point():
        return ctx.point(Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2))

    def direction():
        """The exponent of a random direction lambda^t of the map."""
        return ctx.t0 * rng.randrange(q) % ctx.m

    def either_side(h):
        return h if rng.choice((1, -1)) > 0 else opposite(h)

    if kind == "point":
        # the inward normals zeta^e of lines through w leave no gap of m/2
        w, cons = half_point(), []
        while region(cons or [through(0, w)]) is UNBOUNDED:
            cons.append(either_side(through(direction(), w)))
        return cons
    if kind == "segment":
        h = through(direction(), half_point())
        return [h, opposite(h)] + [
            either_side(through(direction(), half_point())) for _ in range(2)
        ]
    c, anchors = half_point(), [half_point() for _ in range(3)]
    cons = []
    for _ in range(rng.randint(3, 3 * q)):
        h = through(direction(), rng.choice(anchors))
        if side_of(h, c) == Sign.NEGATIVE:
            h = opposite(h)
        cons.append(h if rng.random() < 0.95 else opposite(h))
    return cons


class TestSweepCertificate:
    """The one-point certificate of intersect_halfplanes decides as the
    earlier check of every vertex against every constraint did."""

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_certificate_matches_vertex_recheck(self, request, mode):
        # every mode gives the results of the enclosed predicates
        rng = random.Random(5)
        systems = [
            (kind, random_grid_system(make_field(p, q), rng, kind))
            for p, q in [(4, 5), (11, 12), (3, 7), (1, 4), (1, 3)]
            for kind in ["random"] * 30 + ["point"] * 5 + ["segment"] * 5
        ]
        enclosed = [region(cons) for _, cons in systems]
        use_mode(request, mode)

        seen = {"empty": 0, "unbounded": 0, "polygon": 0}
        for (kind, cons), plain in zip(systems, enclosed):
            ring, expected = swept_and_rechecked(cons)
            assert not (ring and expected is EMPTY)
            result = region(cons)
            assert result == plain
            if expected is EMPTY or expected is UNBOUNDED:
                assert result is expected
                seen["empty" if expected is EMPTY else "unbounded"] += 1
            else:
                assert result == expected
                seen["polygon"] += 1
            if kind != "random":
                assert result is EMPTY
        assert min(seen.values()) >= 20, seen

    def test_ring_of_an_empty_system_is_rejected(self, ctx12, monkeypatch):
        # x > 1, y > 1 and sqrt(3) x + y < 1 bound no point, but the corners
        # of their lines form a triangle.  The sweep keeps fewer than three
        # of them; forced to keep every edge it returns that triangle, and
        # the certificate must reject it, as the check of every vertex
        # against every constraint does.  (No random system in the test
        # above makes the sweep return a ring for an empty intersection.)
        i = ctx12.i_unit
        cons = [HalfPlane(3, -i), HalfPlane(0, -i), HalfPlane(8, i / 2)]
        assert region(cons) is EMPTY
        assert swept_and_rechecked(cons) == ([], EMPTY)

        def keep_every_edge(offset):
            exps = sorted(offset, reverse=True)
            beta = {e: c.imag() for e, c in offset.items()}
            return [
                geometry.grid_corner(f, beta[f], g, beta[g])
                for f, g in zip(exps[-1:] + exps[:-1], exps)
            ]

        square = region(square_constraints(ctx12))
        monkeypatch.setattr(geometry, "_sweep", keep_every_edge)
        ring, result = swept_and_rechecked(cons)
        sqrt3 = ctx12.lam_pow(1).real() * 2
        assert set(ring) == {ctx12.point(1, 1), ctx12.point(0, 1), 1 + i * (1 - sqrt3)}
        assert result is EMPTY
        assert region(cons) is EMPTY
        # on a nonempty system that ring is the sweep's, and it is certified
        assert region(square_constraints(ctx12)) == square


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

    def test_rejects_repeated_vertex(self, ctx12):
        # a repeated vertex makes a zero turn, which strict convexity rejects
        square = [ctx12.point(0, 0), ctx12.point(1, 0), ctx12.point(1, 1), ctx12.point(0, 1)]
        for i in range(4):
            with pytest.raises(ParameterError):
                make_polygon(square[:i + 1] + square[i:])

    def test_contains(self, ctx12):
        p = region(square_constraints(ctx12))
        assert polygon_contains(p, ctx12.point(Fraction(1, 2), Fraction(1, 2))) == Location.INTERIOR
        assert polygon_contains(p, ctx12.point(Fraction(1, 2), 0)) == Location.BOUNDARY
        assert polygon_contains(p, ctx12.point(1, 1)) == Location.BOUNDARY
        assert polygon_contains(p, ctx12.point(2, 2)) == Location.EXTERIOR
        assert polygon_contains(p, ctx12.point(Fraction(1, 2), -1)) == Location.EXTERIOR

    def test_regularity(self, ctx12):
        square = region(square_constraints(ctx12))
        assert polygon_is_regular(square)
        rect = make_polygon(
            [ctx12.point(0, 0), ctx12.point(2, 0), ctx12.point(2, 1), ctx12.point(0, 1)]
        )
        assert not polygon_is_regular(rect)
        tri = make_polygon([ctx12.point(0, 0), ctx12.point(2, 0), ctx12.point(0, 1)])
        assert not polygon_is_regular(tri)

    def test_apply_affine_is_rigid(self, ctx12):
        square = region(square_constraints(ctx12))
        g = affine_along(ctx12, (1, -1, 1))
        img = apply_affine(square, g)
        assert {v.coeffs for v in img.vertices} == {g(v).coeffs for v in square.vertices}
        assert polygon_is_regular(img)


class TestRecords:
    """The geometry's values are immutable and equal by value; a box keeps
    its corners as fractions."""

    def test_box_corners_are_fractions(self):
        box = Box(0, 0, 1, "1/2")
        assert [type(c) for c in (box.x0, box.y0, box.x1, box.y1)] == [Fraction] * 4
        assert box == Box(Fraction(0), 0, 1, Fraction(1, 2)) != Box(0, 0, 1, 1)
        assert hash(box) == hash(Box(Fraction(0), 0, 1, Fraction(1, 2)))
        assert repr(box) == ("Box(x0=Fraction(0, 1), y0=Fraction(0, 1),"
                             " x1=Fraction(1, 1), y1=Fraction(1, 2))")

    @pytest.mark.parametrize("corners", [(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0)])
    def test_empty_box_is_rejected(self, corners):
        with pytest.raises(ParameterError):
            Box(*corners)

    def test_records_are_frozen(self, ctx12):
        z = ctx12.point(1, 1)
        square = region(square_constraints(ctx12))
        records = [(Box(0, 0, 1, 1), "x0"), (HalfPlane(0, z), "c"), (square, "vertices"),
                   (ExactSegment(z, 2 * z, 0), "depth"), (AffineMap(1, z), "offset")]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_polygon_length_is_its_vertex_count(self, ctx12):
        square = region(square_constraints(ctx12))
        assert len(square) == len(square.vertices) == 4


def regular_by_sides_and_angles(p):
    """The reference for ``polygon_is_regular``: equal squared side lengths
    and equal dot products of consecutive edges, by 2n field products."""
    v = p.vertices
    n = len(v)
    edges = [v[(i + 1) % n] - v[i] for i in range(n)]
    side2 = squared_abs(edges[0])
    dot0 = (edges[0].conj() * edges[1]).real()
    return all(squared_abs(e) == side2 for e in edges) and all(
        (edges[i].conj() * edges[(i + 1) % n]).real() == dot0 for i in range(n)
    )


def direction_by_product(ctx, d):
    """The reference for ``edge_direction_power``: the least t with
    Im(d * conj(lambda^t)) = 0, by a field product per t."""
    return next((t for t in range(ctx.q) if (d * ctx.lam_pow(t).conj()).imag().is_zero()), None)


# small scans whose tiles include regular q- and 2q-gons, irregular hexagons
# and octagons at 11/12 (8 does not divide m = 12), irregular pentagons at
# 3/7 and irregular 12-gons at 1/9 (12 divides m = 36)
REGULARITY_SCANS = [
    ((4, 5), Box(-3, -3, 3, 3), Fraction(1, 2)),
    ((11, 12), Box(-1, -1, 3, 2), Fraction(1, 4)),
    ((3, 7), Box(-2, -2, 2, 2), Fraction(1, 3)),
    ((1, 8), Box(-2, -2, 2, 2), Fraction(1, 3)),
    ((1, 9), Box(-2, -2, 2, 2), Fraction(1, 3)),
]


@pytest.fixture(scope="module")
def scanned_polygons():
    polygons = []
    for (p, q), box, grid in REGULARITY_SCANS:
        polygons += [t.polygon for t in scan_region(make_field(p, q), box, grid, 3000).tile_list]
    return polygons


def built_polygons(ctx12, ctx5):
    """(polygon, regular) for polygons built by hand in Q(zeta_12) and
    Q(zeta_20)."""
    sqrt3 = ctx12.zeta_pow(1) + ctx12.zeta_pow(1).conj()
    i = ctx12.i_unit
    hexagon_edges = [ctx12.zeta_pow(2 * k) * (2 if k % 2 else 1) for k in range(6)]
    equiangular = [ctx12.zero()]
    for e in hexagon_edges[:-1]:
        equiangular.append(equiangular[-1] + e)
    return [
        (region(square_constraints(ctx12)), True),
        (make_polygon([ctx12.point(0, 0), ctx12.point(2, 0), ctx12.point(2, 1),
                       ctx12.point(0, 1)]), False),
        # side 2, angles of 60 and 120 degrees
        (make_polygon([ctx12.zero(), ctx12.point(2, 0), 3 + i * sqrt3, 1 + i * sqrt3]), False),
        # sides 1, 2, 1, 2, 1, 2 at 120 degrees each
        (make_polygon(equiangular), False),
        (make_polygon([ctx12.zeta_pow(2 * k) for k in range(6)]), True),
        (make_polygon([ctx12.zero(), ctx12.one(), ctx12.zeta_pow(2)]), True),
        (make_polygon([ctx12.zeta_pow(k) for k in (0, 3, 4, 6, 9)]), False),
        (make_polygon([ctx12.zeta_pow(k) for k in (0, 2, 3, 4, 6, 8, 9, 10)]), False),
        (pentagon(ctx5), True),
        (make_polygon([ctx5.point(0, 0), ctx5.point(1, 0), ctx5.point(0, 1)]), False),
    ]


class TestRegularityByRotation:
    """``polygon_is_regular`` tests one rotation per edge and
    ``edge_direction_power`` one rotation of the edge, by ``mul_zeta``
    alone; both agree with the earlier formulas built on field products."""

    def test_scanned_tiles_match_the_reference(self, scanned_polygons):
        regular = [polygon_is_regular(p) for p in scanned_polygons]
        assert regular == [regular_by_sides_and_angles(p) for p in scanned_polygons]
        assert len(regular) >= 100 and 0 < regular.count(False) < regular.count(True)
        for p in scanned_polygons:
            ctx = p.vertices[0].ctx
            for a, b in p.edges():
                assert edge_direction_power(ctx, b - a) == direction_by_product(ctx, b - a)

    def test_built_polygons(self, ctx12, ctx5):
        for poly, regular in built_polygons(ctx12, ctx5):
            assert polygon_is_regular(poly) == regular == regular_by_sides_and_angles(poly)

    def test_no_field_product(self, ctx12, ctx5, scanned_polygons, monkeypatch):
        products = []

        def counted(fn):
            def wrapper(*args):
                products.append(fn.__name__)
                return fn(*args)
            return wrapper

        polygons = [p for p, _ in built_polygons(ctx12, ctx5)] + scanned_polygons
        for owner, name in ((CycloNum, "__mul__"), (CycloNum, "__rmul__"),
                            (FieldContext, "_mul_vecs")):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
        for p in polygons:
            polygon_is_regular(p)
            for a, b in p.edges():
                edge_direction_power(p.vertices[0].ctx, b - a)
        assert products == []
        assert ctx12.point(1, 1) * ctx12.i_unit == ctx12.point(-1, 1) and products


def regular_by_vertex_average(p):
    """The reference for ``polygon_is_regular`` before it tested edges:
    n | m and v_i - c = zeta^(m/n) * (v_(i-1) - c) for every i, with c the
    vertex average."""
    v = p.vertices
    n, m = len(v), v[0].ctx.m
    if m % n:
        return False
    arms = [w - vertex_average(v) for w in v]
    return all(arms[i - 1].mul_zeta(m // n) == arms[i] for i in range(n))


@pytest.fixture(scope="module")
def acceptance_polygons():
    """The tiles of the acceptance scans, as tests/test_acceptance.py lists them."""
    return [t.polygon for (p, q), box, grid, budget in SCANS.values()
            for t in scan_region(make_field(p, q), box, grid, budget, max_tile_period=2000).tile_list]


class TestRegularityByEdges:
    """The edge rule, e_i = zeta^(m/n) * e_(i-1) for every edge, decides as
    the vertex-average rule and the side-and-angle rule do."""

    def test_acceptance_tiles(self, acceptance_polygons):
        regular = [polygon_is_regular(p) for p in acceptance_polygons]
        assert regular == [regular_by_vertex_average(p) for p in acceptance_polygons]
        assert regular == [regular_by_sides_and_angles(p) for p in acceptance_polygons]
        assert True in regular and False in regular

    @pytest.mark.parametrize("pq", [(11, 12), (4, 5), (3, 7)])
    def test_constructed_ngons(self, pq):
        # for each n from 3 to 11 (n < m): if n | m, the regular n-gon
        # zeta^(i*m/n) moved by an affine map, and an unevenly spaced n-gon
        # of m-th roots of unity; if not, two n-gons of m-th roots of unity
        ctx = make_field(*pq)
        m = ctx.m
        rng = random.Random(m)
        scale, shift = ctx.point(Fraction(3, 2), Fraction(-1, 3)), ctx.point(2, Fraction(1, 5))
        seen = set()
        for n in range(3, 12):
            polygons = []
            if m % n == 0:
                polygons.append((make_polygon([shift + scale * ctx.zeta_pow(i * m // n)
                                               for i in range(n)]), True))
            while len(polygons) < 2:
                exps = sorted(rng.sample(range(m), n))
                if m % n or any(b - a != m // n for a, b in zip(exps, exps[1:])):
                    polygons.append((make_polygon([ctx.zeta_pow(e) for e in exps]), False))
            for poly, regular in polygons:
                assert polygon_is_regular(poly) == regular_by_vertex_average(poly) == regular
                assert regular_by_sides_and_angles(poly) == regular
                seen.add((m % n == 0, regular))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_near_misses_at_m20(self, ctx5):
        # an equilateral rhombus with angles of 72 and 108 degrees, and an
        # equiangular 2 x 1 rectangle: 4 | 20, and neither is regular
        w = ctx5.zeta_pow(4)
        rhombus = make_polygon([ctx5.zero(), ctx5.one(), 1 + w, w])
        rectangle = make_polygon([ctx5.point(0, 0), ctx5.point(2, 0), ctx5.point(2, 1),
                                  ctx5.point(0, 1)])
        assert ctx5.m == 20
        assert len({squared_abs(b - a) for a, b in rhombus.edges()}) == 1
        assert len({squared_abs(b - a) for a, b in rectangle.edges()}) == 2
        for poly in (rhombus, rectangle):
            assert not polygon_is_regular(poly)
            assert not regular_by_vertex_average(poly)
            assert not regular_by_sides_and_angles(poly)


@pytest.fixture
def exact_signs(monkeypatch):
    """Records, for each exact sign test a geometry predicate falls back to,
    the name of the function that ran it."""
    calls = []

    def counting(fn):
        def counted(a):
            calls.append(sys._getframe(1).f_code.co_name)
            return fn(a)
        return counted

    monkeypatch.setattr(geometry, "sign_of_imag", counting(sign_of_imag))
    monkeypatch.setattr(geometry, "sign_of_real", counting(sign_of_real))
    return calls


def all_exact(fn, *args):
    """fn(*args) with no enclosure deciding a sign: the exact reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_decide", lambda t, err: None)
        return fn(*args)


def pentagon(ctx5):
    """The regular pentagon of the fifth roots of unity, lambda^t at 4/5:
    irrational vertices, and its two leftmost vertices share a real part."""
    return make_polygon([ctx5.lam_pow(t) for t in (0, 4, 3, 2, 1)])


HAIR = Fraction(1, 10 ** 30)


def through_holding_center(ctx12, t, w):
    """The constraint on the grid line through w along lambda^-t that holds
    the center of the unit square."""
    h = through(ctx12.t0 * t % ctx12.m, w)
    return h if holds(h, ctx12.point(Fraction(1, 2), Fraction(1, 2))) else opposite(h)


class TestPredicateCertificate:
    """The tile build's predicates are decided by integer enclosures and
    take the exact test only where those leave the sign open: a point on a
    line, a tie, or a point a hair off a line.  Each case reaches the exact
    test on its own, and its result matches the one with every predicate
    decided exactly."""

    def test_point_on_an_edge(self, ctx5, exact_signs):
        p = pentagon(ctx5)
        for a, b in p.edges():
            for z in (a, (a + b) / 2, (2 * a + b) / 3):
                del exact_signs[:]
                assert polygon_contains(p, z) == Location.BOUNDARY
                assert "_turn" in exact_signs
                assert all_exact(polygon_contains, p, z) == Location.BOUNDARY
        assert polygon_contains(p, ctx5.zero()) == Location.INTERIOR

    def test_collinear_triple(self, ctx5, exact_signs):
        verts = list(pentagon(ctx5).vertices)
        for i in range(len(verts)):
            a, b = verts[i - 1], verts[i]
            mid = (a + 2 * b) / 3
            del exact_signs[:]
            assert orientation(a, mid, b) == Sign.ZERO
            assert exact_signs == ["_turn"]
            with pytest.raises(ParameterError):
                make_polygon(verts[:i] + [mid] + verts[i:])

    def test_equal_real_parts_tie_for_the_start(self, ctx5, exact_signs):
        # lambda^3 and lambda^2 are conjugate, so both have the least real
        # part; the imaginary part puts lambda^2 first
        verts = [ctx5.lam_pow(t) for t in (0, 4, 3, 2, 1)]
        for r in range(5):
            del exact_signs[:]
            p = make_polygon(verts[r:] + verts[:r])
            assert p.vertices[0] == ctx5.lam_pow(2)
            assert "_cmp_points" in exact_signs
            assert all_exact(make_polygon, verts[r:] + verts[:r]) == p

    @pytest.mark.parametrize("t", [4, 5])
    def test_redundant_constraint_through_a_vertex(self, ctx12, exact_signs, t):
        # the grid line through (1, 1) along lambda^-t (120 or 150 degrees)
        # touches the unit square only there
        cons = square_constraints(ctx12) + [through_holding_center(ctx12, t, ctx12.point(1, 1))]
        square = region(square_constraints(ctx12))
        del exact_signs[:]
        assert region(cons) == square
        assert "_side" in exact_signs
        assert all_exact(region, cons) == square

    def test_nested_constraints_on_one_line(self, ctx12, exact_signs):
        # y > 0 again, with an offset whose imaginary part is that of y > 0's
        # but whose vector is not: the binding pass keeps the first of the
        # two, in either order
        sqrt3 = ctx12.zeta_pow(1) + ctx12.zeta_pow(1).conj()
        square = region(square_constraints(ctx12))
        for extra in (HalfPlane(0, sqrt3), HalfPlane(0, -sqrt3)):
            for cons in (square_constraints(ctx12) + [extra], [extra] + square_constraints(ctx12)):
                del exact_signs[:]
                assert geometry._binding_offsets(cons)[0] == cons[0].c
                assert exact_signs == ["_binding_offsets"]
                assert region(cons) == square

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_strip_of_zero_width(self, exact_signs, p, q):
        ctx = make_field(p, q)
        w = ctx.lam_pow(1) / 3 + ctx.point(0, Fraction(1, 7))
        for t in range(ctx.q):
            h = through(ctx.t0 * t % ctx.m, w)
            cons = [h, opposite(h)]
            del exact_signs[:]
            assert region(cons) is EMPTY
            assert exact_signs == ["intersect_halfplanes"]

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_strip_a_hair_wide(self, exact_signs, p, q):
        # Im(lambda^t w) between that of a point and that plus or minus
        # 10^-30: the enclosures of the two offsets cannot tell
        ctx = make_field(p, q)
        w = ctx.lam_pow(1) / 3 + ctx.point(0, Fraction(1, 7))
        for eps in (HAIR, -HAIR):
            for t in range(ctx.q):
                h = through(ctx.t0 * t % ctx.m, w)
                cons = [h, opposite(HalfPlane(h.e, h.c - ctx.point(0, eps)))]
                del exact_signs[:]
                result = region(cons)
                assert result is (UNBOUNDED if eps > 0 else EMPTY)
                assert exact_signs == ["intersect_halfplanes"]
                assert all_exact(region, cons) is result

    def test_point_a_hair_off_an_edge(self, ctx5, ctx12, exact_signs):
        square = region(square_constraints(ctx12))
        for eps, where in ((HAIR, Location.INTERIOR), (-HAIR, Location.EXTERIOR)):
            del exact_signs[:]
            assert polygon_contains(square, ctx12.point(Fraction(1, 2), eps)) == where
            assert "_turn" in exact_signs
        p = pentagon(ctx5)
        for a, b in p.edges():
            mid = (a + b) / 2
            for eps, where in ((HAIR, Location.INTERIOR), (-HAIR, Location.EXTERIOR)):
                z = mid + eps * (ctx5.zero() - mid)  # toward the center 0, or away
                del exact_signs[:]
                assert polygon_contains(p, z) == where
                assert "_turn" in exact_signs
                assert all_exact(polygon_contains, p, z) == where

    def test_vertex_a_hair_off_the_start(self, ctx12, exact_signs):
        # (eps, 1) and (0, 0) compete for the canonical start, their real
        # parts 10^-30 apart
        for eps in (HAIR, -HAIR):
            verts = [ctx12.point(0, 0), ctx12.point(1, 0), ctx12.point(1, 1), ctx12.point(eps, 1)]
            del exact_signs[:]
            p = make_polygon(verts)
            assert p.vertices[0] == (verts[0] if eps > 0 else verts[3])
            assert "_cmp_points" in exact_signs
            assert all_exact(make_polygon, verts) == p

    @pytest.mark.parametrize("t", [4, 5])
    def test_constraint_a_hair_off_a_vertex(self, ctx12, exact_signs, t):
        # the line of the redundant constraint above, moved up by 10^-30
        # (redundant) or down (it cuts a corner off the square)
        square = region(square_constraints(ctx12))
        for eps in (HAIR, -HAIR):
            line = through_holding_center(ctx12, t, ctx12.point(1, 1 + eps))
            cons = square_constraints(ctx12) + [line]
            del exact_signs[:]
            poly = region(cons)
            assert (poly == square) == (eps > 0) and len(poly) == (4 if eps > 0 else 5)
            assert "_side" in exact_signs
            assert all_exact(region, cons) == poly


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


def grid_corner_by_field_ops(e, beta_e, f, beta_f):
    """The grid corner as two rotations, a difference and a field product:
    the reference for the one lattice pass of ``grid_corner``."""
    ctx = beta_e.ctx
    return (beta_e.mul_zeta(-f) - beta_f.mul_zeta(-e)) * geometry._inverse_sine(ctx, (f - e) % ctx.m)


class TestGridCorner:
    # real offsets over these denominators: 1, equal, coprime and sharing
    # a factor without dividing each other (4 and 6, 6 and 10, 9 and 12)
    DENS = (1, 1, 2, 3, 4, 6, 9, 10, 12, 35)

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7), (1, 4)])
    def test_matches_field_ops(self, p, q):
        ctx = make_field(p, q)
        m, rng = ctx.m, random.Random(p * 100 + q)

        def real():
            # 2 Re(a) for integral a, plus a rational of denominator exactly den
            den = rng.choice(self.DENS)
            a = ctx.num([rng.randint(-40, 40) for _ in range(ctx.d)])
            return a + a.conj() + Fraction(rng.randint(-40, 40) * den + 1, den)

        kinds = set()
        for _ in range(200):
            e = rng.randrange(m)
            f = (e + rng.choice([k for k in range(1, m) if k != m // 2])) % m
            beta_e, beta_f = real(), real()
            w = grid_corner(e, beta_e, f, beta_f)
            assert w == grid_corner_by_field_ops(e, beta_e, f, beta_f)
            assert w.mul_zeta(e).imag() == -beta_e and w.mul_zeta(f).imag() == -beta_f
            g = math.gcd(beta_e.den, beta_f.den)
            kinds.add("one" if beta_e.den == beta_f.den == 1 else
                      "equal" if beta_e.den == beta_f.den else
                      "coprime" if g == 1 else
                      "divides" if g in (beta_e.den, beta_f.den) else "shared")
        assert kinds == {"one", "equal", "coprime", "divides", "shared"}

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7), (1, 4)])
    def test_grid_line_matches_field_ops(self, p, q):
        ctx = make_field(p, q)
        rng = random.Random(q)
        for _ in range(50):
            den = rng.choice(self.DENS)
            a = ctx.num([Fraction(rng.randint(-40, 40), den) for _ in range(ctx.d)])
            power = rng.randrange(ctx.q)
            seg = ExactSegment(a, a + ctx.lam_pow(power), power)
            e, beta = seg.grid_line()
            assert e == -ctx.t0 * power % ctx.m
            assert beta == -a.mul_zeta(e).imag()
            assert seg.b.mul_zeta(e).imag() == -beta


def in_box(w, box):
    x, y = w.real(), w.imag()
    return all(
        sign_of_real(v) != Sign.NEGATIVE
        for v in (x - box.x0, box.x1 - x, y - box.y0, box.y1 - y)
    )


def on_face(w, box):
    x, y = w.real(), w.imag()
    return in_box(w, box) and (x in (box.x0, box.x1) or y in (box.y0, box.y1))


def reference_clip(seg, box):
    """The clip with every face decided by the exact sign oracle: the
    reference for the enclosure certificate of ``clip_segment_to_box``."""
    ctx = seg.a.ctx
    m = ctx.m
    e, beta = seg.grid_line()
    a, b = seg.a, seg.b
    for f, bound in ((0, -box.y0), (m // 4, -box.x0), (m // 2, box.y1), (3 * m // 4, box.x1)):
        c = ctx.point(0, bound)
        a_out = sign_of_imag(a.mul_zeta(f) + c) == Sign.NEGATIVE
        b_out = sign_of_imag(b.mul_zeta(f) + c) == Sign.NEGATIVE
        if a_out and b_out:
            return None
        if a_out or b_out:
            w = grid_corner(e, beta, f, ctx.from_rational(bound))
            a, b = (w, b) if a_out else (a, w)
    if a == b:
        return None
    return ExactSegment(a, b, seg.power, seg.depth)


@pytest.fixture
def exact_faces(monkeypatch):
    """Counts the faces ``clip_segment_to_box`` leaves to the exact test."""
    calls = []

    def counted(a):
        calls.append(a)
        return sign_of_imag(a)

    monkeypatch.setattr(geometry, "sign_of_imag", counted)
    return calls


class TestClipCertificate:
    """Each endpoint's enclosure decides the faces it clears by more than its
    error; an endpoint on or within about 2^-64 of a face takes the exact
    test.  Every case is checked against ``reference_clip``."""

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_endpoint_on_fractional_face(self, exact_faces, p, q):
        ctx = make_field(p, q)
        box = Box(-2, Fraction(1, 3), 2, 3)
        a = ctx.point(Fraction(1, 2), Fraction(1, 3))
        for t in range(ctx.q):
            u = ctx.lam_pow(t)
            for seg in (ExactSegment(a, a + 2 * u, t), ExactSegment(a - 2 * u, a, t)):
                before = len(exact_faces)
                assert clip_segment_to_box(seg, box) == reference_clip(seg, box)
                assert len(exact_faces) > before
        flat = ExactSegment(ctx.point(-5, Fraction(1, 3)), ctx.point(5, Fraction(1, 3)), 0)
        out = clip_segment_to_box(flat, box)
        assert (out.a, out.b) == (ctx.point(-2, Fraction(1, 3)), ctx.point(2, Fraction(1, 3)))

    def test_endpoint_on_box_corner(self, ctx5, exact_faces):
        box = Box(Fraction(-3, 2), Fraction(1, 3), 2, 3)
        corner = ctx5.point(box.x0, box.y0)
        for t in range(ctx5.q):
            u = ctx5.lam_pow(t)
            for seg in (ExactSegment(corner, corner + 3 * u, t), ExactSegment(corner - 3 * u, corner, t)):
                before = len(exact_faces)
                assert clip_segment_to_box(seg, box) == reference_clip(seg, box)
                assert len(exact_faces) >= before + 2

    def test_endpoint_on_window_face(self, ctx12, exact_faces):
        box = window(Box(-1, -1, 2, 1), 3)
        h = box.x1
        assert h == -box.x0 and h.denominator == 1
        kept = 0
        for t in range(ctx12.q):
            u = ctx12.lam_pow(t)
            for end in (ctx12.point(h, Fraction(1, 2)), ctx12.point(Fraction(-1, 4), -h)):
                seg = ExactSegment(end, end + 5 * u, t, depth=2)
                before = len(exact_faces)
                out = clip_segment_to_box(seg, box)
                assert out == reference_clip(seg, box)
                assert len(exact_faces) > before
                kept += out is not None and out.a == end
        assert kept > 0

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_endpoint_a_hair_off_a_face(self, exact_faces, p, q):
        # 10^-30 is far below the enclosure's error, so only the exact test
        # tells inside from outside
        ctx = make_field(p, q)
        box = Box(-2, Fraction(1, 3), 2, 3)
        for eps in (Fraction(1, 10 ** 30), Fraction(-1, 10 ** 30)):
            a = ctx.point(Fraction(1, 2), Fraction(1, 3) + eps)
            for t in range(ctx.q):
                u = ctx.lam_pow(t)
                if u.imag().is_zero():
                    continue
                seg = ExactSegment(a, a + 2 * u, t)
                before = len(exact_faces)
                out = clip_segment_to_box(seg, box)
                assert out == reference_clip(seg, box)
                assert len(exact_faces) > before
                assert (out is not None and out.a == a) == (eps > 0)

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_error_bound_is_tight_for_a_unit_vector(self, p, q):
        # a = zeta^j has E = 1.  A face strictly between a coordinate of a
        # and its node's N_j / 2^64 puts the gap within E of zero but on the
        # wrong side of it, so only the full bound E sends a to the exact test.
        ctx = make_field(p, q)
        nodes64, nodes128 = _fixed_nodes(ctx.m, 64), _fixed_nodes(ctx.m, 128)
        tested = 0
        up = next(t for t in range(ctx.q) if sign_of_imag(ctx.lam_pow(t)) == Sign.POSITIVE)
        for part in (0, 1):
            # a grid direction that crosses the face: x grows along 1, y along lambda^up
            t = 0 if part == 0 else up
            u = ctx.lam_pow(t)
            for j in range(1, ctx.d):
                n64, n128 = nodes64[part][j], nodes128[part][j]
                miss = (n64 << 64) - n128  # about 2^64 * (N_j - 2^64 * coordinate)
                if abs(miss) < 1 << 54:
                    continue
                a = ctx.zeta_pow(j)
                face = Fraction((n64 << 64) + n128, 1 << 129)
                lo, hi = (face - 4, face) if miss > 0 else (face, face + 4)
                box = Box(lo, -2, hi, 2) if part == 0 else Box(-2, lo, 2, hi)
                # the coordinate lies below the face when miss > 0, above it otherwise
                seg = ExactSegment(a, a - u if miss > 0 else a + u, t)
                assert clip_segment_to_box(seg, box) == reference_clip(seg, box) == seg
                tested += 1
        assert tested >= 2

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_random_segments_match_reference(self, p, q):
        # seeded grid segments whose endpoints are generic field points, or
        # rational in one coordinate and irrational in the other, against
        # boxes with faces at random, through an endpoint, or within 10^-30
        # of one
        ctx = make_field(p, q)
        rng = random.Random(1000 * p + q)

        def rational(lo, hi):
            return Fraction(rng.randint(6 * lo, 6 * hi), 6)

        def endpoint():
            x, y = rational(-3, 3), rational(-3, 3)
            k = rng.randrange(1, ctx.m)
            c = rational(-1, 1)
            z = ctx.zeta_pow(k)
            kind = rng.randrange(3)
            if kind == 0:
                return ctx.point(x, y) + c * (z + z.conj()), None, y
            if kind == 1:
                return ctx.point(x, y) + c * (z - z.conj()), x, None
            vec = [rng.randint(-3, 3) for _ in range(ctx.d)]
            return ctx.from_lattice(vec, rng.randint(1, 6)), None, None

        faces_hit = 0
        for _ in range(150):
            a, ax, ay = endpoint()
            t = rng.randrange(-ctx.q, 2 * ctx.q)
            b = a + rational(-4, 4) * ctx.lam_pow(t)
            if a == b:
                continue
            bounds = [rational(-4, -1), rational(-4, -1), rational(1, 4), rational(1, 4)]
            tiny = rng.choice((0, Fraction(1, 10 ** 30), Fraction(-1, 10 ** 30)))
            if ax is not None:
                bounds[rng.choice((0, 2))] = ax + tiny
                faces_hit += 1
            if ay is not None:
                bounds[rng.choice((1, 3))] = ay + tiny
                faces_hit += 1
            x0, x1 = sorted((bounds[0], bounds[2]))
            y0, y1 = sorted((bounds[1], bounds[3]))
            if x0 == x1 or y0 == y1:
                continue
            seg = ExactSegment(a, b, t, depth=rng.randrange(5))
            box = Box(x0, y0, x1, y1)
            assert clip_segment_to_box(seg, box) == reference_clip(seg, box)
        assert faces_hit >= 60


# a box with no integer face, for the outcode tests
FRACTION_BOX = Box(Fraction(-5, 3), Fraction(-7, 4), Fraction(9, 4), Fraction(5, 2))


def exact_outside(w, box):
    """The faces (0 y0, 1 x0, 2 y1, 3 x1) that w lies strictly outside,
    decided exactly."""
    x, y = w.real(), w.imag()
    gaps = (y - box.y0, x - box.x0, box.y1 - y, box.x1 - x)
    return {k for k, g in enumerate(gaps) if sign_of_real(g) == Sign.NEGATIVE}


class TestClipOutcodes:
    """The endpoints' outcodes settle a segment certified inside every face
    or outside one face, and every other segment takes the face loop; each
    case along every lambda^t, against ``reference_clip``, with and without
    the enclosures deciding."""

    @pytest.fixture(params=[False, True], ids=["enclosed", "exact"])
    def exact(self, request):
        if request.param:
            request.getfixturevalue("exact_enclosures")
        return request.param

    @staticmethod
    def directions(ctx):
        return [(t, ctx.lam_pow(t)) for t in range(ctx.q)]

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_wholly_inside_is_the_segment_itself(self, exact, p, q):
        ctx = make_field(p, q)
        a = ctx.point(Fraction(1, 3), Fraction(1, 5))
        for t, u in self.directions(ctx):
            seg = ExactSegment(a - u, a + u / 2, t, depth=3)
            assert clip_segment_to_box(seg, FRACTION_BOX) is seg
            assert reference_clip(seg, FRACTION_BOX) == seg

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_outside_one_face(self, exact, p, q):
        ctx = make_field(p, q)
        box = FRACTION_BOX
        # the middle of each face, moved 3/2 out; a piece of length 1 stays out
        mx, my, off = (box.x0 + box.x1) / 2, (box.y0 + box.y1) / 2, Fraction(3, 2)
        outside = [ctx.point(mx, box.y0 - off), ctx.point(box.x0 - off, my),
                   ctx.point(mx, box.y1 + off), ctx.point(box.x1 + off, my)]
        for face, w in enumerate(outside):
            for t, u in self.directions(ctx):
                seg = ExactSegment(w - u / 2, w + u / 2, t)
                assert exact_outside(seg.a, box) == exact_outside(seg.b, box) == {face}
                assert clip_segment_to_box(seg, box) is None
                assert reference_clip(seg, box) is None

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_outside_two_faces_near_a_corner(self, exact, exact_faces, monkeypatch, p, q):
        # lines that pass the corner (x1, y1) on the outside, or exactly
        # through it, with the two endpoints outside different faces: no one
        # face holds both, so the clip builds a corner before a later face
        # drops the segment.  A corner built on a line through (x1, y1) is
        # (x1, y1) itself, exactly on the later face, which takes the exact
        # test, and the two endpoints meet there.
        ctx = make_field(p, q)
        box = FRACTION_BOX
        corners = []
        monkeypatch.setattr(geometry, "grid_corner",
                            lambda *a: corners.append(a) or grid_corner(*a))
        seen = 0
        for off in (Fraction(1, 8), 0):
            near = ctx.point(box.x1 + off, box.y1 + off)
            for t, u in self.directions(ctx):
                seg = ExactSegment(near - u, near + u, t)
                out_a, out_b = exact_outside(seg.a, box), exact_outside(seg.b, box)
                if not (out_a and out_b) or out_a & out_b:
                    continue
                assert reference_clip(seg, box) is None
                before = len(corners), len(exact_faces)
                assert clip_segment_to_box(seg, box) is None
                assert len(corners) > before[0]
                assert off or len(exact_faces) > before[1]
                seen += 1
        assert seen >= 2

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_crossing(self, exact, p, q):
        # through an interior point, and through the corner (x1, y1) into
        # the interior from outside both of its faces
        ctx = make_field(p, q)
        a = ctx.point(Fraction(1, 3), Fraction(1, 5))
        corner = ctx.point(FRACTION_BOX.x1, FRACTION_BOX.y1)
        through_corner = 0
        for t, u in self.directions(ctx):
            for seg in (ExactSegment(a, a + 5 * u, t), ExactSegment(a - 5 * u, a + 5 * u, t)):
                out = clip_segment_to_box(seg, FRACTION_BOX)
                assert out == reference_clip(seg, FRACTION_BOX)
                assert out is not None and out != seg
            if sign_of_real(u.real()) == sign_of_imag(u) != Sign.ZERO:
                seg = ExactSegment(corner - u, corner + u, t)
                out = clip_segment_to_box(seg, FRACTION_BOX)
                assert out == reference_clip(seg, FRACTION_BOX)
                assert out is not None and corner in (out.a, out.b)
                through_corner += 1
        assert through_corner >= 1

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_endpoint_on_a_face(self, exact, p, q):
        ctx = make_field(p, q)
        box = FRACTION_BOX
        ends = [ctx.point(Fraction(1, 3), box.y0), ctx.point(box.x0, Fraction(1, 5)),
                ctx.point(Fraction(1, 3), box.y1), ctx.point(box.x1, Fraction(1, 5))]
        for w in ends:
            for t, u in self.directions(ctx):
                for seg in (ExactSegment(w, w + u, t), ExactSegment(w - u, w, t)):
                    assert clip_segment_to_box(seg, box) == reference_clip(seg, box)


class TestClipWaste:
    """A clip that the outcodes settle builds no grid corner and takes no
    exact test."""

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_segment_a_later_face_drops_builds_no_corner(self, monkeypatch, p, q):
        # both endpoints lie beyond x1, the last face, and the line crosses
        # y0, the first: a face-by-face clip would move an endpoint to y = y0
        # before x1 drops the segment
        ctx = make_field(p, q)
        box = FRACTION_BOX
        corners = []
        monkeypatch.setattr(geometry, "grid_corner",
                            lambda *a: corners.append(a) or grid_corner(*a))
        tested = 0
        for t in range(ctx.q):
            u = ctx.lam_pow(t)
            if sign_of_imag(u) != Sign.POSITIVE:
                continue
            w = ctx.point(box.x1 + 2, box.y0)
            seg = ExactSegment(w - u / 2, w + u / 2, t)
            assert exact_outside(seg.a, box) == {0, 3} and exact_outside(seg.b, box) == {3}
            assert reference_clip(seg, box) is None
            assert clip_segment_to_box(seg, box) is None
            tested += 1
        assert tested >= 1 and corners == []

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_settled_segments_take_no_exact_test(self, exact_faces, p, q):
        ctx = make_field(p, q)
        box = FRACTION_BOX
        inside = ctx.point(Fraction(1, 3), Fraction(1, 5))
        beyond = ctx.point(box.x1 + 2, Fraction(1, 5))
        for t in range(ctx.q):
            u = ctx.lam_pow(t)
            seg = ExactSegment(inside - u, inside + u, t)
            assert clip_segment_to_box(seg, box) is seg
            assert clip_segment_to_box(ExactSegment(beyond - u, beyond + u, t), box) is None
        assert exact_faces == []


class TestSegments:
    # ctx5 is the field of lambda = exp(2 pi i 4/5); for odd q no power of
    # lambda is -1, and lambda^k is neither horizontal nor vertical for k != 0
    BOX = Box(-3, -3, 3, 3)

    def test_clip_long_segment(self, ctx5):
        seg = ExactSegment(ctx5.point(-10, 0), ctx5.point(10, 0), 0)
        out = clip_segment_to_box(seg, self.BOX)
        assert out.a == ctx5.point(-3, 0) and out.b == ctx5.point(3, 0)
        assert out.power == 0

    def test_clip_inside_unchanged(self, ctx5):
        a = ctx5.point(Fraction(1, 2), Fraction(-1, 2))
        seg = ExactSegment(a, a + 2 * ctx5.lam_pow(2), 2, depth=4)
        out = clip_segment_to_box(seg, self.BOX)
        assert out == seg

    def test_slanted_segment_crosses_horizontal_faces(self, ctx5):
        # the line through 0 along lambda leaves the square through y = +-3
        lam = ctx5.lambda_
        seg = ExactSegment(-10 * lam, 10 * lam, 1, depth=2)
        out = clip_segment_to_box(seg, self.BOX)
        top = lam * (3 * lam.imag().inverse())
        assert (out.a, out.b, out.power, out.depth) == (top, -top, 1, 2)
        assert out.a.imag() == 3 and out.b.imag() == -3

    def test_slanted_segment_crosses_two_kinds_of_face(self, ctx5):
        # i + s*lambda^2 leaves through x = -3 and through y = 3
        u = ctx5.lam_pow(2)
        i = ctx5.i_unit
        out = clip_segment_to_box(ExactSegment(i + 10 * u, i - 10 * u, 7), self.BOX)
        assert out.a.real() == -3 and in_box(out.a, self.BOX)
        assert out.b.imag() == 3 and in_box(out.b, self.BOX)
        assert sign_of_imag((out.b - out.a) * u.conj()) == Sign.ZERO

    def test_segment_on_face(self, ctx5):
        seg = ExactSegment(ctx5.point(-5, 3), ctx5.point(5, 3), 0)
        out = clip_segment_to_box(seg, self.BOX)
        assert out.a == ctx5.point(-3, 3) and out.b == ctx5.point(3, 3)

    def test_corner_touch_suppressed(self, ctx5):
        # a horizontal segment and a slanted one that meet the box only in
        # the corner (3, 3)
        corner = ctx5.point(3, 3)
        assert clip_segment_to_box(ExactSegment(corner, ctx5.point(5, 3), 0), self.BOX) is None
        slanted = ExactSegment(corner + 2 * ctx5.lambda_, corner, 1)
        assert clip_segment_to_box(slanted, self.BOX) is None

    def test_disjoint(self, ctx5):
        # parallel to a face outside the box, and slanted beyond x = 3
        assert clip_segment_to_box(
            ExactSegment(ctx5.point(-1, 5), ctx5.point(1, 5), 0), self.BOX
        ) is None
        a = ctx5.point(5, 5)
        assert clip_segment_to_box(ExactSegment(a, a + 3 * ctx5.lambda_, 1), self.BOX) is None

    def test_random_grid_segments(self, ctx5, ctx12):
        # seeded segments along lambda^t through quarter-grid points: the clip
        # lies in the box and on the input, every moved endpoint lies on a
        # face, and a dropped segment meets the open box in no sampled point
        rng = random.Random(17)

        def quarter(lo, hi):
            return Fraction(rng.randint(4 * lo, 4 * hi), 4)

        kept = dropped = 0
        for ctx in (ctx5, ctx12):
            for _ in range(80):
                box = Box(quarter(-4, -1), quarter(-4, -1), quarter(1, 4), quarter(1, 4))
                t = rng.randrange(-ctx.q, 2 * ctx.q)
                p = ctx.point(quarter(-5, 5), quarter(-5, 5))
                a, b = (p + quarter(-6, 6) * ctx.lam_pow(t) for _ in range(2))
                if a == b:
                    continue
                seg = ExactSegment(a, b, t, depth=3)
                out = clip_segment_to_box(seg, box)
                if out is None:
                    dropped += 1
                    for k in range(1, 16):
                        w = a + Fraction(k, 16) * (b - a)
                        assert not in_box(w, box) or on_face(w, box)
                    continue
                kept += 1
                assert (out.power, out.depth) == (t, 3) and out.a != out.b
                for w, end in ((out.a, a), (out.b, b)):
                    assert in_box(w, box) and point_on_segment(seg, w)
                    assert w == end or on_face(w, box)
                    if in_box(end, box):
                        assert w == end
        assert kept >= 40 and dropped >= 20

    def test_point_on_segment(self, ctx5):
        seg = ExactSegment(ctx5.point(0, 0), ctx5.point(4, 2), 0)
        assert point_on_segment(seg, ctx5.point(2, 1))
        assert point_on_segment(seg, seg.a) and point_on_segment(seg, seg.b)
        assert not point_on_segment(seg, ctx5.point(6, 3))
        assert not point_on_segment(seg, ctx5.point(2, 2))

    def test_orientation(self, ctx5):
        o, a, b = ctx5.point(0, 0), ctx5.point(1, 0), ctx5.point(0, 1)
        assert orientation(o, a, b) == Sign.POSITIVE
        assert orientation(o, b, a) == Sign.NEGATIVE
        assert orientation(o, a, ctx5.point(2, 0)) == Sign.ZERO
