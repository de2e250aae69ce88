import random
import sys
from fractions import Fraction

import pytest

from pwrot.critical import window
from pwrot.cyclo import Sign, _fixed_nodes, make_field, sign_of_imag, sign_of_real
from pwrot.dynamics import Address, AffineMap, address, step
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
    orientation,
    point_on_segment,
    polygon_contains,
    polygon_is_regular,
)
from pwrot.errors import ParameterError
from pwrot import geometry

from affine import affine_along


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


def side_of(h, w):
    """Sign of Im(lambda^power * w + b), before the side of h is applied."""
    return sign_of_imag(h.b.ctx.lam_pow(h.power) * w + h.b)


def holds(h, w):
    """w lies in the open half-plane h."""
    return side_of(h, w) * h.side > 0


class TestHalfPlaneFromConstraint:
    """{w : s * Im(G(w)) > 0} for a branch composition G is
    HalfPlane(G.power mod q, G.offset, s)."""

    def test_identity_gives_half_planes(self, ctx5):
        ident = AffineMap(0, ctx5.zero())
        hp = HalfPlane(ident.power % ctx5.q, ident.offset, 1)
        hm = HalfPlane(ident.power % ctx5.q, ident.offset, -1)
        assert holds(hp, ctx5.point(0, 1))
        assert not holds(hp, ctx5.point(0, -1))
        assert holds(hm, ctx5.point(0, -1))
        assert not holds(hm, ctx5.point(3, 0))

    def test_one_step_preimage(self, ctx5):
        # membership in the pulled-back constraint agrees with the address of
        # the stepped point, checked by brute force on upper-half samples
        g = affine_along(ctx5, (1,))
        hp = HalfPlane(g.power % ctx5.q, g.offset, 1)
        rng = random.Random(42)
        for _ in range(30):
            w = ctx5.point(Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(1, 20), 3))
            assert holds(hp, w) == (address(step(w)) == Address.PLUS)


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
                assert len(geometry._binding_offsets(cons)) <= ctx.m
                assert intersect_halfplanes(h for h in cons) == poly
                if poly is UNBOUNDED:
                    continue
                polygons += 1
                assert polygon_contains(poly, c) == Location.INTERIOR
                for v in poly.vertices:
                    assert all(side_of(h, v) * h.side >= 0 for h in cons)
                for a, b in poly.edges():
                    assert orientation(a, b, c) == Sign.POSITIVE
                    assert any(
                        side_of(h, a) == Sign.ZERO and side_of(h, b) == Sign.ZERO and holds(h, c)
                        for h in cons
                    )
        assert polygons >= 30

    def test_vertices_respect_all_constraints(self, ctx12):
        cons = square_constraints(ctx12)
        poly = intersect_halfplanes(cons)
        for h in cons:
            for v in poly.vertices:
                assert side_of(h, v) != (
                    Sign.NEGATIVE if h.side > 0 else Sign.POSITIVE
                )
        centroid = poly.vertices[0]
        for v in poly.vertices[1:]:
            centroid = centroid + v
        centroid = centroid / len(poly.vertices)
        for h in cons:
            assert holds(h, centroid)

    def test_rejects_empty_input(self):
        with pytest.raises(ParameterError):
            intersect_halfplanes([])


def swept_and_rechecked(constraints):
    """(ring, result) with the earlier final check of intersect_halfplanes,
    every ring vertex against every constraint, in place of the one-point
    certificate; ring is the sweep's vertex ring, or None when the system is
    rejected before the sweep."""
    ctx = constraints[0].b.ctx
    m, half = ctx.m, ctx.m // 2
    offset = geometry._binding_offsets(constraints)
    for e, b in offset.items():
        if e < half and e + half in offset and sign_of_imag(b.c + offset[e + half].c) != Sign.POSITIVE:
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

    def through(t, w, s):
        return HalfPlane(t, -(ctx.lam_pow(t) * w), s)

    if kind == "point":
        # the inward normals zeta^e of lines through w leave no gap of m/2
        w, cons = half_point(), []
        while intersect_halfplanes(cons or [through(0, w, 1)]) is UNBOUNDED:
            cons.append(through(rng.randrange(q), w, rng.choice((1, -1))))
        return cons
    if kind == "segment":
        t, w = rng.randrange(q), half_point()
        return [through(t, w, 1), through(t, w, -1)] + [
            through(rng.randrange(q), half_point(), rng.choice((1, -1))) for _ in range(2)
        ]
    c, anchors = half_point(), [half_point() for _ in range(3)]
    cons = []
    for _ in range(rng.randint(3, 3 * q)):
        t = rng.randrange(q)
        h = through(t, rng.choice(anchors), 1)
        s = int(sign_of_imag(ctx.lam_pow(t) * c + h.b)) or 1
        cons.append(HalfPlane(t, h.b, s if rng.random() < 0.95 else -s))
    return cons


class TestSweepCertificate:
    """The one-point certificate of intersect_halfplanes decides as the
    earlier check of every vertex against every constraint did."""

    def test_certificate_matches_vertex_recheck(self):
        rng = random.Random(5)
        seen = {"empty": 0, "unbounded": 0, "polygon": 0}
        for p, q in [(4, 5), (11, 12), (3, 7), (1, 4), (1, 3)]:
            ctx = make_field(p, q)
            for kind in ["random"] * 30 + ["point"] * 5 + ["segment"] * 5:
                cons = random_grid_system(ctx, rng, kind)
                ring, expected = swept_and_rechecked(cons)
                assert not (ring and expected is EMPTY)
                result = intersect_halfplanes(cons)
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
        cons = [HalfPlane(9, -i, 1), HalfPlane(0, -i, 1), HalfPlane(4, i / 2, 1)]
        assert intersect_halfplanes(cons) is EMPTY
        assert swept_and_rechecked(cons) == ([], EMPTY)

        def keep_every_edge(offset):
            exps = sorted(offset, reverse=True)
            beta = {e: o.c.imag() for e, o in offset.items()}
            return [
                geometry.grid_corner(f, beta[f], g, beta[g])
                for f, g in zip(exps[-1:] + exps[:-1], exps)
            ]

        square = intersect_halfplanes(square_constraints(ctx12))
        monkeypatch.setattr(geometry, "_sweep", keep_every_edge)
        ring, result = swept_and_rechecked(cons)
        sqrt3 = ctx12.lam_pow(1).real() * 2
        assert set(ring) == {ctx12.point(1, 1), ctx12.point(0, 1), 1 + i * (1 - sqrt3)}
        assert result is EMPTY
        assert intersect_halfplanes(cons) is EMPTY
        # on a nonempty system that ring is the sweep's, and it is certified
        assert intersect_halfplanes(square_constraints(ctx12)) == square


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


def through(ctx12, t, w):
    """The constraint on the grid line through w along lambda^-t that holds
    the center of the unit square."""
    lam, b = ctx12.lam_pow(t), -(ctx12.lam_pow(t) * w)
    return HalfPlane(t, b, int(sign_of_imag(lam * ctx12.point(Fraction(1, 2), Fraction(1, 2)) + b)))


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
        cons = square_constraints(ctx12) + [through(ctx12, t, ctx12.point(1, 1))]
        square = intersect_halfplanes(square_constraints(ctx12))
        del exact_signs[:]
        assert intersect_halfplanes(cons) == square
        assert "_side" in exact_signs
        assert all_exact(intersect_halfplanes, cons) == square

    def test_nested_constraints_on_one_line(self, ctx12, exact_signs):
        # y > 0 again, with an offset whose imaginary part is that of y > 0's
        # but whose vector is not: the binding pass keeps the first of the
        # two, in either order
        sqrt3 = ctx12.zeta_pow(1) + ctx12.zeta_pow(1).conj()
        square = intersect_halfplanes(square_constraints(ctx12))
        for extra in (HalfPlane(0, sqrt3, 1), HalfPlane(0, -sqrt3, 1)):
            for cons in (square_constraints(ctx12) + [extra], [extra] + square_constraints(ctx12)):
                del exact_signs[:]
                assert geometry._binding_offsets(cons)[0].c == cons[0].b
                assert exact_signs == ["_binding_offsets"]
                assert intersect_halfplanes(cons) == square

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_strip_of_zero_width(self, exact_signs, p, q):
        ctx = make_field(p, q)
        w = ctx.lam_pow(1) / 3 + ctx.point(0, Fraction(1, 7))
        for t in range(ctx.q):
            b = -(ctx.lam_pow(t) * w)
            cons = [HalfPlane(t, b, 1), HalfPlane(t, b, -1)]
            del exact_signs[:]
            assert intersect_halfplanes(cons) is EMPTY
            assert exact_signs == ["intersect_halfplanes"]

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_strip_a_hair_wide(self, exact_signs, p, q):
        # Im(lambda^t w) between that of a point and that plus or minus
        # 10^-30: the enclosures of the two offsets cannot tell
        ctx = make_field(p, q)
        w = ctx.lam_pow(1) / 3 + ctx.point(0, Fraction(1, 7))
        for eps in (HAIR, -HAIR):
            for t in range(ctx.q):
                b = -(ctx.lam_pow(t) * w)
                cons = [HalfPlane(t, b, 1), HalfPlane(t, b - ctx.point(0, eps), -1)]
                del exact_signs[:]
                result = intersect_halfplanes(cons)
                assert result is (UNBOUNDED if eps > 0 else EMPTY)
                assert exact_signs == ["intersect_halfplanes"]
                assert all_exact(intersect_halfplanes, cons) is result

    def test_point_a_hair_off_an_edge(self, ctx5, ctx12, exact_signs):
        square = intersect_halfplanes(square_constraints(ctx12))
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
        square = intersect_halfplanes(square_constraints(ctx12))
        for eps in (HAIR, -HAIR):
            cons = square_constraints(ctx12) + [through(ctx12, t, ctx12.point(1, 1 + eps))]
            del exact_signs[:]
            poly = intersect_halfplanes(cons)
            assert (poly == square) == (eps > 0) and len(poly) == (4 if eps > 0 else 5)
            assert "_side" in exact_signs
            assert all_exact(intersect_halfplanes, cons) == poly


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
        nodes64, nodes128 = _fixed_nodes(ctx.m, ctx.d, 64), _fixed_nodes(ctx.m, ctx.d, 128)
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
