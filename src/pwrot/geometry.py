"""Exact planar geometry over the cyclotomic field.

Every line the engine meets lies on the direction grid of the map: a grid
line is {w : Im(zeta^e * w) = -beta} for an integer exponent e mod m and a
real field element beta.  Half-plane boundaries, critical segments (along
lambda^t = zeta^(t0*t)) and box faces (exponents 0, m/4, m/2, 3m/4) are
all grid lines, so parallel and antiparallel directions, angular order and
boundedness are decided by comparing exponents, and every crossing is the
grid corner of two lines: a closed form, computed in one lattice pass,
whose only reciprocal, 1/Im(zeta^k), is cached per exponent difference.
Half-plane intersection finds its vertices with one half-plane sweep, which
builds only the corners of its ring, certifies by one interior point that
the open intersection is nonempty, and returns its closure; segment
clipping is one Cohen-Sutherland loop over the endpoints' outcodes, which
drops a segment wholly outside one box face and moves an endpoint outside a
face to the corner of the segment's line with that face.

Predicates (side of a line, the binding pass and the antiparallel strip,
the sweep's test of a corner against a line, turns and point location, the
canonical start, box faces) take plain ``CycloNum`` values and are decided
by integer compares on certified 64-bit enclosures, the fixed-point sums of
the sign oracle: ``CycloNum.enclosure``, which each value computes once and
keeps, so no predicate passes an enclosure around, and
``FieldContext.sine_row``.  ``_sum_sign`` decides a sum of two enclosed
values, ``_sweep`` a sum of three enclosed offsets times sine nodes and
``_turn`` a cross product, all through ``_decide``, box faces are read by
``_outcode``'s inline compares, and a sign left open, for a point on or
within about 2^-64 of a line or a tie, takes the exact sign oracle.
Equality is exact, and regularity and edge slopes are exact rotations by
``mul_zeta``, with no field product.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import deque
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .cyclo import CycloNum, FieldContext, Sign, _fixed_nodes, sign_of_imag, sign_of_real
from .errors import ParameterError


class Location(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


class _Region:
    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


EMPTY = _Region("Empty")
UNBOUNDED = _Region("Unbounded")


class Box:
    """Axis-aligned rectangle with rational corners; immutable, and equal
    and hashed by its corners.

    ``_faces`` holds the (numerator, denominator) pairs of y0, x0, y1 and
    x1, the bounds of the faces y >= y0, x >= x0, y <= y1 and x <= x1 in
    the order :func:`clip_segment_to_box` settles them, read once here, so
    that a clip's outcodes (``_outcode``) compare integers only."""

    __slots__ = ("x0", "y0", "x1", "y1", "_faces")

    def __init__(self, x0, y0, x1, y1):
        corners = Fraction(x0), Fraction(y0), Fraction(x1), Fraction(y1)
        if corners[0] >= corners[2] or corners[1] >= corners[3]:
            raise ParameterError("box must have positive width and height")
        for name, value in zip(self.__slots__, corners):
            object.__setattr__(self, name, value)
        x0, y0, x1, y1 = corners
        object.__setattr__(self, "_faces", (
            (y0.numerator, y0.denominator), (x0.numerator, x0.denominator),
            (y1.numerator, y1.denominator), (x1.numerator, x1.denominator),
        ))

    def __setattr__(self, name, value):
        raise AttributeError(f"Box is immutable: cannot set {name}")

    def _corners(self):
        return self.x0, self.y0, self.x1, self.y1

    def __eq__(self, other):
        if other.__class__ is not Box:
            return NotImplemented
        return self._corners() == other._corners()

    def __hash__(self):
        return hash(self._corners())

    def __repr__(self):
        return "Box(x0={!r}, y0={!r}, x1={!r}, y1={!r})".format(*self._corners())

    def inflate(self, r) -> "Box":
        r = Fraction(r)
        return Box(self.x0 - r, self.y0 - r, self.x1 + r, self.y1 + r)


class HalfPlane(NamedTuple):
    """Open half-plane {w : side * Im(lambda^power * w + b) > 0}.

    Every constraint the engine intersects is bounded by a line parallel to
    a rotated copy of the discontinuity line, so its direction is the
    integer ``power``; the unit lambda^power is implied and never stored.
    """

    power: int
    b: CycloNum
    side: int


class ConvexPolygon(NamedTuple):
    """Strictly convex vertex cycle, counterclockwise, canonical start.

    The vertices keep the enclosures that :func:`make_polygon` read, so
    point location encloses only the point.  Build polygons with
    :func:`make_polygon`.
    """

    vertices: tuple[CycloNum, ...]

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def key(self):
        return self.vertices


class ExactSegment(NamedTuple):
    """The closed segment from a to b, parallel to lambda^power.

    An endpoint keeps its certified enclosure once clipping or a critical
    split reads it, so a critical segment's endpoints, clipped to the window
    of their layer, split in the next and clipped to the box at the end,
    are each enclosed once.
    """

    a: CycloNum
    b: CycloNum
    power: int
    depth: int = 0

    def grid_line(self) -> tuple[int, CycloNum]:
        """(e, beta) with the segment on the grid line Im(zeta^e * w) = -beta:
        beta = -Im(zeta^e * a) = Im(zeta^(e + m/2) * a), one ``CycloNum.imag``."""
        ctx = self.a.ctx
        e = -ctx.t0 * self.power % ctx.m
        return e, self.a.imag(e + ctx.m // 2)


# -- grid corners and half-plane intersection ---------------------------------


@functools.lru_cache(maxsize=None)
def _inverse_sine(ctx: FieldContext, k: int) -> CycloNum:
    """1 / Im(zeta^k): the scale of the corner of two grid lines whose
    exponents differ by k."""
    return ctx.zeta_pow(k).imag().inverse()


def grid_corner(e: int, beta_e: CycloNum, f: int, beta_f: CycloNum) -> CycloNum:
    """The point where the grid lines Im(zeta^e * w) = -beta_e and
    Im(zeta^f * w) = -beta_f meet, for real beta_e, beta_f and e != f mod m/2:
    w = (beta_e * zeta^-f - beta_f * zeta^-e) / Im(zeta^(f - e)).

    One lattice pass: with beta_e = a/da and beta_f = b/db over n =
    lcm(da, db), the numerator is the one integer vector zeta^-f * a*(n/da)
    - zeta^-e * b*(n/db), two permutations, which one product with the
    cached 1 / Im(zeta^(f - e)) and one reduction turn into w."""
    ctx = beta_e.ctx
    da, db = beta_e.den, beta_f.den
    g = math.gcd(da, db)
    fa, fb = db // g, da // g
    vec = [x * fa - y * fb for x, y in zip(ctx._permute(beta_e.vec, 1, -f),
                                           ctx._permute(beta_f.vec, 1, -e))]
    inv = _inverse_sine(ctx, (f - e) % ctx.m)
    return ctx.from_lattice(ctx._mul_vecs(vec, inv.vec), da * fa * inv.den)


def _grid_form(h: HalfPlane) -> tuple[int, CycloNum]:
    """(e, c) with h = {w : Im(zeta^e * w + c) > 0}, e in [0, m)."""
    ctx = h.b.ctx
    if h.side > 0:
        return ctx.t0 * h.power % ctx.m, h.b
    return (ctx.t0 * h.power + ctx.m // 2) % ctx.m, -h.b


# -- certified integer enclosures ----------------------------------------------


def _decide(t: int, err: int) -> Optional[Sign]:
    """The sign of a real value v from an integer t with |t - k*v| <= err
    for some scale k > 0, or None when |t| <= err leaves it open.

    Every enclosure decision of the tile build goes through here, and each
    caller answers a None with its exact test, so no sign rests on anything
    but integer compares and the exact sign oracle."""
    if t > err:
        return Sign.POSITIVE
    if t < -err:
        return Sign.NEGATIVE
    return None


def _sum_sign(t1: int, e1: int, s1: int, t2: int, e2: int, s2: int) -> Optional[Sign]:
    """The sign of v1 + v2 from enclosures |t_i - s_i*v_i| <= e_i at scales
    s_i > 0, or None: t1*s2 + t2*s1 is within e1*s2 + e2*s1 of
    s1*s2*(v1 + v2), since each term's error is scaled by the other's
    positive scale.  This is the one rule for two enclosed values: the
    binding pass, the strip test, ``_side`` and ``_cmp_points`` all use it."""
    return _decide(t1 * s2 + t2 * s1, e1 * s2 + e2 * s1)


def _binding_offsets(constraints: Iterable[HalfPlane]) -> dict[int, CycloNum]:
    """The constraints that can bind, at most one per direction, in grid
    form: written as Im(zeta^e * w + c) > 0, those of one exponent e are
    nested, and the first with the least Im(c) is kept, as the offset c.
    Takes any iterable and holds at most m.  A later c' replaces c when
    Im(c' - c) < 0, decided by ``_sum_sign`` on the enclosures of Im(c')
    and -Im(c), with the exact sign of Im(c' - c) only when they leave it
    open."""
    best: dict[int, CycloNum] = {}
    for h in constraints:
        e, c = _grid_form(h)
        old = best.get(e)
        if old is not None:
            _, y, err, s = old.enclosure()
            sign = _sum_sign(*c.enclosure()[1:], -y, err, s)
            if sign is None:
                sign = sign_of_imag(c - old)
            if sign != Sign.NEGATIVE:
                continue
        best[e] = c
    return best


def intersect_halfplanes(constraints: Iterable[HalfPlane]):
    """Exact intersection of open half-planes on the lambda^k direction grid.

    Returns (region, average): region is the closure polygon of the (then
    open, full-dimensional) intersection, or EMPTY, or UNBOUNDED, and
    average is the vertex average its certificate tested, None unless the
    region is a polygon, so a tile takes its center from the one average
    computed here.  Each constraint is rewritten as
    Im(zeta^e * w + c) > 0 with an integer exponent e mod m, so every
    direction decision compares exponents: only the least Im(c) per exponent
    binds, and one streaming pass over the constraints keeps it; an
    antiparallel pair e, e + m/2 bounds a strip that is empty unless the two
    Im(c) sum to a positive number, decided from the offsets' enclosures by
    ``_sum_sign`` (exactly only when they leave it open, as for a strip of
    zero width); and the intersection is unbounded exactly when some cyclic
    gap between the sorted exponents is at least m/2.  A bounded system
    goes through one half-plane sweep, which decides its tests on the
    offsets' enclosures and builds only the corners of its ring (``_sweep``).
    When the open intersection is nonempty the sweep's vertex ring is its
    closure (de Berg et al., 4.2), whose vertex average lies strictly inside
    every constraint; when it is empty no point does.  So one strict test of
    that average against each binding constraint tells the two apart and gives
    EMPTY for empty and point-shaped intersections; a segment-shaped one is
    a strip of width zero, rejected before the sweep.  The test certifies
    nonemptiness only: that the ring is the intersection rests on the
    sweep, which the tests hold to a check of every vertex against every
    constraint on random systems.
    """
    offset = _binding_offsets(constraints)
    if not offset:
        raise ParameterError("at least one constraint is required")
    m = next(iter(offset.values())).ctx.m
    half = m // 2

    for e, a in offset.items():
        b = offset.get(e + half)  # exponents lie in [0, m): only e < m/2 has one
        if b is not None:
            # (Y, E, s) of each enclosure: Im(a) + Im(b)
            s = _sum_sign(*a.enclosure()[1:], *b.enclosure()[1:])
            if s is None:
                s = sign_of_imag(a + b)
            if s != Sign.POSITIVE:
                return EMPTY, None
    exps = sorted(offset)
    if any(f - e >= half for e, f in zip(exps, exps[1:] + [exps[0] + m])):
        return UNBOUNDED, None

    vertices = _sweep(offset)
    if not vertices:
        return EMPTY, None
    center = vertex_average(vertices)
    if any(_side(offset, e, center) != Sign.POSITIVE for e in offset):
        return EMPTY, None
    return make_polygon(vertices), center


def _side(offset: dict[int, CycloNum], e: int, w: CycloNum) -> Sign:
    """Sign of Im(zeta^e * w + c) with c = offset[e].

    The row ``sine_row(e)`` gives t_w = sum(w_j * row_j) within e_w =
    sum|w_j| of s_w * Im(zeta^e * w), s_w = w.den * 2^64, and the offset's
    enclosure gives y_c within err_c of s_c * Im(c), so ``_sum_sign``
    decides the sum.  Only a point on the line, or within about
    (e_w*s_c + err_c*s_w) / (s_w*s_c) of it, takes the exact test.
    """
    c = offset[e]
    vec = w.vec
    s = _sum_sign(sum(map(mul, vec, w.ctx.sine_row(e))), sum(map(abs, vec)), w.den << 64,
                  *c.enclosure()[1:])
    return sign_of_imag(w.mul_zeta(e) + c) if s is None else s


def _sweep(offset: dict[int, CycloNum]) -> list[CycloNum]:
    """One half-plane sweep over the bounded system Im(zeta^e * w + offset[e])
    > 0, in the counterclockwise order of the edge directions zeta^-e (de
    Berg et al., Computational Geometry, 4.2): the vertex ring of the edges
    it keeps, or [] when it keeps fewer than three.

    Each test asks whether the corner of lines f and g lies strictly inside
    constraint e.  With beta = Im(offset) and S(k) = sin(2 pi k/m), that
    corner (``grid_corner``) has Im(zeta^e w) + beta_e = D / S(g - f), D =
    beta_e S(g - f) + beta_f S(e - g) + beta_g S(f - e), so the test is
    sign(S(g - f)) * D > 0, where S(g - f) > 0 exactly when (g - f) mod m <
    m/2.  D is decided on the offsets' kept enclosures, with no corner
    built.  An enclosure gives Y within E of s*beta, so |s*beta| <= |Y| + E,
    and the node N_k of ``_fixed_nodes(m, 64)`` is within 1 of 2^64 S(k),
    so Y*N - s*2^64*beta*S = (Y - s*beta)*N + s*beta*(N - 2^64 S) is within
    E*|N| + |Y| + E.  Each product and its bound, times the other two
    scales, enclose s_e*s_f*s_g*2^64 times its term of D, so ``_decide``
    signs D from the sum T of the three scaled products and the sum of
    their scaled bounds.  Only a test it leaves open, for a corner on or
    near line e, or a zero node N_(g - f), where f and g are parallel,
    builds the corner and takes ``_side``.  So betas and corners are built
    only for those tests and for the ring.
    """
    m = next(iter(offset.values())).ctx.m
    half, nodes = m // 2, _fixed_nodes(m, 64)[1]
    enc = {e: c.enclosure()[1:] for e, c in offset.items()}

    @functools.cache
    def beta(e: int) -> CycloNum:
        return offset[e].imag()

    @functools.cache
    def corner(f: int, g: int) -> CycloNum:
        return grid_corner(f, beta(f), g, beta(g))

    def inside(e: int, f: int, g: int) -> bool:
        """The corner of f and g lies strictly inside constraint e."""
        k = (g - f) % m
        n = nodes[k]
        if n:
            (ye, ee, se), (yf, ef, sf), (yg, eg, sg) = enc[e], enc[f], enc[g]
            nf, ng = nodes[(e - g) % m], nodes[(f - e) % m]
            sfg, seg, sef = sf * sg, se * sg, se * sf
            s = _decide(ye * n * sfg + yf * nf * seg + yg * ng * sef,
                        (ee * (abs(n) + 1) + abs(ye)) * sfg + (ef * (abs(nf) + 1) + abs(yf)) * seg
                        + (eg * (abs(ng) + 1) + abs(yg)) * sef)
            if s is not None:
                return (s > 0) == (k < half)
        return _side(offset, e, corner(f, g)) == Sign.POSITIVE

    edges: deque[int] = deque()
    for e in sorted(offset, reverse=True):
        while len(edges) >= 2 and not inside(e, edges[-2], edges[-1]):
            edges.pop()
        while len(edges) >= 2 and not inside(e, edges[0], edges[1]):
            edges.popleft()
        edges.append(e)
    while len(edges) >= 3 and not inside(edges[0], edges[-2], edges[-1]):
        edges.pop()
    while len(edges) >= 3 and not inside(edges[-1], edges[0], edges[1]):
        edges.popleft()
    if len(edges) < 3:
        return []
    return [corner(edges[j - 1], edges[j]) for j in range(len(edges))]


def vertex_average(vertices: Sequence[CycloNum]) -> CycloNum:
    """The exact average of a nonempty list of points."""
    return sum(vertices[1:], vertices[0]) / len(vertices)


def _cmp_points(p: CycloNum, r: CycloNum) -> int:
    """Order by real part, then imaginary part.

    Re(p) - Re(r) is the sum of two enclosed values, x_p within err_p of
    s_p*Re(p) and -x_r within err_r of -s_r*Re(r), and ``_sum_sign``
    decides it; likewise for the imaginary parts.  A difference the
    enclosures leave open takes the exact sign of the real element."""
    xp, yp, ep, sp = p.enclosure()
    xr, yr, er, sr = r.enclosure()
    for u, v, part in ((xp, xr, CycloNum.real), (yp, yr, CycloNum.imag)):
        s = _sum_sign(u, ep, sp, -v, er, sr)
        if s is None:
            s = sign_of_real(part(p) - part(r))
        if s != Sign.ZERO:
            return int(s)
    return 0


def _turn(o: CycloNum, a: CycloNum, b: CycloNum) -> Sign:
    """Sign of the cross product (a - o) x (b - o), from the enclosures.

    A_x = x_a*s_o - x_o*s_a and A_y (likewise) are within F_a = err_a*s_o +
    err_o*s_a of s_a*s_o times the parts of a - o, and B_x, B_y within F_b
    of s_b*s_o times those of b - o.  For true values u, v of A_x, B_y,
    |u*v - A_x*B_y| <= F_a*|v| + |A_x|*F_b <= F_a*(|B_y| + F_b) + |A_x|*F_b,
    and the same for A_y*B_x, so T = A_x*B_y - A_y*B_x is within E =
    F_a*(|B_x| + |B_y| + 2*F_b) + F_b*(|A_x| + |A_y|) of s_a*s_b*s_o^2 times
    the cross product, and |T| > E gives its sign.  Only collinear points,
    or points within about that bound of a line, take the exact test.
    """
    xo, yo, eo, so = o.enclosure()
    xa, ya, ea, sa = a.enclosure()
    xb, yb, eb, sb = b.enclosure()
    ax, ay, fa = xa * so - xo * sa, ya * so - yo * sa, ea * so + eo * sa
    bx, by, fb = xb * so - xo * sb, yb * so - yo * sb, eb * so + eo * sb
    s = _decide(ax * by - ay * bx, fa * (abs(bx) + abs(by) + 2 * fb) + fb * (abs(ax) + abs(ay)))
    if s is None:
        return sign_of_imag((a - o).conj() * (b - o))
    return s


def make_polygon(vertices: Sequence[CycloNum]) -> ConvexPolygon:
    """Validate and canonicalize a strictly convex counterclockwise cycle.
    Each vertex is enclosed once, and its turns and the canonical start
    (least real part, then least imaginary part) are decided from those
    enclosures, exactly only where they leave a sign open."""
    verts = list(vertices)
    n = len(verts)
    if n < 3:
        raise ParameterError("a polygon needs at least three vertices")
    for i in range(n):
        if _turn(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) != Sign.POSITIVE:
            raise ParameterError("vertex cycle is not strictly convex counterclockwise")
    start = verts.index(min(verts, key=functools.cmp_to_key(_cmp_points)))
    return ConvexPolygon(tuple(verts[start:] + verts[:start]))


def polygon_contains(p: ConvexPolygon, z: CycloNum) -> Location:
    """Where z lies: the turn of z against each edge, from the enclosures
    the vertices keep and one enclosure of z, exactly only where they leave
    the sign open."""
    v = p.vertices
    n, saw_zero = len(v), False
    for i in range(n):
        s = _turn(v[i], v[(i + 1) % n], z)
        if s == Sign.NEGATIVE:
            return Location.EXTERIOR
        if s == Sign.ZERO:
            saw_zero = True
    return Location.BOUNDARY if saw_zero else Location.INTERIOR


def polygon_is_regular(p: ConvexPolygon) -> bool:
    """Whether n | m and e_i = zeta^(m/n) * e_(i-1) for every edge
    e_i = v_i - v_(i-1), indices mod n: n subtractions and n ``mul_zeta``
    permutations, no field division or product.

    Walking a counterclockwise n-gon, each edge is the one before turned by
    the exterior angle; the n angles sum to 2 pi, so the polygon is regular,
    equal sides and equal angles, exactly when e_i = zeta_n * e_(i-1) for
    every i, zeta_n = e^(2 pi i/n).  Then zeta_n = e_1/e_0 lies in Q(zeta_m).
    For even m (m = lcm(4, q)) that field holds a primitive n-th root of
    unity only when n | m: else it holds Q(zeta_L), L = lcm(m, n) > m, of
    degree phi(L) <= phi(m), but each prime power p^a of L/m multiplies phi
    by p^a >= 2 if p | m and by p^(a-1)*(p - 1) >= 2 if not, as 2 | m.  So
    zeta_n = zeta^(m/n), and the test holds exactly for regular polygons.
    """
    v = p.vertices
    n = len(v)
    if n < 3:
        raise ParameterError("regularity needs a genuine polygon")
    m = v[0].ctx.m
    if m % n:
        return False
    edges = [v[i] - v[i - 1] for i in range(n)]
    return all(edges[i - 1].mul_zeta(m // n) == edges[i] for i in range(n))


def apply_affine(p: ConvexPolygon, g) -> ConvexPolygon:
    """Image polygon under an orientation-preserving affine map."""
    return make_polygon([g(v) for v in p.vertices])


def edge_direction_power(ctx: FieldContext, d: CycloNum) -> Optional[int]:
    """t in [0, q) with d parallel to the rotated real axis lambda^t * R:
    d * lambda^-t, one ``mul_zeta`` permutation, equals its conjugate."""
    if d.is_zero():
        raise ParameterError("zero direction")
    for t in range(ctx.q):
        w = d.mul_zeta(-ctx.t0 * t)
        if w == w.conj():
            return t
    return None


# -- segments ----------------------------------------------------------------


# a Cohen-Sutherland outcode holds two bits per face k (y0, x0, y1, x1, the
# order of ``Box._faces``): bit 2k for an endpoint on or near face k, which
# its enclosure leaves open, and bit 2k+1 for one certified strictly outside.
# The open bit is the lower, so the clip tests an endpoint that a face leaves
# open before it moves the other endpoint to that face.
_OUTSIDE = 0b10101010


def _outcode(x: int, y: int, err: int, s: int, faces) -> int:
    """The outcode of a point w against the box faces, from its enclosure
    (X, Y, E, s): with the face bound v = num/den, den*(X - E) > num*s
    certifies Re(w) > v and den*(X + E) < num*s certifies Re(w) < v,
    likewise Y for Im(w).  This is the only code that compares a point with
    a box face.  0 means certified strictly inside all four faces."""
    (ny0, dy0), (nx0, dx0), (ny1, dy1), (nx1, dx1) = faces
    code = 0
    k = ny0 * s
    if dy0 * (y - err) <= k:
        code |= 2 if dy0 * (y + err) < k else 1
    k = nx0 * s
    if dx0 * (x - err) <= k:
        code |= 8 if dx0 * (x + err) < k else 4
    k = ny1 * s
    if dy1 * (y + err) >= k:
        code |= 32 if dy1 * (y - err) > k else 16
    k = nx1 * s
    if dx1 * (x + err) >= k:
        code |= 128 if dx1 * (x - err) > k else 64
    return code


def clip_segment_to_box(seg: ExactSegment, box: Box) -> Optional[ExactSegment]:
    """Exact intersection with the closed box; degenerate results are None.

    The faces y >= y0, x >= x0, y <= y1 and x <= x1 are the grid half-planes
    Im(zeta^f * w) + c_f >= 0 with f = 0, m/4, m/2, 3m/4.  One
    Cohen-Sutherland loop reads the endpoints' outcodes (``_outcode``, from
    the certified enclosures that ``CycloNum.enclosure`` keeps on them) and
    nothing else.
    Both certified strictly outside one face returns None, since the segment
    is convex and so lies wholly outside that face.  Otherwise the loop
    settles the first face that either outcode names.  A face an endpoint's
    enclosure leaves open, with the endpoint on it or within sum|vec_j| /
    (den * 2^64) of it, takes one exact test, which marks the endpoint
    outside or clears the face.  An endpoint outside moves to the grid
    corner of the segment's line with the face; the corner lies on that face
    and, by convexity, inside every earlier one, so its fresh outcode keeps
    only the later faces.  This is the only clipping code.  An endpoint
    keeps its enclosure, so a critical segment, clipped to the window of its
    layer and later to the box, is enclosed once, and a segment that no face
    moves is returned as it is.
    """
    faces = box._faces
    a, b = seg.a, seg.b
    code_a, code_b = _outcode(*a.enclosure(), faces), _outcode(*b.enclosure(), faces)
    line = None
    while code_a | code_b:
        if code_a & code_b & _OUTSIDE:
            return None
        either = code_a | code_b
        bit = either & -either
        on_a = code_a & bit
        w, code = (a, code_a) if on_a else (b, code_b)
        k = bit.bit_length() - 1 >> 1
        ctx = w.ctx
        f, c = k * ctx.m // 4, (-box.y0, -box.x0, box.y1, box.x1)[k]
        if bit & _OUTSIDE:
            line = line or seg.grid_line()
            w = grid_corner(*line, f, ctx.from_rational(c))
            # -2 * bit keeps the bits of the faces after k
            code = _outcode(*w.enclosure(), faces) & -2 * bit
        elif sign_of_imag(w.mul_zeta(f) + ctx.point(0, c)) == Sign.NEGATIVE:
            code ^= 3 * bit  # open -> outside
        else:
            code ^= bit  # inside or on the face
        if on_a:
            a, code_a = w, code
        else:
            b, code_b = w, code
    # a == b for two points of one field, without the method call
    if a.den == b.den and a.vec == b.vec:
        return None
    if line is None:
        return seg
    return ExactSegment(a, b, seg.power, seg.depth)
