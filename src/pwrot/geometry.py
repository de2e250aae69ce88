"""Exact planar geometry over the cyclotomic field.

Every line the engine meets lies on the direction grid of the map: a grid
line is {w : Im(zeta^e * w) = -beta} for an integer exponent e mod m and a
real field element beta.  Half-plane boundaries, critical segments (along
lambda^t = zeta^(t*m*p/q)) and box faces (exponents 0, m/4, m/2, 3m/4) are
all grid lines, so parallel and antiparallel directions, angular order and
boundedness are decided by comparing exponents, and every crossing is the
grid corner of two lines: a closed form whose only reciprocal, 1/Im(zeta^k),
is cached per exponent difference.  Half-plane intersection finds its
vertices with one half-plane sweep, certifies by one interior point that
the open intersection is nonempty, and returns its closure; segment
clipping moves an endpoint that lies outside a box face to the corner of
the segment's line with that face.

Predicates (side of a line, the binding pass and the antiparallel strip,
turns and point location, the canonical start, box faces) are decided by
integer compares on certified 64-bit enclosures: the fixed-point sums of
the sign oracle (``FieldContext.enclosure`` and ``sine_row``), combined by
error bounds derived where each is used.  ``_decide`` makes every such
decision of the tile build (box clipping makes the same compare inline),
and a sign it leaves open, for a point on or within about 2^-64 of a line
or a tie, takes the exact sign oracle.  Equality and regularity stay
exact.
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .cyclo import CycloNum, FieldContext, Sign, sign_of_imag, sign_of_real
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


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with rational corners."""

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x0", Fraction(self.x0))
        object.__setattr__(self, "y0", Fraction(self.y0))
        object.__setattr__(self, "x1", Fraction(self.x1))
        object.__setattr__(self, "y1", Fraction(self.y1))
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise ParameterError("box must have positive width and height")

    def inflate(self, r) -> "Box":
        r = Fraction(r)
        return Box(self.x0 - r, self.y0 - r, self.x1 + r, self.y1 + r)


@dataclass(frozen=True)
class HalfPlane:
    """Open half-plane {w : side * Im(lambda^power * w + b) > 0}.

    Every constraint the engine intersects is bounded by a line parallel to
    a rotated copy of the discontinuity line, so its direction is the
    integer ``power``; the unit lambda^power is implied and never stored.
    """

    power: int
    b: CycloNum
    side: int


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex vertex cycle, counterclockwise, canonical start.

    ``enclosed`` holds each vertex with its certified enclosure, in vertex
    order, so that point location encloses only the point; it takes no part
    in equality.  Build polygons with :func:`make_polygon`.
    """

    vertices: tuple[CycloNum, ...]
    enclosed: tuple["_Enclosed", ...] = field(compare=False, repr=False)

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def key(self):
        return self.vertices


@dataclass(frozen=True)
class ExactSegment:
    """The closed segment from a to b, parallel to lambda^power."""

    a: CycloNum
    b: CycloNum
    power: int
    depth: int = 0

    def grid_line(self) -> tuple[int, CycloNum]:
        """(e, beta) with the segment on the grid line Im(zeta^e * w) = -beta."""
        ctx = self.a.ctx
        e = -_lam_exponent(ctx, self.power) % ctx.m
        return e, -self.a.mul_zeta(e).imag()


# -- grid corners and half-plane intersection ---------------------------------


def _lam_exponent(ctx: FieldContext, power: int) -> int:
    """e in [0, m) with lambda^power = zeta^e."""
    return ctx.m * ctx.p // ctx.q * power % ctx.m


@functools.lru_cache(maxsize=None)
def _inverse_sine(ctx: FieldContext, k: int) -> CycloNum:
    """1 / Im(zeta^k): the scale of the corner of two grid lines whose
    exponents differ by k."""
    return ctx.zeta_pow(k).imag().inverse()


def grid_corner(e: int, beta_e: CycloNum, f: int, beta_f: CycloNum) -> CycloNum:
    """The point where the grid lines Im(zeta^e * w) = -beta_e and
    Im(zeta^f * w) = -beta_f meet, for real beta_e, beta_f and e != f mod m/2:
    w = (beta_e * zeta^-f - beta_f * zeta^-e) / Im(zeta^(f - e))."""
    ctx = beta_e.ctx
    return (beta_e.mul_zeta(-f) - beta_f.mul_zeta(-e)) * _inverse_sine(ctx, (f - e) % ctx.m)


def _grid_form(h: HalfPlane) -> tuple[int, CycloNum]:
    """(e, c) with h = {w : Im(zeta^e * w + c) > 0}, e in [0, m)."""
    ctx = h.b.ctx
    if h.side > 0:
        return _lam_exponent(ctx, h.power), h.b
    return (_lam_exponent(ctx, h.power) + ctx.m // 2) % ctx.m, -h.b


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


def _imag_sum_sign(t1: int, e1: int, den1: int, t2: int, e2: int, den2: int) -> Optional[Sign]:
    """The sign of v1 + v2 from enclosures of den_i * 2^64 * v_i by t_i
    within e_i, or None: t1*den2 + t2*den1 is within e1*den2 + e2*den1 of
    den1*den2*2^64*(v1 + v2), since each term's error is scaled by the
    other's positive denominator."""
    return _decide(t1 * den2 + t2 * den1, e1 * den2 + e2 * den1)


class _Offset(NamedTuple):
    """The binding constraint Im(zeta^e * w + c) > 0 of one exponent e, with
    the enclosure of Im(c): t = sum(c_j * S_j) over ``sine_row(0)`` is within
    err = sum|c_j| of c.den * 2^64 * Im(c)."""

    c: CycloNum
    t: int
    err: int


def _binding_offsets(constraints: Iterable[HalfPlane]) -> dict[int, _Offset]:
    """The constraints that can bind, at most one per direction, in grid
    form: written as Im(zeta^e * w + c) > 0, those of one exponent e are
    nested, and the first with the least Im(c) is kept.  Takes any iterable
    and holds at most m.  A later c' replaces c when Im(c' - c) < 0, decided
    by ``_imag_sum_sign`` on the enclosures of Im(c') and -Im(c), with the
    exact sign of Im(c' - c) only when they leave it open."""
    best: dict[int, _Offset] = {}
    for h in constraints:
        e, c = _grid_form(h)
        vec = c.vec
        new = _Offset(c, sum(map(mul, vec, c.ctx.sine_row(0))), sum(map(abs, vec)))
        old = best.get(e)
        if old is not None:
            s = _imag_sum_sign(new.t, new.err, c.den, -old.t, old.err, old.c.den)
            if s is None:
                s = sign_of_imag(c - old.c)
            if s != Sign.NEGATIVE:
                continue
        best[e] = new
    return best


def intersect_halfplanes(constraints: Iterable[HalfPlane]):
    """Exact intersection of open half-planes on the lambda^k direction grid.

    Returns the closure polygon of the (then open, full-dimensional)
    intersection, or EMPTY, or UNBOUNDED.  Each constraint is rewritten as
    Im(zeta^e * w + c) > 0 with an integer exponent e mod m, so every
    direction decision compares exponents: only the least Im(c) per exponent
    binds, and one streaming pass over the constraints keeps it; an
    antiparallel pair e, e + m/2 bounds a strip that is empty unless the two
    Im(c) sum to a positive number; and the intersection is unbounded
    exactly when some cyclic gap between the sorted exponents is at least
    m/2.  A bounded system goes through one half-plane sweep.  When the open
    intersection is nonempty the sweep's vertex ring is its closure (de Berg
    et al., 4.2), whose vertex average lies strictly inside every
    constraint; when it is empty no point does.  So one strict test of that
    average against each binding constraint tells the two apart and gives
    EMPTY for empty and point-shaped intersections; a segment-shaped one is
    a strip of width zero, rejected before the sweep.  The test certifies
    nonemptiness only: that the ring is the intersection rests on the
    sweep, which the tests hold to a check of every vertex against every
    constraint on random systems.

    The strip test decides the sign of Im(c + c') from the two offsets'
    enclosures by ``_imag_sum_sign``, and the exact test runs only when they
    leave it open, as for a strip of zero width.
    """
    offset = _binding_offsets(constraints)
    if not offset:
        raise ParameterError("at least one constraint is required")
    m = next(iter(offset.values())).c.ctx.m
    half = m // 2

    for e, a in offset.items():
        b = offset.get(e + half)  # exponents lie in [0, m): only e < m/2 has one
        if b is not None:
            s = _imag_sum_sign(a.t, a.err, a.c.den, b.t, b.err, b.c.den)
            if s is None:
                s = sign_of_imag(a.c + b.c)
            if s != Sign.POSITIVE:
                return EMPTY
    exps = sorted(offset)
    if any(f - e >= half for e, f in zip(exps, exps[1:] + [exps[0] + m])):
        return UNBOUNDED

    vertices = _sweep(offset)
    if not vertices:
        return EMPTY
    center = vertex_average(vertices)
    if any(_side(offset, e, center) != Sign.POSITIVE for e in offset):
        return EMPTY
    return make_polygon(vertices)


def _side(offset: dict[int, _Offset], e: int, w: CycloNum) -> Sign:
    """Sign of Im(zeta^e * w + c) with c = offset[e].c.

    The row ``sine_row(e)`` gives t_w = sum(w_j * row_j) within e_w =
    sum|w_j| of w.den * 2^64 * Im(zeta^e * w).  With the offset's t_c
    within e_c of c.den * 2^64 * Im(c), T = t_w*den_c + t_c*den_w is within
    E = e_w*den_c + e_c*den_w of den_w*den_c*2^64 * Im(zeta^e * w + c), so
    |T| > E gives the sign (``_imag_sum_sign``).  Only a point on the line,
    or within about E / (den_w*den_c*2^64) of it, takes the exact test.
    """
    o = offset[e]
    vec = w.vec
    s = _imag_sum_sign(sum(map(mul, vec, w.ctx.sine_row(e))), sum(map(abs, vec)), w.den,
                       o.t, o.err, o.c.den)
    return sign_of_imag(w.mul_zeta(e) + o.c) if s is None else s


def _sweep(offset: dict[int, _Offset]) -> list[CycloNum]:
    """One half-plane sweep over the bounded system Im(zeta^e * w + offset[e].c)
    > 0, in the counterclockwise order of the edge directions zeta^-e (de
    Berg et al., Computational Geometry, 4.2): the vertex ring of the edges
    it keeps, or [] when it keeps fewer than three."""
    beta = {e: o.c.imag() for e, o in offset.items()}
    corners: dict[tuple[int, int], CycloNum] = {}

    def corner(f: int, g: int) -> CycloNum:
        if (f, g) not in corners:
            corners[f, g] = grid_corner(f, beta[f], g, beta[g])
        return corners[f, g]

    def inside(e: int, f: int, g: int) -> bool:
        """The corner of f and g lies strictly inside constraint e."""
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


class _Enclosed(NamedTuple):
    """A point w with its ``FieldContext.enclosure``: |x - s*Re(w)| <= err
    and |y - s*Im(w)| <= err, s = w.den * 2^64."""

    w: CycloNum
    x: int
    y: int
    err: int
    s: int


def _enclosed(w: CycloNum) -> _Enclosed:
    return _Enclosed(w, *w.ctx.enclosure(w))


def _cmp_points(p: _Enclosed, r: _Enclosed) -> int:
    """Order by real part, then imaginary part.

    x_p*s_r - x_r*s_p is within err_p*s_r + err_r*s_p of s_p*s_r*(Re(p) -
    Re(r)), and likewise for the imaginary parts; a difference the
    enclosures leave open takes the exact sign of the real element."""
    for u, v, part in ((p.x, r.x, CycloNum.real), (p.y, r.y, CycloNum.imag)):
        s = _decide(u * r.s - v * p.s, p.err * r.s + r.err * p.s)
        if s is None:
            s = sign_of_real(part(p.w) - part(r.w))
        if s != Sign.ZERO:
            return int(s)
    return 0


def _turn(o: _Enclosed, a: _Enclosed, b: _Enclosed) -> Sign:
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
    _, xo, yo, eo, so = o
    _, xa, ya, ea, sa = a
    _, xb, yb, eb, sb = b
    ax, ay, fa = xa * so - xo * sa, ya * so - yo * sa, ea * so + eo * sa
    bx, by, fb = xb * so - xo * sb, yb * so - yo * sb, eb * so + eo * sb
    s = _decide(ax * by - ay * bx, fa * (abs(bx) + abs(by) + 2 * fb) + fb * (abs(ax) + abs(ay)))
    if s is None:
        return sign_of_imag((a.w - o.w).conj() * (b.w - o.w))
    return s


def orientation(o: CycloNum, a: CycloNum, b: CycloNum) -> Sign:
    """Sign of the cross product (a - o) x (b - o)."""
    return _turn(_enclosed(o), _enclosed(a), _enclosed(b))


def make_polygon(vertices: Sequence[CycloNum]) -> ConvexPolygon:
    """Validate and canonicalize a strictly convex counterclockwise cycle.
    Each vertex is enclosed once, and its turns and the canonical start
    (least real part, then least imaginary part) are decided from those
    enclosures, exactly only where they leave a sign open."""
    verts = list(vertices)
    n = len(verts)
    if n < 3:
        raise ParameterError("a polygon needs at least three vertices")
    pts = [_enclosed(v) for v in verts]
    for i in range(n):
        if verts[i] == verts[(i + 1) % n]:
            raise ParameterError("consecutive vertices coincide")
        if _turn(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) != Sign.POSITIVE:
            raise ParameterError("vertex cycle is not strictly convex counterclockwise")
    start = min(range(n), key=lambda i: functools.cmp_to_key(_cmp_points)(pts[i]))
    return ConvexPolygon(tuple(verts[start:] + verts[:start]), tuple(pts[start:] + pts[:start]))


def polygon_contains(p: ConvexPolygon, z: CycloNum) -> Location:
    """Where z lies: the turn of z against each edge, from the polygon's
    vertex enclosures and one enclosure of z, exactly only where they leave
    the sign open."""
    pts = p.enclosed
    pz = _enclosed(z)
    n, saw_zero = len(pts), False
    for i in range(n):
        s = _turn(pts[i], pts[(i + 1) % n], pz)
        if s == Sign.NEGATIVE:
            return Location.EXTERIOR
        if s == Sign.ZERO:
            saw_zero = True
    return Location.BOUNDARY if saw_zero else Location.INTERIOR


def polygon_is_regular(p: ConvexPolygon) -> bool:
    """Equal squared side lengths and equal vertex angles, decided exactly.

    With all sides equal, the angle cosines compare through the raw edge dot
    products, so no normalization is needed.
    """
    v = p.vertices
    n = len(v)
    if n < 3:
        raise ParameterError("regularity needs a genuine polygon")
    edges = [v[(i + 1) % n] - v[i] for i in range(n)]
    side2 = edges[0].squared_abs()
    for e in edges[1:]:
        if e.squared_abs() != side2:
            return False
    dot0 = (edges[0].conj() * edges[1]).real()
    for i in range(1, n):
        if (edges[i].conj() * edges[(i + 1) % n]).real() != dot0:
            return False
    return True


def apply_affine(p: ConvexPolygon, g) -> ConvexPolygon:
    """Image polygon under an orientation-preserving affine map."""
    return make_polygon([g(v) for v in p.vertices])


def edge_direction_power(ctx: FieldContext, d: CycloNum) -> Optional[int]:
    """t in [0, q) with d parallel to the rotated real axis lambda^t * R."""
    if d.is_zero():
        raise ParameterError("zero direction")
    for t in range(ctx.q):
        if (d * ctx.lam_pow(t).conj()).imag().is_zero():
            return t
    return None


# -- segments ----------------------------------------------------------------


def point_on_segment(seg: ExactSegment, w: CycloNum) -> bool:
    d = seg.b - seg.a
    if d.is_zero():
        return w == seg.a
    if orientation(seg.a, seg.b, w) != Sign.ZERO:
        return False
    t_num = (d.conj() * (w - seg.a)).real()
    if sign_of_real(t_num) == Sign.NEGATIVE:
        return False
    return sign_of_real(t_num - d.squared_abs()) != Sign.POSITIVE


def clip_segment_to_box(seg: ExactSegment, box: Box) -> Optional[ExactSegment]:
    """Exact intersection with the closed box; degenerate results are None.

    The faces y >= y0, x >= x0, y <= y1 and x <= x1 are the grid half-planes
    Im(zeta^f * w) + beta_f >= 0 with f = 0, m/4, m/2, 3m/4.  Face by face,
    a segment with both endpoints outside is dropped, and an endpoint outside
    moves to the grid corner of the segment's line with the face.  Each
    endpoint gets one certified enclosure (``FieldContext.enclosure``), which
    decides a face by integer compares; only a face it leaves open, with
    the endpoint on it or within sum|vec_j| / (den * 2^64) of it, takes the
    exact test.
    """
    ctx = seg.a.ctx
    m = ctx.m
    ends = [seg.a, seg.b]
    boxes = [ctx.enclosure(w) for w in ends]
    line = None
    for f, imag, s, bound in (
        (0, True, 1, -box.y0), (m // 4, False, 1, -box.x0),
        (m // 2, True, -1, box.y1), (3 * m // 4, False, -1, box.x1),
    ):
        num, den = bound.numerator, bound.denominator
        out = []
        for w, (x, y, err, scale) in zip(ends, boxes):
            # den * scale * (s * coordinate + bound), within den * err; the
            # compare is inline, not ``_decide``: a call per endpoint and face
            # costs about 5 % of a critical-set round
            gap = s * den * (y if imag else x) + num * scale
            if abs(gap) > den * err:
                out.append(gap < 0)
            else:
                out.append(sign_of_imag(w.mul_zeta(f) + ctx.point(0, bound)) == Sign.NEGATIVE)
        if out[0] and out[1]:
            return None
        if out[0] or out[1]:
            line = line or seg.grid_line()
            k = 0 if out[0] else 1
            ends[k] = grid_corner(*line, f, ctx.from_rational(bound))
            boxes[k] = ctx.enclosure(ends[k])
    a, b = ends
    if a == b:
        return None
    return ExactSegment(a, b, seg.power, seg.depth)
