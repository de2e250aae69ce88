"""Exact planar geometry over the cyclotomic field.

Lines are written as {w : Im(u*w + b) = 0} with u a field unit, so every
predicate (side of a line, vertex incidence, convexity) reduces to the sign
oracle and stays exact.  Half-planes live on the direction grid of the map:
u = lambda^k = zeta^e for an integer exponent e, so half-plane intersection
decides parallel and antiparallel directions, angular order and
boundedness by comparing exponents, and finds the vertices with one
half-plane sweep; the output polygon is the closure of the open
intersection.
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
class ExactLine:
    """{w : Im(u*w + b) = 0}; u must be nonzero."""

    u: CycloNum
    b: CycloNum

    def __post_init__(self):
        if self.u.is_zero():
            raise ParameterError("line direction coefficient must be nonzero")

    def side_of(self, w: CycloNum) -> Sign:
        return sign_of_imag(self.u * w + self.b)


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

    def side_of(self, w: CycloNum) -> Sign:
        """Sign of Im(lambda^power * w + b), before ``side`` is applied."""
        return sign_of_imag(self.b.ctx.lam_pow(self.power) * w + self.b)

    def contains(self, w: CycloNum) -> bool:
        return self.side_of(w) == (Sign.POSITIVE if self.side > 0 else Sign.NEGATIVE)


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex vertex cycle, counterclockwise, canonical start."""

    vertices: tuple[CycloNum, ...]

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def key(self):
        return self.vertices


@dataclass(frozen=True)
class ExactSegment:
    a: CycloNum
    b: CycloNum
    depth: int = 0

    def midpoint(self) -> CycloNum:
        return (self.a + self.b) / 2


def line_through(p1: CycloNum, p2: CycloNum) -> ExactLine:
    d = p2 - p1
    if d.is_zero():
        raise ParameterError("two distinct points are needed")
    u = d.conj()
    return ExactLine(u, -(u * p1))


def line_intersection(l1: ExactLine, l2: ExactLine):
    """Intersection point, or None when the lines are parallel (or coincide).

    Writing each line as u*w - conj(u)*conj(w) = conj(b) - b gives a 2x2
    linear system over the field in the unknowns (w, conj(w)).
    """
    u1c, u2c = l1.u.conj(), l2.u.conj()
    det = u1c * l2.u - l1.u * u2c
    if det.is_zero():
        return None
    c1 = l1.b.conj() - l1.b
    c2 = l2.b.conj() - l2.b
    return (u1c * c2 - u2c * c1) * det.inverse()


def halfplane_from_constraint(g, s: int) -> HalfPlane:
    """{w : s * Im(G(w)) > 0} for an affine branch composition G."""
    return HalfPlane(g.power % g.ctx.q, g.offset, 1 if s > 0 else -1)


# -- half-plane intersection ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _inverse_sine(ctx: FieldContext, k: int) -> CycloNum:
    """1 / Im(zeta^k): the scale of the vertex of two lines whose units differ
    by zeta^k."""
    return ctx.zeta_pow(k).imag().inverse()


def intersect_halfplanes(constraints: Sequence[HalfPlane]):
    """Exact intersection of open half-planes on the lambda^k direction grid.

    Returns the closure polygon of the (then open, full-dimensional)
    intersection, or EMPTY, or UNBOUNDED.  Each constraint is rewritten as
    Im(zeta^e * w + c) > 0 with an integer exponent e mod m, so every
    direction decision compares exponents: only the least Im(c) per exponent
    binds; an antiparallel pair e, e + m/2 bounds a strip that is empty
    unless the two Im(c) sum to a positive number; and the intersection is
    unbounded exactly when some cyclic gap between the sorted exponents is
    at least m/2.  A bounded system goes through one half-plane sweep in the
    counterclockwise order of the edge directions zeta^-e (de Berg et al.,
    Computational Geometry, 4.2), and its vertices are checked against every
    constraint, which rejects empty and point-shaped intersections; a
    segment-shaped one is a strip of width zero, rejected before the sweep.
    """
    if not constraints:
        raise ParameterError("at least one constraint is required")
    ctx = constraints[0].b.ctx
    m, half = ctx.m, ctx.m // 2
    t0 = m * ctx.p // ctx.q
    offset: dict[int, CycloNum] = {}
    for h in constraints:
        e = (t0 * h.power + (0 if h.side > 0 else half)) % m
        b = h.b if h.side > 0 else -h.b
        if e not in offset or sign_of_imag(b - offset[e]) == Sign.NEGATIVE:
            offset[e] = b

    for e, b in offset.items():
        if e < half and e + half in offset and sign_of_imag(b + offset[e + half]) != Sign.POSITIVE:
            return EMPTY
    exps = sorted(offset)
    if any(f - e >= half for e, f in zip(exps, exps[1:] + [exps[0] + m])):
        return UNBOUNDED

    beta = {e: c.imag() for e, c in offset.items()}

    def side(e: int, w: CycloNum) -> Sign:
        return sign_of_imag(w.mul_zeta(e) + offset[e])

    def corner(e: int, f: int) -> CycloNum:
        # the point where Im(zeta^e w) = -beta[e] and Im(zeta^f w) = -beta[f]
        return (beta[e].mul_zeta(-f) - beta[f].mul_zeta(-e)) * _inverse_sine(ctx, (f - e) % m)

    edges: deque[int] = deque()
    for e in reversed(exps):
        while len(edges) >= 2 and side(e, corner(edges[-2], edges[-1])) != Sign.POSITIVE:
            edges.pop()
        while len(edges) >= 2 and side(e, corner(edges[0], edges[1])) != Sign.POSITIVE:
            edges.popleft()
        edges.append(e)
    while len(edges) >= 3 and side(edges[0], corner(edges[-2], edges[-1])) != Sign.POSITIVE:
        edges.pop()
    while len(edges) >= 3 and side(edges[-1], corner(edges[0], edges[1])) != Sign.POSITIVE:
        edges.popleft()

    vertices = [corner(edges[j - 1], edges[j]) for j in range(len(edges))]
    if len(set(vertices)) < 3 or any(
        side(e, w) == Sign.NEGATIVE for e in exps for w in vertices
    ):
        return EMPTY
    return make_polygon(vertices)


def _cmp_points(p: CycloNum, r: CycloNum) -> int:
    s = sign_of_real(p.real() - r.real())
    if s == Sign.ZERO:
        s = sign_of_real(p.imag() - r.imag())
    return int(s)


def orientation(o: CycloNum, a: CycloNum, b: CycloNum) -> Sign:
    """Sign of the cross product (a - o) x (b - o)."""
    return sign_of_imag((a - o).conj() * (b - o))


def make_polygon(vertices: Sequence[CycloNum]) -> ConvexPolygon:
    """Validate and canonicalize a strictly convex counterclockwise cycle."""
    verts = list(vertices)
    n = len(verts)
    if n < 3:
        raise ParameterError("a polygon needs at least three vertices")
    for i in range(n):
        if verts[i] == verts[(i + 1) % n]:
            raise ParameterError("consecutive vertices coincide")
        if orientation(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) != Sign.POSITIVE:
            raise ParameterError("vertex cycle is not strictly convex counterclockwise")
    start = min(range(n), key=lambda i: functools.cmp_to_key(_cmp_points)(verts[i]))
    return ConvexPolygon(tuple(verts[start:] + verts[:start]))


def polygon_contains(p: ConvexPolygon, z: CycloNum) -> Location:
    saw_zero = False
    for a, b in p.edges():
        s = orientation(a, b, z)
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


def polygon_squared_diameter(p: ConvexPolygon) -> CycloNum:
    best = None
    v = p.vertices
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            d = (v[i] - v[j]).squared_abs()
            if best is None or sign_of_real(d - best) == Sign.POSITIVE:
                best = d
    return best


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
    """Exact intersection with the closed box; degenerate results are None."""
    a, b = seg.a, seg.b
    ctx = a.ctx
    d = b - a
    dx, dy = d.real(), d.imag()
    ax, ay = a.real(), a.imag()
    t_lo = ctx.zero()
    t_hi = ctx.one()
    # each face contributes a linear constraint p*t <= c
    faces = [
        (-dx, ax - box.x0),
        (dx, ctx.from_rational(box.x1) - ax),
        (-dy, ay - box.y0),
        (dy, ctx.from_rational(box.y1) - ay),
    ]
    for pcoef, c in faces:
        sp = sign_of_real(pcoef)
        if sp == Sign.ZERO:
            if sign_of_real(c) == Sign.NEGATIVE:
                return None
            continue
        bound = c * pcoef.inverse()
        if sp == Sign.POSITIVE:
            if sign_of_real(bound - t_hi) == Sign.NEGATIVE:
                t_hi = bound
        else:
            if sign_of_real(bound - t_lo) == Sign.POSITIVE:
                t_lo = bound
    if sign_of_real(t_hi - t_lo) != Sign.POSITIVE:
        return None
    return ExactSegment(a + t_lo * d, a + t_hi * d, seg.depth)
