"""Exact planar geometry over the cyclotomic field.

Lines are written as {w : Im(u*w + b) = 0} with u a field unit, so every
predicate (side of a line, vertex incidence, convexity) reduces to the sign
oracle and stays exact.  Half-plane intersection works by direction-class
reduction, an exact recession-cone test, and a feasible-vertex convex hull;
the output polygon is the closure of the open intersection.
"""

from __future__ import annotations

import enum
import functools
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
    """Open half-plane {w : side * Im(u*w + b) > 0}.

    ``power`` marks directions known to be lambda^power exactly; it feeds the
    fast direction-class bucketing during intersection.
    """

    line: ExactLine
    side: int
    power: Optional[int] = None

    def contains(self, w: CycloNum) -> bool:
        return self.line.side_of(w) == (Sign.POSITIVE if self.side > 0 else Sign.NEGATIVE)


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
    ctx = g.ctx
    u = ctx.lam_pow(g.power)
    return HalfPlane(ExactLine(u, g.offset), 1 if s > 0 else -1, power=g.power % ctx.q)


# -- half-plane intersection ----------------------------------------------------


class _DirGroup:
    """All constraints sharing one open half-plane direction."""

    __slots__ = ("u", "beta", "power")

    def __init__(self, u: CycloNum, beta: CycloNum, power: Optional[int]):
        self.u = u
        self.beta = beta
        self.power = power


def _real_ratio(u_new: CycloNum, u_ref: CycloNum):
    """u_new / u_ref when that quotient is a real field element, else None."""
    ratio = u_new * u_ref.inverse()
    if ratio != ratio.conj():
        return None
    return ratio


def intersect_halfplanes(constraints: Sequence[HalfPlane]):
    """Exact intersection of open half-planes.

    Returns the closure polygon of the (then open, full-dimensional)
    intersection, or EMPTY, or UNBOUNDED.  Parallel same-side constraints are
    reduced to the binding one; coincident lines with opposite sides give
    EMPTY immediately; UNBOUNDED is reported when the recession cone of the
    reduced system is nontrivial.
    """
    if not constraints:
        raise ParameterError("at least one constraint is required")
    ctx = constraints[0].line.u.ctx
    q = ctx.q

    powered: dict = {}
    general: list[_DirGroup] = []
    for h in constraints:
        side = 1 if h.side > 0 else -1
        u_eff = h.line.u if side > 0 else -h.line.u
        beta = (h.line.b * side).imag()
        if h.power is not None:
            if q % 2 == 0:
                key = (h.power + (q // 2 if side < 0 else 0)) % q
                u_norm = ctx.lam_pow(key)
            else:
                key = (h.power % q, side)
                u_norm = u_eff
            group = powered.get(key)
            if group is None:
                powered[key] = _DirGroup(u_norm, beta, h.power % q)
            elif sign_of_real(beta - group.beta) == Sign.NEGATIVE:
                group.beta = beta
        else:
            for group in general:
                ratio = _real_ratio(u_eff, group.u)
                if ratio is not None and sign_of_real(ratio) == Sign.POSITIVE:
                    scaled = beta * ratio.inverse()
                    if sign_of_real(scaled - group.beta) == Sign.NEGATIVE:
                        group.beta = scaled
                    break
            else:
                general.append(_DirGroup(u_eff, beta, None))

    groups = list(powered.values()) + general

    # merge any general groups that coincide with powered directions
    merged: list[_DirGroup] = []
    for g in groups:
        for kept in merged:
            ratio = _real_ratio(g.u, kept.u)
            if ratio is not None and sign_of_real(ratio) == Sign.POSITIVE:
                scaled = g.beta * ratio.inverse()
                if sign_of_real(scaled - kept.beta) == Sign.NEGATIVE:
                    kept.beta = scaled
                break
        else:
            merged.append(g)
    groups = merged

    # antiparallel pairs bound strips; an empty or degenerate strip kills all
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            ratio = _real_ratio(groups[j].u, groups[i].u)
            if ratio is not None and sign_of_real(ratio) == Sign.NEGATIVE:
                rho_inv = (-ratio).inverse()
                if sign_of_real(groups[i].beta + groups[j].beta * rho_inv) != Sign.POSITIVE:
                    return EMPTY

    # recession cone: inward normals as complex directions i * conj(u)
    normals = [(g, ctx.i_unit * g.u.conj()) for g in groups]
    if len(normals) < 3:
        return UNBOUNDED
    order = sorted(normals, key=functools.cmp_to_key(lambda a, b: _angle_cmp(a[1], b[1])))
    for idx in range(len(order)):
        n1 = order[idx][1]
        n2 = order[(idx + 1) % len(order)][1]
        if sign_of_imag(n1.conj() * n2) != Sign.POSITIVE:
            return UNBOUNDED

    # bounded: vertices live on pairwise intersections of the group lines
    lines = [ExactLine(g.u, ctx.i_unit * g.beta) for g in groups]
    candidates: list[CycloNum] = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            w = line_intersection(lines[i], lines[j])
            if w is None:
                continue
            if all(
                sign_of_imag(g.u * w + ctx.i_unit * g.beta) != Sign.NEGATIVE
                for g in groups
            ):
                candidates.append(w)
    hull = convex_hull(candidates)
    if len(hull) < 3:
        return EMPTY
    return ConvexPolygon(tuple(hull))


def _angle_cmp(a: CycloNum, b: CycloNum) -> int:
    """Counterclockwise angle order on nonzero directions, from the +x axis."""
    ha = _half_of(a)
    hb = _half_of(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = sign_of_imag(a.conj() * b)
    if cross == Sign.POSITIVE:
        return -1
    if cross == Sign.NEGATIVE:
        return 1
    return 0


def _half_of(v: CycloNum) -> int:
    sy = sign_of_real(v.imag())
    if sy == Sign.POSITIVE:
        return 0
    if sy == Sign.NEGATIVE:
        return 1
    return 0 if sign_of_real(v.real()) == Sign.POSITIVE else 1


def _cmp_points(p: CycloNum, r: CycloNum) -> int:
    s = sign_of_real(p.real() - r.real())
    if s == Sign.ZERO:
        s = sign_of_real(p.imag() - r.imag())
    return int(s)


def orientation(o: CycloNum, a: CycloNum, b: CycloNum) -> Sign:
    """Sign of the cross product (a - o) x (b - o)."""
    return sign_of_imag((a - o).conj() * (b - o))


def convex_hull(points: Sequence[CycloNum]) -> list[CycloNum]:
    """Strict convex hull, counterclockwise, starting at the smallest vertex.

    Collinear interior points are dropped; degenerate inputs return fewer
    than three points.
    """
    uniq: list[CycloNum] = []
    seen = set()
    for p in points:
        if p not in seen:
            seen.add(p)
            uniq.append(p)
    if len(uniq) < 3:
        uniq.sort(key=functools.cmp_to_key(_cmp_points))
        return uniq
    pts = sorted(uniq, key=functools.cmp_to_key(_cmp_points))
    lower: list[CycloNum] = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) != Sign.POSITIVE:
            lower.pop()
        lower.append(p)
    upper: list[CycloNum] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) != Sign.POSITIVE:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return hull[:2]
    return hull


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
