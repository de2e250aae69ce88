"""Exact segment families of the critical set: backward images F^{-j}(R) of
the discontinuity line (direction "pullback") and forward images F^{j}(R)
(direction "forward"), clipped to a window.

Every piece lies on a grid line along lambda^t, and each segment carries its
power t.  A layer is one pass over the segments of the last.  Each pullback
level splits a segment where the inverse branch switches (the line through
0 with direction lambda), applies the matching exact inverse branch, and
clips to the window of its layer; a forward level splits at the line itself
and applies F.  An endpoint's split sign in the next layer is one call of
the field's sign oracle, ``FieldContext.sign``, on its integer vector, and
its certified enclosure (``CycloNum.enclosure``), computed once and kept on
the endpoint, decides its window clip and the final box clip; only a face
the enclosure leaves open takes the exact test.  Splits and clips are grid
corners (``geometry.grid_corner``), so no field inverse runs.  Points
exactly on a splitting line follow the + branch, matching H on the line;
the other branch's image of such a point is not emitted (it only ever
appears as a sub-segment endpoint).

A branch image zeta^t w + c is made on the lattice pair with no gcd.  For w
= vec/den reduced (gcd(den, vec...) = 1, den > 0), zeta^t w = P(vec)/den,
where P, multiplication by zeta^t, is an integer matrix with an integer
inverse on Z[zeta]: a common divisor of den and P(vec) divides den and
P^-1(P(vec)) = vec, so gcd(den, P(vec)...) = 1.  The shift c is an integer
vector u (+-1 at index 0 for F^-1, -+lambda for F), and adding multiples of
den changes no gcd with den: gcd(den, (P(vec) + den*u)...) = gcd(den,
P(vec)...) = 1.  So (P(vec) + den*u, den) is already the reduced pair.

The windows are sound.  F(z) = lambda*(z - H(z)) with H(z) = +-1, so |F(z)|
and |F^-1(z)| differ from |z| by at most 1.  With rho the least integer at
least the largest modulus of a box corner, a point of the box that reaches
the line in ``depth`` steps has its image of layer j within rho + depth - j
of 0, so layer j is clipped to the square of that half-width about 0 and
loses nothing of the box.  ``window`` is the one place these squares are
built, and it is cached per box and width, so a bundle builds each square
once.

Every layer is re-clipped to the box at the end, by the one Cohen-Sutherland
loop of ``clip_segment_to_box``.  Most segments of that final pass are
settled by their endpoints' outcodes alone: those the window kept and the
box holds come back as they are, and those wholly outside one face of the
box, about half of the pass at depth 20, are dropped with no grid corner
built.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .cyclo import CycloNum, FieldContext, Sign
from .errors import InternalInconsistencyError, ParameterError
from .geometry import Box, ExactSegment, _cmp_points, clip_segment_to_box, grid_corner

PULLBACK = "pullback"
FORWARD = "forward"


class CriticalLayer(NamedTuple):
    depth: int
    segments: tuple[ExactSegment, ...]
    direction: str


class BundleResult(NamedTuple):
    layers: tuple[CriticalLayer, ...]
    truncated: bool

    def all_segments(self):
        return [s for layer in self.layers for s in layer.segments]


def base_layer(ctx: FieldContext, box: Box, direction: str = PULLBACK) -> CriticalLayer:
    """Depth 0: the discontinuity line clipped to a window (see ``window``)."""
    if box.y0 > 0 or box.y1 < 0:
        return CriticalLayer(0, (), direction)
    return CriticalLayer(0, (ExactSegment(ctx.point(box.x0, 0), ctx.point(box.x1, 0), 0),),
                         direction)


@functools.lru_cache(maxsize=256)
def window(box: Box, steps: int) -> Box:
    """The square about 0 of half-width rho + steps, with rho the least
    integer >= the largest modulus of a corner of ``box``: it holds every
    point that ``steps`` applications of F or of F^-1 carry into the box.
    Cached, since both directions of a bundle ask for the same squares."""
    r2 = max(x * x + y * y for x in (box.x0, box.x1) for y in (box.y0, box.y1))
    h = math.isqrt(math.ceil(r2) - 1) + 1 + steps
    return Box(-h, -h, h, h)


def _split_at(seg: ExactSegment, e: int):
    """Split a segment by the sign of Im(zeta^e * w), the grid line through 0.

    Returns a list of (a, b, side), the pieces' endpoints, with side 1 for
    the closed nonnegative side (which follows the + branch) and side -1 for
    the strictly negative side.  The endpoints' signs are
    ``FieldContext.sign`` on their integer vectors; a crossing is the grid
    corner of the segment's line with the splitting line.
    """
    ctx = seg.a.ctx
    sa, sb = ctx.sign(seg.a.vec, e), ctx.sign(seg.b.vec, e)
    if sa != Sign.NEGATIVE and sb != Sign.NEGATIVE:
        return [(seg.a, seg.b, 1)]
    if sa != Sign.POSITIVE and sb != Sign.POSITIVE:
        # wholly on the closed negative side; the zero locus is boundary only
        return [(seg.a, seg.b, -1)]
    f, beta = seg.grid_line()
    w = grid_corner(f, beta, e, ctx.zero())
    first_side = 1 if sa == Sign.POSITIVE else -1
    return [(seg.a, w, first_side), (w, seg.b, -first_side)]


def _branch_image(w: CycloNum, t: int, shift) -> CycloNum:
    """zeta^t * w + u for w = vec/den and the integer vector u whose nonzero
    entries are the (index, value) pairs ``shift``: one permutation of vec
    plus den * u, already reduced (see the module docstring)."""
    ctx, den = w.ctx, w.den
    vec = ctx._permute(w.vec, 1, t)
    for i, u in shift:
        vec[i] += den * u
    return CycloNum(ctx, tuple(vec), den)


def _next_layer(prev: CriticalLayer, box: Box, total_depth: int, direction: str) -> CriticalLayer:
    """The next layer of a bundle: split each segment at the grid line through
    0 where the branch switches, map each piece by w -> zeta^t w + c_side
    (F^-1 for a pullback layer, F for a forward one), and clip it to the
    window of its depth."""
    if prev.direction != direction:
        raise ParameterError(f"{direction}_layer needs a {direction}-direction layer")
    j = prev.depth
    if j >= total_depth:
        raise ParameterError("layer is already at the target depth")
    if not prev.segments:
        return CriticalLayer(j + 1, (), direction)
    ctx = prev.segments[0].a.ctx
    if direction == PULLBACK:
        # F^-1(w) = w/lambda + H(w/lambda): split where Im(w/lambda) changes sign
        e = t = -ctx.t0 % ctx.m
        dpower, c = -1, ctx.one()
    else:
        # F(w) = lambda*w - lambda*H(w): split at the line itself
        e, t = 0, ctx.t0
        dpower, c = 1, -ctx.lambda_
    shift = {side: [(i, side * u) for i, u in enumerate(c.vec) if u] for side in (1, -1)}
    clip = window(box, total_depth - (j + 1))
    out = []
    for seg in prev.segments:
        power = seg.power + dpower
        for a, b, side in _split_at(seg, e):
            ia, ib = _branch_image(a, t, shift[side]), _branch_image(b, t, shift[side])
            clipped = clip_segment_to_box(ExactSegment(ia, ib, power, j + 1), clip)
            if clipped is not None:
                out.append(clipped)
    return CriticalLayer(j + 1, tuple(out), direction)


def pullback_layer(prev: CriticalLayer, box: Box, total_depth: int) -> CriticalLayer:
    """F^{-1} of a pullback layer, clipped to the window of its depth."""
    return _next_layer(prev, box, total_depth, PULLBACK)


def forward_layer(prev: CriticalLayer, box: Box, total_depth: int) -> CriticalLayer:
    """F of a forward layer, clipped to the window of its depth."""
    return _next_layer(prev, box, total_depth, FORWARD)


def critical_bundle(
    ctx: FieldContext,
    total_depth: int,
    box: Box,
    direction: str = PULLBACK,
    cap: int = 1_000_000,
) -> BundleResult:
    """All layers 0..total_depth, re-clipped to the user box at the end.

    ``direction`` is "pullback", "forward", or "both".  The segment cap
    truncates breadth-first by depth, reported through ``truncated``.  It
    counts each direction on its own, on the windowed layers before the box
    re-clip: the first layer that takes the count past ``cap`` and every
    deeper one are left out.  So at 4/5, depth 10, box -3..3 and cap 40,
    pullback keeps 25 segments and forward 26, and "both" keeps 51.
    """
    if total_depth < 0:
        raise ParameterError("depth must be >= 0")
    if cap < 0:
        raise ParameterError("cap must be >= 0")
    directions = [PULLBACK, FORWARD] if direction == "both" else [direction]
    if any(d not in (PULLBACK, FORWARD) for d in directions):
        raise ParameterError(f"unknown direction {direction!r}")
    layers = []
    truncated = False
    for d in directions:
        advance = pullback_layer if d == PULLBACK else forward_layer
        work = base_layer(ctx, window(box, total_depth), d)
        series = [work]
        total = len(work.segments)
        for _ in range(total_depth):
            work = advance(work, box, total_depth)
            total += len(work.segments)
            if total > cap:
                truncated = True
                break
            series.append(work)
        for layer in series:
            reclipped = tuple(
                c
                for s in layer.segments
                if (c := clip_segment_to_box(s, box)) is not None
            )
            layers.append(CriticalLayer(layer.depth, reclipped, d))
    return BundleResult(tuple(layers), truncated)


def merge_collinear(ctx: FieldContext, segments) -> list[ExactSegment]:
    """Merge overlapping collinear segments; for rendering only.

    A segment of power t lies on a grid line of its class, the least t' in
    [0, q) with lambda^t' * R = lambda^t * R: t mod q for odd q and t mod
    q/2 for even q (lambda^(q/2) = -1).  Segments are grouped by class and
    by the grid line Im(zeta^e * w) = -beta of ``ExactSegment.grid_line``
    at that class, ordered along it by Re(zeta^e * w), and overlapping spans
    are unioned.  zeta^e * w is one ``mul_zeta`` permutation and the order
    is decided on its enclosure, so no field product runs, and a merged
    segment runs between the input endpoints that bound its span.  Both
    endpoints of a segment must lie on the one grid line.
    """
    classes = ctx.q if ctx.q % 2 else ctx.q // 2
    # (zeta^e * w, w, ...) tuples, in the order of Re(zeta^e * w) on one line
    along = functools.cmp_to_key(lambda u, v: _cmp_points(u[0], v[0]))
    groups: dict = {}
    for seg in segments:
        if seg.a == seg.b:
            continue
        t = seg.power % classes
        e, beta = ExactSegment(seg.a, seg.b, t).grid_line()
        wa, wb = seg.a.mul_zeta(e), seg.b.mul_zeta(e)
        if wb.imag() != -beta:
            raise InternalInconsistencyError("critical segment off the slope grid")
        ends = sorted([(wa, seg.a), (wb, seg.b)], key=along)
        groups.setdefault((t, beta), []).append((*ends[0], *ends[1], seg.depth))
    out: list[ExactSegment] = []
    for (t, _), items in groups.items():
        items.sort(key=along)
        _, lo, reach, hi, depth = items[0]
        for start, a, end, b, d in items[1:]:
            if _cmp_points(start, reach) > 0:
                out.append(ExactSegment(lo, hi, t, depth))
                lo, reach, hi, depth = a, end, b, d
            else:
                if _cmp_points(end, reach) > 0:
                    reach, hi = end, b
                depth = min(depth, d)
        out.append(ExactSegment(lo, hi, t, depth))
    return out
