"""Exact segment families of the critical set: backward images F^{-j}(R) of
the discontinuity line (direction "pullback") and forward images F^{j}(R)
(direction "forward"), clipped to a window.

Every piece lies on a grid line along lambda^t, and each segment carries its
power t.  Each pullback level splits a segment where the inverse branch
switches (the line through 0 with direction lambda), applies the matching
exact inverse branch, and clips to the window of its layer; a forward level
splits at the line itself and applies F.  Splits and clips are grid corners
(``geometry.grid_corner``), so no field inverse runs.  Points exactly on a
splitting line follow the + branch, matching H on the line; the other
branch's image of such a point is not emitted (it only ever appears as a
sub-segment endpoint).

The windows are sound.  F(z) = lambda*(z - H(z)) with H(z) = +-1, so |F(z)|
and |F^-1(z)| differ from |z| by at most 1.  With rho the least integer at
least the largest modulus of a box corner, a point of the box that reaches
the line in ``depth`` steps has its image of layer j within rho + depth - j
of 0, so layer j is clipped to the square of that half-width about 0 and
loses nothing of the box.  Every layer is re-clipped to the box at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .cyclo import FieldContext, Sign, sign_of_imag, sign_of_real
from .errors import InternalInconsistencyError, ParameterError
from .geometry import Box, ExactSegment, clip_segment_to_box, grid_corner

PULLBACK = "pullback"
FORWARD = "forward"


@dataclass(frozen=True)
class CriticalLayer:
    depth: int
    segments: tuple[ExactSegment, ...]
    direction: str


@dataclass(frozen=True)
class BundleResult:
    layers: tuple[CriticalLayer, ...]
    truncated: bool

    def all_segments(self):
        return [s for layer in self.layers for s in layer.segments]


def base_layer(ctx: FieldContext, box: Box, direction: str = PULLBACK) -> CriticalLayer:
    """Depth 0: the discontinuity line clipped to a window (see ``window``)."""
    if box.y0 > 0 or box.y1 < 0:
        return CriticalLayer(0, (), direction)
    seg = ExactSegment(ctx.point(box.x0, 0), ctx.point(box.x1, 0), 0, depth=0)
    return CriticalLayer(0, (seg,), direction)


def window(box: Box, steps: int) -> Box:
    """The square about 0 of half-width rho + steps, with rho the least
    integer >= the largest modulus of a corner of ``box``: it holds every
    point that ``steps`` applications of F or of F^-1 carry into the box."""
    r2 = max(x * x + y * y for x in (box.x0, box.x1) for y in (box.y0, box.y1))
    h = math.isqrt(math.ceil(r2) - 1) + 1 + steps
    return Box(-h, -h, h, h)


def _split_at(seg: ExactSegment, e: int):
    """Split a segment by the sign of Im(zeta^e * w), the grid line through 0.

    Returns a list of (piece, side) with side 1 for the closed nonnegative
    side (which follows the + branch) and side -1 for the strictly negative
    side.  A crossing is the grid corner of the segment's line with the
    splitting line.
    """
    sa = sign_of_imag(seg.a.mul_zeta(e))
    sb = sign_of_imag(seg.b.mul_zeta(e))
    if sa != Sign.NEGATIVE and sb != Sign.NEGATIVE:
        return [(seg, 1)]
    if sa != Sign.POSITIVE and sb != Sign.POSITIVE:
        # wholly on the closed negative side; the zero locus is boundary only
        if sa == Sign.ZERO and sb == Sign.ZERO:
            return [(seg, 1)]
        return [(seg, -1)]
    f, beta = seg.grid_line()
    w = grid_corner(f, beta, e, seg.a.ctx.zero())
    first_side = 1 if sa == Sign.POSITIVE else -1
    return [
        (ExactSegment(seg.a, w, seg.power, seg.depth), first_side),
        (ExactSegment(w, seg.b, seg.power, seg.depth), -first_side),
    ]


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
    t0 = ctx.m * ctx.p // ctx.q
    if direction == PULLBACK:
        # F^-1(w) = w/lambda + H(w/lambda): split where Im(w/lambda) changes sign
        e = t = -t0 % ctx.m
        dpower, shift = -1, {1: ctx.one(), -1: -ctx.one()}
    else:
        # F(w) = lambda*w - lambda*H(w): split at the line itself
        e, t = 0, t0
        dpower, shift = 1, {1: -ctx.lambda_, -1: ctx.lambda_}
    clip = window(box, total_depth - (j + 1))
    out = []
    for seg in prev.segments:
        for piece, side in _split_at(seg, e):
            c = shift[side]
            img = ExactSegment(
                piece.a.mul_zeta(t) + c, piece.b.mul_zeta(t) + c, piece.power + dpower, j + 1
            )
            clipped = clip_segment_to_box(img, clip)
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
    truncates breadth-first by depth, reported through ``truncated``.
    """
    if total_depth < 0:
        raise ParameterError("depth must be >= 0")
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

    Critical segments all have directions on the rotation grid, so the
    supporting line is keyed by (direction class, exact offset); overlapping
    parametric intervals along the line are unioned.  The class of a segment
    of power t is the least t' in [0, q) with lambda^t' * R = lambda^t * R,
    that is t mod q for odd q and t mod q/2 for even q (lambda^(q/2) = -1).
    """
    classes = ctx.q if ctx.q % 2 else ctx.q // 2
    groups: dict = {}
    for seg in segments:
        d = seg.b - seg.a
        if d.is_zero():
            continue
        t = seg.power % classes
        u = ctx.lam_pow(t).conj()
        if not (d * u).imag().is_zero():
            raise InternalInconsistencyError("critical segment off the slope grid")
        offset = (u * seg.a).imag()
        key = (t, offset)
        s_a = (u * seg.a).real()
        s_b = (u * seg.b).real()
        lo, hi = (s_a, s_b) if sign_of_real(s_b - s_a) == Sign.POSITIVE else (s_b, s_a)
        groups.setdefault(key, []).append((lo, hi, seg))
    out: list[ExactSegment] = []
    for (t, _), items in groups.items():
        items.sort(key=functools.cmp_to_key(lambda p, r: int(sign_of_real(p[0] - r[0]))))
        cur_lo, cur_hi, rep = items[0]
        depth = rep.depth
        for lo, hi, seg in items[1:]:
            if sign_of_real(lo - cur_hi) == Sign.POSITIVE:
                out.append(_axis_segment(ctx, t, rep, cur_lo, cur_hi, depth))
                cur_lo, cur_hi, rep, depth = lo, hi, seg, seg.depth
            else:
                if sign_of_real(hi - cur_hi) == Sign.POSITIVE:
                    cur_hi = hi
                depth = min(depth, seg.depth)
        out.append(_axis_segment(ctx, t, rep, cur_lo, cur_hi, depth))
    return out


def _axis_segment(ctx: FieldContext, t: int, rep: ExactSegment, lo, hi, depth) -> ExactSegment:
    # reconstruct endpoints from line data: z = axis*s + i*offset*axis-normal;
    # using the representative's supporting point keeps it exact
    axis = ctx.lam_pow(t)
    base = rep.a - axis * (axis.conj() * rep.a).real()
    return ExactSegment(base + axis * lo, base + axis * hi, t, depth)
