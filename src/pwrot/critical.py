"""Exact segment families of the critical set: backward images F^{-j}(R) of
the discontinuity line (direction "pullback") and forward images F^{j}(R)
(direction "forward"), clipped to a window.

Each pullback level splits a segment where the inverse branch switches (the
line through 0 with direction lambda), applies the matching exact inverse
branch, and clips to a box inflated by the remaining depth.  That window is
not a sound bound: F rotates about centers off the origin, so a point outside
the inflated box can still map into the box within the remaining steps, and
the segments it lies on are dropped.  A layer is therefore exact on what it
lists but may miss parts of the critical set inside the box.  Points exactly
on a splitting line follow the + branch, matching H on the line; the other
branch's image of such a point is not emitted (it only ever appears as a
sub-segment endpoint).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cyclo import FieldContext, Sign, sign_of_real
from .errors import InternalInconsistencyError, ParameterError
from .geometry import Box, ExactSegment, clip_segment_to_box, edge_direction_power

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
    """Depth 0: the discontinuity line clipped to the (already inflated) box."""
    if box.y0 > 0 or box.y1 < 0:
        return CriticalLayer(0, (), direction)
    seg = ExactSegment(ctx.point(box.x0, 0), ctx.point(box.x1, 0), depth=0)
    return CriticalLayer(0, (seg,), direction)


def _split_at(seg: ExactSegment, height):
    """Split a segment by the sign of a real-valued affine ``height``.

    Returns a list of (piece, side) with side >= 0 for the closed nonnegative
    side (which follows the + branch) and side < 0 for the strictly negative
    side.
    """
    ha = height(seg.a)
    hb = height(seg.b)
    sa, sb = sign_of_real(ha), sign_of_real(hb)
    if sa != Sign.NEGATIVE and sb != Sign.NEGATIVE:
        return [(seg, 1)]
    if sa != Sign.POSITIVE and sb != Sign.POSITIVE:
        # wholly on the closed negative side; the zero locus is boundary only
        if sa == Sign.ZERO and sb == Sign.ZERO:
            return [(seg, 1)]
        return [(seg, -1)]
    t = ha * (ha - hb).inverse()
    w = seg.a + t * (seg.b - seg.a)
    first_side = 1 if sa == Sign.POSITIVE else -1
    return [
        (ExactSegment(seg.a, w, seg.depth), first_side),
        (ExactSegment(w, seg.b, seg.depth), -first_side),
    ]


def pullback_layer(prev: CriticalLayer, box: Box, total_depth: int) -> CriticalLayer:
    """F^{-1} of a pullback layer, clipped to the depth-adjusted box."""
    if prev.direction != PULLBACK:
        raise ParameterError("pullback_layer needs a pullback-direction layer")
    j = prev.depth
    if j >= total_depth:
        raise ParameterError("layer is already at the target depth")
    ctx = _layer_ctx(prev)
    if ctx is None:
        return CriticalLayer(j + 1, (), PULLBACK)
    t_inv = -(ctx.m * ctx.p // ctx.q) % ctx.m
    lam_conj = ctx.lambda_.conj()
    clip = box.inflate(total_depth - (j + 1))
    out = []
    for seg in prev.segments:
        for piece, side in _split_at(seg, lambda z: (z * lam_conj).imag()):
            shift = 1 if side >= 0 else -1
            img = ExactSegment(
                piece.a.mul_zeta(t_inv) + shift,
                piece.b.mul_zeta(t_inv) + shift,
                j + 1,
            )
            clipped = clip_segment_to_box(img, clip)
            if clipped is not None:
                out.append(clipped)
    return CriticalLayer(j + 1, tuple(out), PULLBACK)


def forward_layer(prev: CriticalLayer, box: Box, total_depth: int) -> CriticalLayer:
    """F of a forward layer: split at the line itself, rotate each branch."""
    if prev.direction != FORWARD:
        raise ParameterError("forward_layer needs a forward-direction layer")
    j = prev.depth
    if j >= total_depth:
        raise ParameterError("layer is already at the target depth")
    ctx = _layer_ctx(prev)
    if ctx is None:
        return CriticalLayer(j + 1, (), FORWARD)
    t0 = ctx.m * ctx.p // ctx.q
    clip = box.inflate(total_depth - (j + 1))
    out = []
    for seg in prev.segments:
        for piece, side in _split_at(seg, lambda z: z.imag()):
            shift = -1 if side >= 0 else 1
            img = ExactSegment(
                (piece.a + shift).mul_zeta(t0),
                (piece.b + shift).mul_zeta(t0),
                j + 1,
            )
            clipped = clip_segment_to_box(img, clip)
            if clipped is not None:
                out.append(clipped)
    return CriticalLayer(j + 1, tuple(out), FORWARD)


def _layer_ctx(layer: CriticalLayer):
    return layer.segments[0].a.ctx if layer.segments else None


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
        work = base_layer(ctx, box.inflate(total_depth), d)
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
    parametric intervals along the line are unioned.
    """
    groups: dict = {}
    for seg in segments:
        d = seg.b - seg.a
        if d.is_zero():
            continue
        t = edge_direction_power(ctx, d)
        if t is None:
            raise InternalInconsistencyError("critical segment off the slope grid")
        axis = ctx.lam_pow(t)
        u = axis.conj()
        offset = (u * seg.a).imag()
        key = (t, offset)
        s_a = (u * seg.a).real()
        s_b = (u * seg.b).real()
        lo, hi = (s_a, s_b) if sign_of_real(s_b - s_a) == Sign.POSITIVE else (s_b, s_a)
        groups.setdefault(key, []).append((lo, hi, seg))
    out: list[ExactSegment] = []
    for (t, _), items in groups.items():
        axis = ctx.lam_pow(t)
        items.sort(key=functools.cmp_to_key(lambda p, r: int(sign_of_real(p[0] - r[0]))))
        cur_lo, cur_hi, rep = items[0]
        depth = rep.depth
        for lo, hi, seg in items[1:]:
            if sign_of_real(lo - cur_hi) == Sign.POSITIVE:
                out.append(_axis_segment(axis, rep, cur_lo, cur_hi, depth))
                cur_lo, cur_hi, rep, depth = lo, hi, seg, seg.depth
            else:
                if sign_of_real(hi - cur_hi) == Sign.POSITIVE:
                    cur_hi = hi
                depth = min(depth, seg.depth)
        out.append(_axis_segment(axis, rep, cur_lo, cur_hi, depth))
    return out


def _axis_segment(axis, rep: ExactSegment, lo, hi, depth) -> ExactSegment:
    # reconstruct endpoints from line data: z = axis*s + i*offset*axis-normal;
    # using the representative's supporting point keeps it exact
    u = axis.conj()
    base = rep.a - axis * (u * rep.a).real()
    return ExactSegment(base + axis * lo, base + axis * hi, depth)
