"""The affine calculus of branch words, built in the tests from
``dynamics.branch_offsets``: a reference for tiles, half-planes and centers."""

from collections import deque

from pwrot.dynamics import AffineMap, branch_offsets
from pwrot.geometry import HalfPlane


def affine_along(ctx, word) -> AffineMap:
    """The exact composition of one-step branch maps along ``word``; it equals
    F^n on every point whose length-n itinerary is ``word``."""
    n = len(word)
    return AffineMap(n % ctx.q, deque(branch_offsets(ctx, word, n), maxlen=1).pop())


def compose(second: AffineMap, first: AffineMap) -> AffineMap:
    """second o first: (t2, b2) o (t1, b1) = (t1 + t2, lambda^t2 * b1 + b2)."""
    ctx = second.ctx
    return AffineMap((second.power + first.power) % ctx.q,
                     ctx.lam_pow(second.power) * first.offset + second.offset)


def rotation_center(g: AffineMap):
    """The fixed point of w -> lambda^t w + b, for lambda^t != 1."""
    return g.offset * (g.ctx.one() - g.ctx.lam_pow(g.power)).inverse()


def pulled_back(ctx, t, b, s) -> HalfPlane:
    """The constraint s * Im(lambda^t w + b) > 0 in grid form: with
    lambda^t = zeta^(t0*t) and zeta^(m/2) = -1 it is Im(zeta^e w + c) > 0
    for e = t0*t (+ m/2 when s < 0) mod m and c = s*b."""
    return HalfPlane((ctx.t0 * t + (ctx.m // 2 if s < 0 else 0)) % ctx.m, s * b)
