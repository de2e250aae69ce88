"""A certified complex enclosure of a field element, built in the tests from
the sign certificate's fixed-point nodes; a reference for sign checks and for
the nodes themselves."""

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from pwrot.cyclo import _fixed_nodes


class ComplexBox(NamedTuple):
    """A rectangular complex enclosure with exact rational endpoints."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    @property
    def mid(self) -> complex:
        return complex((self.re_lo + self.re_hi) / 2, (self.im_lo + self.im_hi) / 2)

    @property
    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def contains_zero(self) -> bool:
        return self.re_lo <= 0 <= self.re_hi and self.im_lo <= 0 <= self.im_hi


def approx(a, bits=64) -> ComplexBox:
    """Re(a) and Im(a) within [T - E, T + E] / (den 2^p), with T the sum of
    vec_j times the p-bit nodes and E = sum|vec_j|; p doubles from
    bits + 16 until the width is at most 2^(1-bits) * (1 + |a|)."""
    ctx = a.ctx
    bound = sum(map(abs, a.vec))
    p = bits + 16
    while True:
        cos, sin = _fixed_nodes(ctx.m, ctx.d, p)
        re = sum(map(mul, a.vec, cos))
        im = sum(map(mul, a.vec, sin))
        scale = a.den << p
        box = ComplexBox(
            Fraction(re - bound, scale), Fraction(re + bound, scale),
            Fraction(im - bound, scale), Fraction(im + bound, scale),
        )
        lo_abs = max(
            Fraction(0),
            max(abs(box.re_lo + box.re_hi), abs(box.im_lo + box.im_hi)) / 2 - box.width,
        )
        if box.width <= Fraction(2) ** (1 - bits) * (1 + lo_abs):
            return box
        p *= 2
