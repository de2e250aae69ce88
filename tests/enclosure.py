"""A certified complex enclosure of a field element, built in the tests from
the sign certificate's fixed-point nodes, a reference for sign checks; and
2^p cos and sin of the nodes' angles in decimal arithmetic, a reference for
the nodes themselves that shares no code with them."""

from decimal import Decimal, localcontext
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
        cos, sin = _fixed_nodes(ctx.m, p)
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


def scaled_cos_sin(k: int, m: int, bits: int = 64, digits: int = 60):
    """(2^bits cos(2 pi k/m), 2^bits sin(2 pi k/m)) as Decimals with
    ``digits`` significant digits: pi by the series 6 arcsin(1/2) of the
    ``decimal`` documentation, cos and sin by their Taylor series."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        pi, last, t, n, na, d, da = Decimal(3), 0, Decimal(3), 1, 0, 0, 24
        while pi != last:
            last = pi
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            pi += t
        x = 2 * pi * k / m
        cos, sin, term, j = Decimal(0), Decimal(0), Decimal(1), 0
        while term:
            if j % 2 == 0:
                cos += term if j % 4 == 0 else -term
            else:
                sin += term if j % 4 == 1 else -term
            j += 1
            term = term * x / j
            if abs(term) < Decimal(10) ** -(digits + 5):
                break
        scale = Decimal(2) ** bits
        return +(cos * scale), +(sin * scale)
