"""Orientation and point-on-segment tests for exact points, built in the
tests from ``geometry``'s enclosed turn predicate: a reference for critical
segments, clipped segments and polygon edges."""

from pwrot import geometry
from pwrot.cyclo import Sign, sign_of_real

from fieldops import squared_abs


def orientation(o, a, b) -> Sign:
    """Sign of the cross product (a - o) x (b - o)."""
    return geometry._turn(o, a, b)


def point_on_segment(seg, w) -> bool:
    """Whether w lies on the closed segment ``seg``, decided exactly."""
    d = seg.b - seg.a
    if d.is_zero():
        return w == seg.a
    if orientation(seg.a, seg.b, w) != Sign.ZERO:
        return False
    t_num = (d.conj() * (w - seg.a)).real()
    if sign_of_real(t_num) == Sign.NEGATIVE:
        return False
    return sign_of_real(t_num - squared_abs(d)) != Sign.POSITIVE
