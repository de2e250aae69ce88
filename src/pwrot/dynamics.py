"""The piecewise rotation F(z) = lambda*(z - H(z)), its inverse, itineraries,
exact period detection, and the affine maps that F^n restricts to on
itinerary cells.

H(z) is 1 on the closed upper half plane and -1 on the open lower one, so the
map is total.  The branch of a point is the ``Sign`` of its imaginary part
(``sign_of_imag``); an itinerary is the tuple of those signs, +1 or -1, along
an orbit, so it is only defined off the critical line (the real axis) and
refuses orbits that touch it.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple, Sequence

from .cyclo import CycloNum, FieldContext, Sign, sign_of_imag
from .errors import CriticalLineError, ParameterError
from .stepper import OrbitRecord, run_period, run_signs


class AffineMap(NamedTuple):
    """w -> lambda^power * w + offset, the restriction of F^n to a cell."""

    power: int
    offset: CycloNum

    @property
    def ctx(self) -> FieldContext:
        return self.offset.ctx

    def __call__(self, w: CycloNum) -> CycloNum:
        return w.mul_zeta(self.ctx.t0 * self.power) + self.offset


def step(z: CycloNum) -> CycloNum:
    """One application of F, one ``mul_zeta`` permutation; the critical line
    takes the + branch."""
    return (z - 1 if sign_of_imag(z) >= Sign.ZERO else z + 1).mul_zeta(z.ctx.t0)


def inverse_step(z: CycloNum) -> CycloNum:
    """One application of F^{-1}(z) = z/lambda + H(z/lambda)."""
    w = z.mul_zeta(-z.ctx.t0)
    if sign_of_imag(w) >= Sign.ZERO:
        return w + 1
    return w - 1


def orbit(z: CycloNum, n: int) -> list[CycloNum]:
    """[z, F(z), ..., F^n(z)], exact."""
    if n < 0:
        raise ParameterError("orbit length must be >= 0")
    out = [z]
    for _ in range(n):
        z = step(z)
        out.append(z)
    return out


def minimal_period(z: CycloNum, budget: int, nominate: bool = False) -> OrbitRecord:
    """Search for the first exact return F^n(z) = z with n <= budget.

    The first exact return of a bijection is the minimal period.  Indices
    where the orbit lies on the critical line, and the sign of every iterate,
    are recorded along the way, and with ``nominate`` the per-class nominees
    that a tile is built from.
    A missing period within budget is an outcome, not an error, and proves
    nothing about aperiodicity.
    """
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    return run_period(z, budget, nominate)


def itinerary(z: CycloNum, n: int) -> tuple[int, ...]:
    """The length-n word of z: the signs of Im, +1 or -1, of z, F(z), ...,
    F^(n-1)(z), as a tuple.

    Raises ``CriticalLineError`` (with the offending index) when some iterate
    lies on the line, where the two-symbol alphabet is undefined.
    """
    if n < 0:
        raise ParameterError("itinerary length must be >= 0")
    signs, touches = run_signs(z, n)
    if touches:
        raise CriticalLineError(touches[0][0])
    return tuple(signs)


def itinerary_period(word: Sequence[int]) -> int:
    """Minimal shift period of the infinite repetition of ``word``, any
    sequence of +1 and -1 (a tuple, a list, the walk's ``array('b')``).

    The least p > 0 with the word equal to its rotation by p: the first
    occurrence of the word in itself doubled after index 0.  It divides the
    word length, and for the full cycle of an exactly periodic orbit it is
    the minimal period of the itinerary.
    """
    if not word:
        raise ParameterError("empty word has no period")
    b = array("b", word).tobytes()
    return (b + b).find(b, 1)


def branch_offsets(ctx: FieldContext, word: Sequence[int], n: int):
    """The offsets b_0, ..., b_n of the prefix maps G_j(w) = lambda^j * w + b_j
    along the cyclic repetition of ``word``, one at a time: G_j is F^j on the
    points whose itinerary starts s_0 ... s_(j-1), b_0 = 0 and
    b_(j+1) = lambda * (b_j - s_j), so every b_j lies in Z[zeta]."""
    b = ctx.zero()
    yield b
    for j in range(n):
        b = (b - word[j % len(word)]).mul_zeta(ctx.t0)
        yield b


def rotation_order(ctx: FieldContext, ell: int) -> int:
    """Multiplicative order of lambda^ell, i.e. q / gcd(ell, q)."""
    if ell < 1:
        raise ParameterError("ell must be >= 1")
    return ctx.q // math.gcd(ell, ctx.q)
