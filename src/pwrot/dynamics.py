"""The piecewise rotation F(z) = lambda*(z - H(z)), its inverse, symbolic
addresses and itineraries, exact period detection, and the affine maps that
F^n restricts to on itinerary cells.

H(z) is 1 on the closed upper half plane and -1 on the open lower one, so the
map is total; symbolic words, however, are only defined off the critical line
(the real axis) and refuse orbits that touch it.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclo import CycloNum, FieldContext, Sign, sign_of_imag
from .errors import (
    CriticalLineError,
    DegenerateRotationError,
    ParameterError,
)


class Address(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    ON_LINE = "0"

    @property
    def char(self) -> str:
        return self.value


@dataclass(frozen=True)
class Itinerary:
    """A finite word of open-half-plane symbols (+1/-1 per letter)."""

    word: tuple[int, ...]

    def __str__(self):
        return "".join("+" if s > 0 else "-" for s in self.word)

    def __len__(self):
        return len(self.word)


@dataclass(frozen=True)
class AffineMap:
    """w -> lambda^power * w + offset, the restriction of F^n to a cell."""

    power: int
    offset: CycloNum

    @property
    def ctx(self) -> FieldContext:
        return self.offset.ctx

    def __call__(self, w: CycloNum) -> CycloNum:
        ctx = self.ctx
        t = (ctx.m * ctx.p // ctx.q) * (self.power % ctx.q)
        return w.mul_zeta(t) + self.offset

    def compose_after(self, first: "AffineMap") -> "AffineMap":
        """self o first, exactly: (t2, b2) o (t1, b1) = (t1+t2, lam^t2*b1 + b2)."""
        ctx = self.ctx
        t = (ctx.m * ctx.p // ctx.q) * (self.power % ctx.q)
        return AffineMap(
            (self.power + first.power) % ctx.q,
            first.offset.mul_zeta(t) + self.offset,
        )

    def linear_part(self) -> CycloNum:
        return self.ctx.lam_pow(self.power)


@dataclass(frozen=True)
class OrbitRecord:
    start: CycloNum
    period: Optional[int]
    iterates_on_line: tuple[tuple[int, CycloNum], ...]
    budget_used: int


def step(z: CycloNum) -> CycloNum:
    """One application of F; the critical line takes the + branch."""
    lam = z.ctx.lambda_
    if sign_of_imag(z) >= Sign.ZERO:
        return lam * (z - 1)
    return lam * (z + 1)


def inverse_step(z: CycloNum) -> CycloNum:
    """One application of F^{-1}(z) = z/lambda + H(z/lambda)."""
    w = z.mul_zeta(-(z.ctx.m * z.ctx.p // z.ctx.q) % z.ctx.m)
    if sign_of_imag(w) >= Sign.ZERO:
        return w + 1
    return w - 1


def address(z: CycloNum) -> Address:
    s = sign_of_imag(z)
    if s == Sign.POSITIVE:
        return Address.PLUS
    if s == Sign.NEGATIVE:
        return Address.MINUS
    return Address.ON_LINE


def orbit(z: CycloNum, n: int) -> list[CycloNum]:
    """[z, F(z), ..., F^n(z)], exact."""
    if n < 0:
        raise ParameterError("orbit length must be >= 0")
    out = [z]
    for _ in range(n):
        z = step(z)
        out.append(z)
    return out


def minimal_period(z: CycloNum, budget: int) -> OrbitRecord:
    """Search for the first exact return F^n(z) = z with n <= budget.

    The first exact return of a bijection is the minimal period.  Indices
    where the orbit lies on the critical line are recorded along the way.
    A missing period within budget is an outcome, not an error, and proves
    nothing about aperiodicity.
    """
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    from .stepper import run_period  # local import to avoid a cycle

    return run_period(z, budget)


def itinerary(z: CycloNum, n: int) -> Itinerary:
    """The length-n word of addresses of z, F(z), ..., F^(n-1)(z).

    Raises ``CriticalLineError`` (with the offending index) when some iterate
    lies on the line, where the two-symbol alphabet is undefined.
    """
    if n < 0:
        raise ParameterError("itinerary length must be >= 0")
    from .stepper import run_signs

    signs, zero_index, _ = run_signs(z, n, stop_on_zero=True)
    if zero_index is not None:
        raise CriticalLineError(zero_index)
    return Itinerary(tuple(signs))


def itinerary_period(word: Itinerary | Sequence[int]) -> int:
    """Minimal shift period of the infinite repetition of ``word``.

    Assumes the word is the full cycle of an exactly periodic orbit, so the
    answer divides the word length.
    """
    w = tuple(word.word if isinstance(word, Itinerary) else word)
    n = len(w)
    if n == 0:
        raise ParameterError("empty word has no period")
    for ell in sorted(_divisors(n)):
        if w == w[:ell] * (n // ell):
            return ell
    raise AssertionError("unreachable: n divides n")


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def branch_offsets(ctx: FieldContext, word: Itinerary | Sequence[int], n: int):
    """The offsets b_0, ..., b_n of the prefix maps G_j(w) = lambda^j * w + b_j
    along the cyclic repetition of ``word``, one at a time: G_j is F^j on the
    points whose itinerary starts s_0 ... s_(j-1), b_0 = 0 and
    b_(j+1) = lambda * (b_j - s_j), so every b_j lies in Z[zeta]."""
    w = tuple(word.word if isinstance(word, Itinerary) else word)
    t = ctx.m * ctx.p // ctx.q
    b = ctx.zero()
    yield b
    for j in range(n):
        b = (b - w[j % len(w)]).mul_zeta(t)
        yield b


def affine_along(ctx: FieldContext, word: Itinerary | Sequence[int]) -> AffineMap:
    """The exact composition of one-step branch maps along ``word``.

    Equals F^n on every point whose length-n itinerary is ``word``.
    """
    n = len(word)
    return AffineMap(n % ctx.q, deque(branch_offsets(ctx, word, n), maxlen=1).pop())


def rotation_center(g: AffineMap) -> CycloNum:
    """The unique fixed point of w -> lambda^t w + b when lambda^t != 1."""
    ctx = g.ctx
    if g.power % ctx.q == 0:
        raise DegenerateRotationError(
            "linear part is 1; the map is a translation or the identity"
        )
    u = g.linear_part()
    return g.offset * (ctx.one() - u).inverse()


def rotation_order(ctx: FieldContext, ell: int) -> int:
    """Multiplicative order of lambda^ell, i.e. q / gcd(ell, q)."""
    if ell < 1:
        raise ParameterError("ell must be >= 1")
    return ctx.q // math.gcd(ell, ctx.q)
