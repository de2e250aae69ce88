"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Every coordinate in the package is a ``CycloNum``: an integer vector over
the power basis ``1, zeta, ..., zeta^(d-1)`` reduced modulo the m-th
cyclotomic polynomial, over one positive common denominator, where
``m = lcm(4, q)`` so that ``i`` and every rational planar point ``x + i*y``
live in the same field as the rotation ``lambda = zeta^(m*p/q)``.  This
(vector, denominator) pair is the lattice form the orbit kernels walk, so
the field and the kernels share one representation.

The pair is kept reduced, so equality of field elements is equality of
pairs.  Ring operations, conjugation and the Galois maps run on integers;
the inverse is the product of the nontrivial Galois conjugates over the
norm.  The sign of a real element is decided by integer fixed-point
enclosures of the embedding at doubling precision, with an exact zero test
when the first fails, so no decision in the package ever rests on floating
point alone.  The first of those enclosures, for both parts of an element
at once, also decides the geometry predicates by integer compares (box
faces, turns, point order), and its nodes rotated by any of the m exponents
enclose Im(zeta^e * a) for the side of a grid line.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import DomainError, ParameterError, WrongContextError


class Sign(enum.IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


# indexed by value > 0: cheaper than an enum attribute on the hot sign path
_NONZERO_SIGNS = (Sign.NEGATIVE, Sign.POSITIVE)


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial.

    Computed by the classical exact division
    ``Phi_n(x) = (x^n - 1) / prod(Phi_k(x) for k | n, k < n)``.
    """
    if n < 1:
        raise ParameterError("cyclotomic index must be >= 1")
    return _cyclotomic(n)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for k in range(1, n):
        if n % k == 0:
            num = _poly_divexact(num, _cyclotomic(k))
    return tuple(num)


def _poly_divexact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials with monic-leading divisor."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    assert den[dd] == 1
    out = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    assert not any(num), "division was not exact"
    return out


def _euler_phi(n: int) -> int:
    result, m = n, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def _fixed_nodes(m: int, d: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integers (C_j), (S_j), j < d, with |C_j - 2^p cos(2 pi j/m)| < 1 and
    |S_j - 2^p sin(2 pi j/m)| < 1 (Brent & Zimmermann, Modern Computer
    Arithmetic, 4.4).  The bound holds for every j < m, so d = m gives the
    nodes of all m exponents: the sign certificate reads j < d, the rotated
    rows of ``FieldContext.sine_row`` all m.

    The work is in fixed point at w = p + g bits, errors in units of 2^-w.
    pi = 16 atan(1/5) - 4 atan(1/239), each atan(1/x) an alternating series
    of floored terms, is off by less than 4w + 32 (each floor and the omitted
    tail by less than 1); the angle 2 pi j/m, taken in [-pi, pi] and floored
    to Theta, by less than 4w + 33.  The series of e^(i r), r = |Theta|/2^w
    < 3.2, runs T_k = floor(T_(k-1) Theta / (k 2^w)) until T_k = 0, k mod 4
    picking cos or sin and the sign.  Term k is off by e_k < e_(k-1) r/k + 1,
    the at most w + 18 terms by less than 25(w + 18) together, the omitted
    tail by less than 50, so each sum is within 29w + 533 of 2^w cos or sin.
    The guard g = p.bit_length() + 12 keeps that below 2^(g-1) for every p,
    and rounding to p bits leaves an error below 1/2 + 1/2.
    """
    g = p.bit_length() + 12
    w = p + g
    one = 1 << w

    def atan_inv(x: int) -> int:
        total, power, n = 0, one // x, 1
        while power:
            total += -(power // n) if n & 2 else power // n
            power //= x * x
            n += 2
        return total

    pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    cos, sin = [], []
    for j in range(d):
        k = j if 2 * j <= m else j - m
        theta = 2 * abs(k) * pi // m
        parts = [0, 0]
        term, n = one, 0
        while term:
            parts[n & 1] += -term if n & 2 else term
            n += 1
            term = term * theta // (n << w)
        c, s = ((x + (1 << (g - 1))) >> g for x in parts)
        cos.append(c)
        sin.append(s if k >= 0 else -s)
    return tuple(cos), tuple(sin)


class FieldContext:
    """Immutable arithmetic context for Q(zeta_m) with m = lcm(4, q).

    Carries the rotation ``lambda_ = zeta^(m*p/q)``, the imaginary unit
    ``i_unit = zeta^(m/4)``, and the integer reduction tables all arithmetic
    runs on.  Construct through :func:`make_field`.
    """

    __slots__ = (
        "p", "q", "m", "d", "phi_m", "lambda_", "i_unit",
        "_zeta_vecs", "_zeta_rows", "_units", "_cos", "_sin", "_lam_pows", "_sine_rows",
        "_extras",
    )

    def __init__(self, p: int, q: int):
        if q < 3:
            raise ParameterError(f"rotation denominator must be >= 3, got {q}")
        if not 0 < p < q:
            raise ParameterError(f"rotation numerator must satisfy 0 < p < q, got {p}")
        if math.gcd(p, q) != 1:
            raise ParameterError(f"rotation fraction {p}/{q} is not in lowest terms")
        self.p = p
        self.q = q
        self.m = math.lcm(4, q)
        self.phi_m = cyclotomic_polynomial(self.m)
        self.d = len(self.phi_m) - 1
        assert self.d == _euler_phi(self.m)
        self._zeta_vecs = self._build_zeta_table()
        # the nonzero (index, coefficient) pairs of each zeta^e
        self._zeta_rows = tuple(
            tuple((i, c) for i, c in enumerate(vec) if c) for vec in self._zeta_vecs
        )
        self._units = tuple(k for k in range(1, self.m) if math.gcd(k, self.m) == 1)
        self._cos = tuple(math.cos(2.0 * math.pi * j / self.m) for j in range(self.d))
        self._sin = tuple(math.sin(2.0 * math.pi * j / self.m) for j in range(self.d))
        self.lambda_ = self.zeta_pow(self.m * p // q)
        self.i_unit = self.zeta_pow(self.m // 4)
        self._lam_pows = tuple(
            self.zeta_pow((self.m * p // q) * t % self.m) for t in range(q)
        )
        self._sine_rows = None
        self._extras: dict = {}

    def _build_zeta_table(self) -> tuple[tuple[int, ...], ...]:
        d, phi = self.d, self.phi_m
        vecs = []
        cur = [0] * d
        cur[0] = 1
        for _ in range(self.m):
            vecs.append(tuple(cur))
            top = cur[d - 1]
            nxt = [0] + cur[: d - 1]
            if top:
                for i in range(d):
                    nxt[i] -= top * phi[i]
            cur = nxt
        assert tuple(cur) == vecs[0], "zeta^m must reduce to 1"
        return tuple(vecs)

    # -- constructors -------------------------------------------------------

    def from_lattice(self, vec: Sequence[int], den: int) -> "CycloNum":
        """The element ``vec / den`` for an integer vector and a nonzero
        integer ``den``, brought to its reduced form."""
        g = math.gcd(den, *vec)
        if den < 0:
            g = -g
        if g != 1:
            vec = [x // g for x in vec]
            den //= g
        return CycloNum(self, tuple(vec), den)

    def num(self, coeffs: Sequence[Fraction]) -> "CycloNum":
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.d:
            raise ParameterError(f"coefficient vector must have length {self.d}")
        den = math.lcm(*(c.denominator for c in coeffs))
        return self.from_lattice([c.numerator * (den // c.denominator) for c in coeffs], den)

    def zero(self) -> "CycloNum":
        return CycloNum(self, (0,) * self.d, 1)

    def one(self) -> "CycloNum":
        return self.from_rational(1)

    def from_rational(self, x) -> "CycloNum":
        x = Fraction(x)
        return CycloNum(self, (x.numerator,) + (0,) * (self.d - 1), x.denominator)

    def zeta_pow(self, e: int) -> "CycloNum":
        return CycloNum(self, self._zeta_vecs[e % self.m], 1)

    def lam_pow(self, t: int) -> "CycloNum":
        """lambda^t, cached for t modulo q."""
        return self._lam_pows[t % self.q]

    def point(self, x, y) -> "CycloNum":
        """Embed the rational planar point (x, y) as x + i*y."""
        return self.from_rational(x) + self.i_unit * Fraction(y)

    def __repr__(self):
        return f"FieldContext(p={self.p}, q={self.q}, m={self.m}, d={self.d})"

    # -- integer vector arithmetic ---------------------------------------------

    def _mul_vecs(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Integer vector of the product of two integer vectors."""
        d = self.d
        prod = [0] * (2 * d - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    prod[i + j] += x * y
        out = prod[:d]
        rows = self._zeta_rows
        for e in range(d, 2 * d - 1):
            c = prod[e]
            if c:
                for i, r in rows[e]:
                    out[i] += c * r
        return out

    def _permute(self, vec: Sequence[int], k: int, e: int) -> list[int]:
        """Integer vector of sum(vec_j * zeta^(k*j + e)).

        With k = 1 this multiplies by zeta^e, with e = 0 it is the Galois
        map zeta -> zeta^k (k = -1 is complex conjugation).  For k prime to
        m both are bijections of Z[zeta], so the gcd of the vector is kept.
        """
        m, rows = self.m, self._zeta_rows
        out = [0] * self.d
        for j, x in enumerate(vec):
            if x:
                for i, c in rows[(k * j + e) % m]:
                    out[i] += x * c
        return out

    # -- sign machinery ---------------------------------------------------------

    def _sign(self, vec: Sequence[int], imag: bool) -> "Sign":
        """Exact sign of the real (or imaginary) part of sum(vec_j * zeta^j).

        At p = 64, 128, ... bits the nodes N_j of :func:`_fixed_nodes` are
        within 1 of 2^p cos(2 pi j/m) (or sin), so T = sum(vec_j * N_j) is
        within E = sum|vec_j| of 2^p times the value, and |T| > E proves
        that the value has the sign of T.  Only when the 64-bit certificate
        fails is the value tested for zero, exactly: the imaginary part
        vanishes when conjugation fixes the vector, the real part when it
        negates it.  A nonzero value makes |T| grow with 2^p while E stays
        fixed, so the loop ends.
        """
        bound = sum(map(abs, vec))
        p = 64
        while True:
            total = sum(map(mul, vec, _fixed_nodes(self.m, self.d, p)[1 if imag else 0]))
            if abs(total) > bound:
                return _NONZERO_SIGNS[total > 0]
            if p == 64 and self._permute(vec, -1, 0) == [x if imag else -x for x in vec]:
                return Sign.ZERO
            p *= 2

    def enclosure(self, a: "CycloNum") -> tuple[int, int, int, int]:
        """Integers (X, Y, E, s) with s = den * 2^64 and |X - s*Re(a)| <= E,
        |Y - s*Im(a)| <= E, with equality only for a = 0, where X = Y = E =
        0: the p = 64 sums of ``_sign`` for both parts at once, with E =
        sum|vec_j|.  For a rational n/b with b > 0, b*X - n*s has the sign
        of Re(a) - n/b whenever its absolute value exceeds b*E (likewise Y
        for Im(a)); a smaller value decides nothing.  Box clipping compares
        it with box faces, and ``geometry`` combines the enclosures of
        polygon vertices into bounds on their cross products and coordinate
        differences."""
        cos, sin = _fixed_nodes(self.m, self.d, 64)
        vec = a.vec
        return sum(map(mul, vec, cos)), sum(map(mul, vec, sin)), sum(map(abs, vec)), a.den << 64

    def sine_row(self, e: int) -> tuple[int, ...]:
        """The 64-bit sine nodes rotated by e: S_((j + e) mod m) for j < d,
        from ``_fixed_nodes(m, m, 64)``, so that for a = vec / den the sum
        T = sum(vec_j * row_j) is within E = sum|vec_j| of den * 2^64 *
        Im(zeta^e * a), since Im(zeta^e * zeta^j) = sin(2 pi (j + e)/m) and
        each node is within 1 of 2^64 times it.  Row e + m/4 gives Re(zeta^e
        * a) the same way.  The m rows of d integers are built on first use.
        """
        rows = self._sine_rows
        if rows is None:
            m, d = self.m, self.d
            sin = _fixed_nodes(m, m, 64)[1]
            rows = self._sine_rows = tuple(
                tuple(sin[(j + f) % m] for j in range(d)) for f in range(m)
            )
        return rows[e % self.m]


class CycloNum:
    """An element of Q(zeta_m) as ``vec / den``: an integer vector over the
    power basis and one positive common denominator.

    Values are immutable.  Every constructor keeps the pair reduced
    (gcd(vec..., den) = 1), so the representation is canonical and ``==`` on
    pairs is field equality.
    """

    __slots__ = ("ctx", "vec", "den")

    def __init__(self, ctx: FieldContext, vec: tuple[int, ...], den: int):
        self.ctx = ctx
        self.vec = vec
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients over ``1, zeta, ..., zeta^(d-1)``."""
        return tuple(Fraction(x, self.den) for x in self.vec)

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.ctx is not self.ctx:
                raise WrongContextError("operands belong to different field contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def _aligned(self, other: "CycloNum"):
        """(self.vec, other.vec, den), both vectors over the common denominator den."""
        da, db = self.den, other.den
        if da == db:
            return self.vec, other.vec, da
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return [x * fa for x in self.vec], [y * fb for y in other.vec], da * fa

    def is_zero(self) -> bool:
        return not any(self.vec)

    def is_rational(self) -> bool:
        return not any(self.vec[1:])

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._aligned(other)
        return self.ctx.from_lattice([x + y for x, y in zip(a, b)], den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._aligned(other)
        return self.ctx.from_lattice([x - y for x, y in zip(a, b)], den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycloNum(self.ctx, tuple(-x for x in self.vec), self.den)

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return ctx.from_lattice([x * n for x in self.vec], self.den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ctx.from_lattice(ctx._mul_vecs(self.vec, other.vec), self.den * other.den)

    __rmul__ = __mul__

    def mul_zeta(self, e: int) -> "CycloNum":
        """Multiply by zeta^e (fast path used by the affine calculus)."""
        return CycloNum(self.ctx, tuple(self.ctx._permute(self.vec, 1, e)), self.den)

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse by the norm identity
        a^-1 = prod(sigma_k(a) for k != 1) / N(a), k over the units mod m
        (Cohen, A Course in Computational Algebraic Number Theory, 4.2-4.3)."""
        if self.is_zero():
            raise DomainError("0 has no inverse")
        ctx = self.ctx
        vec = self.vec
        cofactor = ctx._permute(vec, ctx._units[1], 0)
        for k in ctx._units[2:]:
            cofactor = ctx._mul_vecs(cofactor, ctx._permute(vec, k, 0))
        # vec * cofactor is the integer norm N(vec), a rational integer
        norm = ctx._mul_vecs(vec, cofactor)[0]
        return ctx.from_lattice([self.den * x for x in cofactor], norm)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DomainError("division by zero")
            n = other.denominator
            return self.ctx.from_lattice([x * n for x in self.vec], self.den * other.numerator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- involution and parts --------------------------------------------------

    def conj(self) -> "CycloNum":
        """Complex conjugation, the automorphism zeta -> zeta^(m-1)."""
        return CycloNum(self.ctx, tuple(self.ctx._permute(self.vec, -1, 0)), self.den)

    def real(self) -> "CycloNum":
        return (self + self.conj()) / 2

    def imag(self) -> "CycloNum":
        # a - conj(a) = 2i*Im(a), and zeta^(3m/4) = -i
        return (self - self.conj()).mul_zeta(3 * self.ctx.m // 4) / 2

    def squared_abs(self) -> "CycloNum":
        return self * self.conj()

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.ctx is other.ctx and self.den == other.den and self.vec == other.vec

    def __hash__(self):
        return hash((id(self.ctx), self.vec, self.den))

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        units = ["", "z"] + [f"z^{j}" for j in range(2, self.ctx.d)]
        return _sum_str(zip(self.vec, units), self.den)

    def __repr__(self):
        return f"<CycloNum {self} (m={self.ctx.m})>"

    def to_complex(self) -> complex:
        """53-bit numeric shadow; for display and plotting only."""
        # x / den is the correctly rounded quotient, as float(Fraction(x, den))
        den = self.den
        re = sum((x / den) * self.ctx._cos[j] for j, x in enumerate(self.vec) if x)
        im = sum((x / den) * self.ctx._sin[j] for j, x in enumerate(self.vec) if x)
        return complex(re, im)


@lru_cache(maxsize=None)
def make_field(p: int, q: int) -> FieldContext:
    """Field context for the rotation by 2*pi*p/q (requires gcd(p, q) = 1, q >= 3)."""
    return FieldContext(p, q)


def sign_of_real(a: CycloNum) -> Sign:
    """Exact sign of a real field element, by ``FieldContext._sign``: integer
    fixed-point enclosures at doubling precision, and the exact zero test
    when the first one fails.  The denominator is positive, so the sign is
    that of the vector.  Raises ``DomainError`` on non-real input.
    """
    if a != a.conj():
        raise DomainError("sign_of_real requires a conjugation-fixed element")
    return a.ctx._sign(a.vec, imag=False)


def sign_of_imag(a: CycloNum) -> Sign:
    """Exact sign of Im(a); the predicate behind the branch choice."""
    return a.ctx._sign(a.vec, imag=True)


# -- golden-ratio subfield formatting (fields with m == 20) --------------------------


class SubfieldBasis:
    """Exact coordinates of field elements over a fixed Q-basis of a subfield.

    The basis is eliminated once: Gauss-Jordan on ``[B | I]`` leaves
    ``[I_k; 0 | E]``, so for an element with coefficient vector ``a``,
    ``E a`` is its coordinates stacked on a residual that vanishes exactly
    when ``a`` lies in the span.  The rows of ``E`` are kept as sparse
    integer rows over one denominator, and ``lattice`` applies them to the
    element's integer vector.
    """

    def __init__(self, elements: Sequence[CycloNum]):
        self.elements = tuple(elements)
        self.ctx = elements[0].ctx
        k, d = len(self.elements), self.ctx.d
        rows = [
            [e.coeffs[r] for e in self.elements] + [Fraction(int(r == c)) for c in range(d)]
            for r in range(d)
        ]
        for col in range(k):
            piv = next((r for r in range(col, d) if rows[r][col]), None)
            if piv is None:
                raise ParameterError("basis elements are linearly dependent")
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = 1 / rows[col][col]
            rows[col] = [x * inv for x in rows[col]]
            for r in range(d):
                if r != col and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        self._den = math.lcm(*(x.denominator for row in rows for x in row[k:]))
        scaled = [tuple((j, int(x * self._den)) for j, x in enumerate(row[k:]) if x) for row in rows]
        self._proj, self._residual = scaled[:k], scaled[k:]

    def lattice(self, a: CycloNum):
        """The coordinates of ``a`` over the basis as integer numerators over
        one positive denominator, not reduced, or None if ``a`` is outside."""
        if a.ctx is not self.ctx:
            raise WrongContextError("element from a different field context")
        v = a.vec
        for row in self._residual:
            if sum(c * v[j] for j, c in row):
                return None
        return tuple(sum(c * v[j] for j, c in row) for row in self._proj), self._den * a.den

    def coords(self, a: CycloNum):
        """Rational coordinates of ``a`` over the basis, or None if outside."""
        lat = self.lattice(a)
        return None if lat is None else tuple(Fraction(x, lat[1]) for x in lat[0])


def golden_elements(ctx: FieldContext):
    """(phi, sqrt(2+phi), basis over {1, phi, i*sqrt(2+phi), i*phi*sqrt(2+phi)}).

    Only fields with conductor 20 contain the golden ratio this way.
    """
    if ctx.m != 20:
        raise WrongContextError("golden-ratio formatting needs conductor 20")
    cached = ctx._extras.get("golden")
    if cached is None:
        z5 = ctx.zeta_pow(4)
        phi = ctx.one() + z5 + z5.conj()
        i_sqrt = z5 - z5.conj()          # i * sqrt(2 + phi)
        sqrt2phi = i_sqrt / ctx.i_unit
        assert sqrt2phi * sqrt2phi == phi + 2
        assert phi * phi == phi + 1
        basis = SubfieldBasis([ctx.one(), phi, i_sqrt, i_sqrt * phi])
        cached = (phi, sqrt2phi, basis)
        ctx._extras["golden"] = cached
    return cached


def golden_coords(a: CycloNum):
    """(x, y, u, v) with a = x + y*phi + (u + v*phi)*sqrt(2+phi)*i, or None."""
    _, _, basis = golden_elements(a.ctx)
    return basis.coords(a)


def fraction_str(x: int, den: int) -> str:
    """``str(Fraction(x, den))`` for a positive ``den``, with one gcd."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _sum_str(terms, den: int) -> str:
    """Render the sum of ``(x/den)*unit`` over the (x, unit) pairs, an empty
    unit marking the constant, with conventional sign handling."""
    parts = []
    for x, unit in terms:
        if not x:
            continue
        mag = abs(x)
        body = fraction_str(mag, den)
        if unit:
            body = unit if mag == den else f"{body}*{unit}"
        if not parts:
            parts.append(body if x > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if x > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def format_golden(a: CycloNum) -> str:
    """Render in the form ``x + y*phi + (u + v*phi)*sqrt(2+phi)*i``, or as
    ``str(a)`` outside that span, from the integer coordinates."""
    lat = golden_elements(a.ctx)[2].lattice(a)
    if lat is None:
        return str(a)
    (x, y, u, v), den = lat
    real = _sum_str(((x, ""), (y, "phi")), den)
    if not u and not v:
        return real
    inner = _sum_str(((u, ""), (v, "phi")), den)
    if inner == "1":
        imag = "sqrt(2+phi)*i"
    elif inner == "-1":
        imag = "-sqrt(2+phi)*i"
    elif not (u and v):
        imag = f"{inner}*sqrt(2+phi)*i"
    else:
        imag = f"({inner})*sqrt(2+phi)*i"
    if imag.startswith("-"):
        return f"{real} - {imag[1:]}" if real != "0" else imag
    return f"{real} + {imag}" if real != "0" else imag
