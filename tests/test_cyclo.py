import cmath
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import pwrot
from pwrot.cyclo import (
    Sign,
    cyclotomic_polynomial,
    format_golden,
    golden_coords,
    golden_elements,
    make_field,
    sign_of_real,
)
from pwrot.errors import DomainError, ParameterError, WrongContextError

from enclosure import approx
from fieldops import is_rational
from goldenref import golden_text, polynomial_text


def brute_force_cyclotomic(n):
    """Independent oracle: expand prod(x - e^(2*pi*i*k/n)) over k coprime to n
    numerically and round to the nearest integers."""
    roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(1, n + 1) if math.gcd(k, n) == 1]
    poly = [1.0 + 0j]
    for r in roots:
        poly = [0j] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1] * 0  # placeholder, replaced below
        # multiply (x - r): new[i] = old[i-1] - r*old[i]
    poly = [1.0 + 0j]
    for r in roots:
        new = [0j] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= r * c
        poly = new
    out = []
    for c in poly:
        assert abs(c.imag) < 1e-6 and abs(c.real - round(c.real)) < 1e-6
        out.append(round(c.real))
    return tuple(out)


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_base_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_phi_20(self):
        expected = brute_force_cyclotomic(20)
        assert expected == (1, 0, -1, 0, 1, 0, -1, 0, 1)  # frozen from the oracle
        assert cyclotomic_polynomial(20) == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 12, 15, 20, 28, 36])
    def test_against_bruteforce(self, n):
        assert cyclotomic_polynomial(n) == brute_force_cyclotomic(n)

    @pytest.mark.parametrize("n", [12, 20, 28])
    def test_product_over_divisors_is_x_n_minus_1(self, n):
        prod = [1]
        for k in range(1, n + 1):
            if n % k == 0:
                prod = poly_mul_int(prod, list(cyclotomic_polynomial(k)))
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert prod == expected

    def test_rejects_bad_index(self):
        with pytest.raises(ParameterError):
            cyclotomic_polynomial(0)


class TestMakeField:
    def test_golden_case(self):
        ctx = make_field(4, 5)
        assert (ctx.m, ctx.d) == (20, 8)
        assert ctx.lambda_ == ctx.zeta_pow(16)

    def test_dodecagon_case(self):
        ctx = make_field(11, 12)
        assert (ctx.m, ctx.d) == (12, 4)
        assert ctx.lambda_ == ctx.zeta_pow(11)

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_lambda_is_zeta_to_t0(self, p, q):
        ctx = make_field(p, q)
        assert ctx.zeta_pow(ctx.t0) == ctx.lambda_
        for t in range(-q, 2 * q + 1):
            assert ctx.lam_pow(t) == ctx.lambda_ ** t

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            make_field(2, 6)
        with pytest.raises(ParameterError):
            make_field(1, 2)
        with pytest.raises(ParameterError):
            make_field(5, 5)
        with pytest.raises(ParameterError):
            make_field(7, 5)

    def test_lambda_closed_form(self):
        # lambda = exp(-2*pi*i/5) = (phi-1)/2 - i*sqrt(phi+2)/2, exactly
        ctx = make_field(4, 5)
        phi, sqrt2phi, _ = golden_elements(ctx)
        assert ctx.lambda_.real() == (phi - 1) / 2
        assert ctx.lambda_.imag() == -sqrt2phi / 2

    def test_lambda_closed_form_q12(self):
        ctx = make_field(11, 12)
        sqrt3 = ctx.zeta_pow(1) + ctx.zeta_pow(1).conj()
        assert sign_of_real(sqrt3) == Sign.POSITIVE
        assert ctx.lambda_.real() == sqrt3 / 2
        assert ctx.lambda_.imag() == ctx.from_rational(Fraction(-1, 2))


def random_element(ctx, rng, span=6):
    return ctx.num(
        [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(ctx.d)]
    )


class TestFieldArithmetic:
    def setup_method(self):
        self.ctx = make_field(4, 5)
        self.phi, self.sqrt2phi, _ = golden_elements(self.ctx)

    def test_i_squares_to_minus_one(self):
        assert self.ctx.i_unit * self.ctx.i_unit == -1

    def test_lambda_is_unit_modulus(self):
        lam = self.ctx.lambda_
        assert lam * lam.conj() == 1

    def test_lambda_has_order_exactly_q(self):
        for p, q in [(4, 5), (11, 12), (3, 7)]:
            ctx = make_field(p, q)
            power = ctx.one()
            for j in range(1, q):
                power = power * ctx.lambda_
                assert power != 1, f"lambda^{j} must not be 1 for q={q}"
            assert power * ctx.lambda_ == 1

    def test_golden_ratio_identity(self):
        assert self.phi * self.phi == self.phi + 1

    def test_inverse_round_trip(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_element(self.ctx, rng)
            if a.is_zero():
                continue
            assert a * a.inverse() == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(DomainError):
            self.ctx.zero().inverse()

    def test_canonical_equality(self):
        rng = random.Random(8)
        a = random_element(self.ctx, rng)
        assert (a - a).coeffs == (Fraction(0),) * self.ctx.d
        b = (a + a) / 2
        assert b == a and hash(b) == hash(a)

    def test_mixed_context_rejected(self):
        other = make_field(11, 12)
        with pytest.raises(WrongContextError):
            self.ctx.one() + other.one()

    def test_pow(self):
        lam = self.ctx.lambda_
        assert lam ** 5 == 1
        assert lam ** -1 == lam.conj()
        assert (self.phi ** 3) == 2 * self.phi + 1


class TestConjugation:
    def setup_method(self):
        self.ctx = make_field(4, 5)

    def test_examples(self):
        ctx = self.ctx
        assert ctx.i_unit.conj() == -ctx.i_unit
        assert ctx.lambda_.conj() == ctx.lambda_.inverse()
        assert ctx.point(3, -2).conj() == ctx.point(3, 2)

    def test_involution_and_homomorphism(self):
        rng = random.Random(11)
        for _ in range(20):
            a = random_element(self.ctx, rng)
            b = random_element(self.ctx, rng)
            assert a.conj().conj() == a
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()

    def test_real_imag_decomposition(self):
        rng = random.Random(12)
        for _ in range(20):
            a = random_element(self.ctx, rng)
            re, im = a.real(), a.imag()
            assert re.conj() == re and im.conj() == im
            assert re + self.ctx.i_unit * im == a

    def test_embedding_parts(self):
        ctx = self.ctx
        z = ctx.point(3, Fraction(-7, 2))
        assert z.imag() == ctx.from_rational(Fraction(-7, 2))
        assert z.real() == ctx.from_rational(3)

    def test_part_of_known_iterate(self):
        # Q1 = -phi/2 + i*(1/2 + phi/2)*sqrt(2+phi)
        ctx = self.ctx
        phi, s, _ = golden_elements(ctx)
        q1 = -phi / 2 + ctx.i_unit * ((1 + phi) / 2 * s)
        assert q1.imag() == (1 + phi) / 2 * s
        assert q1.imag().imag().is_zero()


class TestEmbedding:
    def test_zero_and_rationals(self):
        ctx = make_field(4, 5)
        assert ctx.point(0, 0).is_zero()
        half = ctx.point(Fraction(1, 2), 0)
        assert is_rational(half) and half == Fraction(1, 2)

    def test_named_point_on_line_is_conj_fixed(self):
        ctx = make_field(4, 5)
        phi, _, _ = golden_elements(ctx)
        q = -phi
        assert q.conj() == q
        assert q.imag().is_zero()


class TestSignOracle:
    def setup_method(self):
        self.ctx = make_field(4, 5)
        self.phi, self.sqrt2phi, _ = golden_elements(self.ctx)

    def test_zero(self):
        assert sign_of_real(self.ctx.zero()) == Sign.ZERO

    def test_known_signs(self):
        assert sign_of_real(self.phi - 2) == Sign.NEGATIVE
        # Q2 = 1 + phi/2 + i*(1/2 + phi/2)*sqrt(2+phi) has positive height
        q2_imag = (1 + self.phi) / 2 * self.sqrt2phi
        assert sign_of_real(q2_imag) == Sign.POSITIVE

    def test_rejects_non_real(self):
        with pytest.raises(DomainError):
            sign_of_real(self.ctx.i_unit)

    def test_consistent_with_enclosure(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_element(self.ctx, rng).real()
            s = sign_of_real(a)
            box = approx(a, 64)
            if not (box.re_lo <= 0 <= box.re_hi):
                assert s == (Sign.POSITIVE if box.re_lo > 0 else Sign.NEGATIVE)
            if s == Sign.ZERO:
                assert box.re_lo <= 0 <= box.re_hi

    def test_interval_escalation_path(self):
        # huge coefficients with a tiny value force the oracle past floats
        ctx = self.ctx
        v = ctx.zeta_pow(1) + ctx.zeta_pow(1).conj()  # 2*cos(pi/10)
        w = v ** 40
        shadow = w.to_complex().real
        near = Fraction(shadow).limit_denominator(10 ** 25)
        x = w - near
        assert max(abs(c) for c in w.coeffs) > 10 ** 9
        s = sign_of_real(x)
        box = approx(x, 128)
        assert not box.contains_zero()
        assert s == (Sign.POSITIVE if box.re_lo > 0 else Sign.NEGATIVE)


class TestApprox:
    """The sign certificate's fixed-point nodes embed the field: enclosures
    built from them (tests/enclosure.py) land where the embedding does."""

    def setup_method(self):
        self.ctx = make_field(4, 5)
        self.phi, _, _ = golden_elements(self.ctx)

    def test_rational_is_tight(self):
        box = approx(self.ctx.from_rational(Fraction(1, 2)), 64)
        assert box.re_lo <= Fraction(1, 2) <= box.re_hi
        assert box.width <= Fraction(2) ** -63 * 2

    def test_lambda_location(self):
        box = approx(self.ctx.lambda_, 64)
        assert abs(box.mid - cmath.exp(-2j * cmath.pi / 5)) < 1e-15

    def test_exact_identity_contains_zero(self):
        a = self.phi * self.phi - self.phi - 1
        assert a.is_zero()
        assert approx(a, 64).contains_zero()

    def test_embedding_is_ring_homomorphism(self):
        rng = random.Random(15)
        for _ in range(10):
            a = random_element(self.ctx, rng, span=3)
            b = random_element(self.ctx, rng, span=3)
            pa, pb, pab = approx(a, 64), approx(b, 64), approx(a * b, 64)
            prod = pa.mid * pb.mid
            assert abs(prod - pab.mid) < 1e-12 * (1 + abs(prod))


class TestGoldenFormatting:
    def setup_method(self):
        self.ctx = make_field(4, 5)
        self.phi, self.s, _ = golden_elements(self.ctx)

    def test_basis_round_trip(self):
        ctx = self.ctx
        coords = (Fraction(3, 2), Fraction(-1), Fraction(0), Fraction(5, 7))
        a = (
            ctx.from_rational(coords[0])
            + self.phi * coords[1]
            + ctx.i_unit * self.s * (ctx.from_rational(coords[2]) + self.phi * coords[3])
        )
        assert golden_coords(a) == coords

    def test_outside_subfield(self):
        assert golden_coords(self.ctx.zeta_pow(1)) is None

    def test_formatting(self):
        assert format_golden(-self.phi) == "-phi"
        assert format_golden(self.ctx.from_rational(Fraction(1, 2))) == "1/2"
        q1 = -self.phi / 2 + self.ctx.i_unit * ((1 + self.phi) / 2 * self.s)
        assert format_golden(q1) == "-1/2*phi + (1/2 + 1/2*phi)*sqrt(2+phi)*i"
        q8 = self.ctx.i_unit * self.s
        assert format_golden(q8) == "sqrt(2+phi)*i"

    def test_wrong_context(self):
        with pytest.raises(WrongContextError):
            golden_elements(make_field(11, 12))


class TestGoldenFormattingProperty:
    """``format_golden`` and ``golden_coords``, which work on the integer
    vector, against the ``Fraction`` references of ``goldenref``."""

    def setup_method(self):
        self.ctx = make_field(4, 5)
        self.phi, self.s, _ = golden_elements(self.ctx)
        self.rng = random.Random(41)

    def coefficient(self):
        kind = self.rng.randrange(5)
        if kind < 2:
            return Fraction(kind)
        if kind == 2:
            return Fraction(-1)
        return Fraction(self.rng.randint(-40, 40), self.rng.randint(1, 24))

    def element(self, x, y, u, v):
        return x + y * self.phi + (u + v * self.phi) * self.s * self.ctx.i_unit

    def check(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        a = self.element(*coords)
        assert golden_coords(a) == coords
        assert format_golden(a) == golden_text(*coords)
        # zeta^odd lies outside Q(zeta_5), the span of the basis
        outside = a + self.ctx.zeta_pow(self.rng.choice((1, 3, 5, 7))) * Fraction(
            self.rng.choice((1, -1)) * self.rng.randint(1, 9), self.rng.randint(1, 9))
        for b in (outside, a * self.ctx.zeta_pow(5)) if any(coords) else (outside,):
            assert golden_coords(b) is None
            assert format_golden(b) == polynomial_text(b.coeffs) == str(b)

    def test_random_elements(self):
        for _ in range(400):
            self.check([self.coefficient() for _ in range(4)])

    @pytest.mark.parametrize("coords", [
        (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0), (2, 0, 1, 0), (0, -1, -1, 0),
        (0, 0, 0, 1), (0, 0, 0, -1), (0, 0, Fraction(1, 3), Fraction(-5, 6)),
        (Fraction(-7, 4), 1, Fraction(-1, 2), 0), (Fraction(3, 8), Fraction(9, 10), 0, 0),
    ])
    def test_edge_cases(self, coords):
        self.check(coords)

    @pytest.mark.parametrize("p,q", [(4, 5), (3, 7), (11, 12)])
    def test_polynomial_text(self, p, q):
        ctx = make_field(p, q)
        rng = random.Random(q)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 6))) for _ in range(ctx.d)]
            assert str(ctx.num(coeffs)) == polynomial_text(coeffs)


class TestTextForm:
    def test_polynomial_text(self):
        ctx = make_field(4, 5)
        a = ctx.num([Fraction(1, 3), 0, Fraction(-2), 0, 0, 0, 0, Fraction(7, 2)])
        assert str(a) == "1/3 - 2*z^2 + 7/2*z^7"
        assert str(ctx.zero()) == "0"


def test_only_cyclo_derives_lambdas_exponent():
    # lambda's exponent t0 = m*p/q, derived from p and q, as in
    # "(z.ctx.m * z.ctx.p // z.ctx.q)"; every other module reads FieldContext.t0
    derivation = re.compile(r"\bm\s*\*.*\bp\s*//.*\bq\b")
    derive = {
        path.name
        for path in Path(pwrot.__file__).parent.glob("*.py")
        if any(map(derivation.search, path.read_text(encoding="utf-8").splitlines()))
    }
    assert derive == {"cyclo.py"}
