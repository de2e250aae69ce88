"""The integer-lattice form of CycloNum: reduced pairs, the norm inverse, the
Galois maps, and the exact paths of the sign oracle on the integer vector."""

import math
import random
from fractions import Fraction

import pytest

from pwrot.cyclo import CycloNum, FieldContext, Sign, approx, make_field, sign_of_imag, sign_of_real
from pwrot.errors import DomainError, ParameterError

FIELDS = [(4, 5), (11, 12), (3, 7)]


def random_element(ctx, rng, span=6):
    return ctx.num(
        [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(ctx.d)]
    )


def assert_reduced(a):
    assert len(a.vec) == a.ctx.d and all(isinstance(x, int) for x in a.vec)
    assert a.den > 0 and math.gcd(a.den, *a.vec) == 1


@pytest.mark.parametrize("p,q", FIELDS)
def test_operations_keep_the_pair_reduced(p, q):
    ctx = make_field(p, q)
    rng = random.Random(q)
    for _ in range(10):
        a, b = random_element(ctx, rng), random_element(ctx, rng)
        for c in (a + b, a - b, a * b, a * Fraction(6, 4), a / 3, -a, a.conj(), a.mul_zeta(5),
                  a.real(), a.imag(), a - a):
            assert_reduced(c)
        assert a.coeffs == tuple(Fraction(x, a.den) for x in a.vec)
        if not a.is_zero():
            assert_reduced(a.inverse())
            assert a * a.inverse() == 1
    assert (ctx.zero().vec, ctx.zero().den) == ((0,) * ctx.d, 1)
    with pytest.raises(DomainError):
        ctx.zero().inverse()


@pytest.mark.parametrize("p,q", FIELDS)
def test_galois_maps_are_automorphisms(p, q):
    ctx = make_field(p, q)
    rng = random.Random(100 + q)
    units = [k for k in range(1, ctx.m) if math.gcd(k, ctx.m) == 1]
    a, b = random_element(ctx, rng), random_element(ctx, rng)
    for k in units:
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert a.galois(ctx.m - 1) == a.conj()
    assert a.galois(1) == a
    norm = ctx.one()
    for k in units:
        norm = norm * a.galois(k)
    assert norm.is_rational()
    with pytest.raises(ParameterError):
        a.galois(2)


@pytest.mark.parametrize("p,q", [(4, 5), (11, 12)])
def test_imag_needs_no_inverse(p, q, monkeypatch):
    ctx = make_field(p, q)
    points = [(Fraction(3), Fraction(-7, 2)), (Fraction(-1, 3), Fraction(5, 6)), (Fraction(0), Fraction(1))]

    def no_inverse(self):
        raise AssertionError("imag() must not invert")

    monkeypatch.setattr(CycloNum, "inverse", no_inverse)
    for x, y in points:
        z = ctx.point(x, y)
        assert z.imag() == y
        assert z.real() == x
    assert ctx.lambda_.real() + ctx.i_unit * ctx.lambda_.imag() == ctx.lambda_


def test_sign_of_imag_interval_escalation(monkeypatch):
    # the twin of the sign_of_real escalation test: i*x has imaginary part x,
    # with huge coefficients and a tiny value, so the float path cannot decide
    ctx = make_field(4, 5)
    v = ctx.zeta_pow(1) + ctx.zeta_pow(1).conj()  # 2*cos(pi/10)
    w = v ** 40
    near = Fraction(w.to_complex().real).limit_denominator(10 ** 25)
    x = w - near
    evals = []
    iv_eval = FieldContext._iv_eval

    def counted(self, vec, prec):
        evals.append(prec)
        return iv_eval(self, vec, prec)

    monkeypatch.setattr(FieldContext, "_iv_eval", counted)
    s = sign_of_imag(ctx.i_unit * x)
    assert evals, "the float fast path must not decide this sign"
    monkeypatch.undo()
    box = approx(x, 128)
    assert not box.contains_zero()
    assert s == (Sign.POSITIVE if box.re_lo > 0 else Sign.NEGATIVE)
    assert s == sign_of_real(x)
    assert sign_of_imag(ctx.i_unit * -x) == -s
