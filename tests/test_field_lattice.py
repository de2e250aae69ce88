"""The integer-lattice form of CycloNum: reduced pairs, the norm inverse, the
Galois maps, the exact paths of the sign oracle on the integer vector, and
the golden coordinates read off the even coefficients."""

import math
import random
from fractions import Fraction

import pytest

from pwrot import cyclo
from pwrot.casestudy import golden_context
from pwrot.cyclo import (
    CycloNum,
    Sign,
    golden_coords,
    golden_elements,
    make_field,
    sign_of_imag,
    sign_of_real,
)
from pwrot.errors import DomainError, WrongContextError

from enclosure import approx, scaled_cos_sin
from fieldops import is_rational

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


def galois(a, k):
    """The automorphism zeta -> zeta^k of the field, for k prime to m: the
    integer permutation that ``inverse`` multiplies out."""
    return a.ctx.from_lattice(a.ctx._permute(a.vec, k, 0), a.den)


@pytest.mark.parametrize("p,q", FIELDS)
def test_galois_maps_are_automorphisms(p, q):
    ctx = make_field(p, q)
    rng = random.Random(100 + q)
    units = [k for k in range(1, ctx.m) if math.gcd(k, ctx.m) == 1]
    a, b = random_element(ctx, rng), random_element(ctx, rng)
    for k in units:
        assert galois(a * b, k) == galois(a, k) * galois(b, k)
        assert galois(a + b, k) == galois(a, k) + galois(b, k)
    assert galois(a, ctx.m - 1) == a.conj()
    assert galois(a, 1) == a
    cofactor = ctx.one()
    for k in units[1:]:
        cofactor = cofactor * galois(a, k)
    norm = a * cofactor
    assert is_rational(norm)
    if not a.is_zero():
        assert a.inverse() == cofactor / norm


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
    # with huge coefficients and a tiny value, so 64-bit nodes cannot decide
    ctx = make_field(4, 5)
    v = ctx.zeta_pow(1) + ctx.zeta_pow(1).conj()  # 2*cos(pi/10)
    w = v ** 40
    box = approx(w, 256)
    near = (box.re_lo + box.re_hi) / 2
    x = w - near
    precisions = []
    fixed_nodes = cyclo._fixed_nodes

    def counted(m, p):
        precisions.append(p)
        return fixed_nodes(m, p)

    monkeypatch.setattr(cyclo, "_fixed_nodes", counted)
    s = sign_of_imag(ctx.i_unit * x)
    assert max(precisions) > 64, "64-bit nodes must not decide this sign"
    monkeypatch.undo()
    box = approx(x, 128)
    assert not box.contains_zero()
    assert s == (Sign.POSITIVE if box.re_lo > 0 else Sign.NEGATIVE)
    assert s == sign_of_real(x)
    assert sign_of_imag(ctx.i_unit * -x) == -s


def reference_sign(b):
    """The sign of Im(b) read from a 256-bit enclosure, or ZERO where
    conjugation fixes b."""
    if b == b.conj():
        return Sign.ZERO
    box = approx(b, 256)
    assert box.im_lo > 0 or box.im_hi < 0
    return Sign.POSITIVE if box.im_lo > 0 else Sign.NEGATIVE


@pytest.mark.parametrize("p,q", FIELDS)
def test_sign_of_every_rotation_matches_the_enclosure(p, q, monkeypatch):
    # ctx.sign(a.vec, e) is the sign of Im(zeta^e * a) for every e < m.
    # Random values and i/2^70, off the line, are decided by the rotated
    # certificate alone; values on the line Im(zeta^e * w) = 0 are ZERO by
    # the exact zero test; and values whose Im(zeta^e * w) is about 2^-215
    # while their integer vectors reach 2^330 over a denominator near 2^270
    # leave the certificate open and take the escalation past 64 bits
    ctx = make_field(p, q)
    rng = random.Random(17 * q)
    v = 1 + ctx.zeta_pow(1) + ctx.zeta_pow(1).conj()  # 1 + 2 cos(2 pi/m)
    w = v ** 40
    box = approx(w, 256)
    tiny = w - (box.re_lo + box.re_hi) / 2  # real, tiny, huge coefficients
    assert tiny != 0 and max(map(abs, tiny.vec)) > tiny.den
    rotated = [random_element(ctx, rng, span=1000) for _ in range(4)] + [ctx.i_unit / 2 ** 70]
    on_line = [random_element(ctx, rng).real(), ctx.from_rational(Fraction(-7, 3)), ctx.zero()]
    near = [ctx.i_unit * tiny, -ctx.i_unit * tiny, ctx.i_unit * tiny + 5]
    precisions, conjugations = [], []
    fixed_nodes, permute = cyclo._fixed_nodes, cyclo.FieldContext._permute

    def counted_nodes(m, bits):
        precisions.append(bits)
        return fixed_nodes(m, bits)

    def counted_permute(self, vec, k, e):
        if k == -1:
            conjugations.append(tuple(vec))
        return permute(self, vec, k, e)

    ctx.sine_row(0)  # build the rows before counting
    for e in range(ctx.m):
        expected = {}
        for kind, values in (("rotated", rotated), ("on_line", on_line), ("near", near)):
            for b in values:
                a = b if kind == "rotated" else b.mul_zeta(-e)
                expected[kind, a] = reference_sign(a.mul_zeta(e))
        with monkeypatch.context() as mp:
            mp.setattr(cyclo, "_fixed_nodes", counted_nodes)
            mp.setattr(cyclo.FieldContext, "_permute", counted_permute)
            for (kind, a), want in expected.items():
                precisions.clear()
                conjugations.clear()
                assert ctx.sign(a.vec, e) == want, (kind, e)
                if kind == "rotated":
                    # zeta^e * i/2^70 is real at e = m/4 and 3m/4
                    assert len(conjugations) == (want == Sign.ZERO) and precisions == []
                elif kind == "on_line":
                    assert want == Sign.ZERO and conjugations == [a.mul_zeta(e).vec]
                else:
                    assert want != Sign.ZERO and len(conjugations) == 1 and max(precisions) > 64


def test_certified_sign_runs_no_zero_test(monkeypatch):
    # a 64-bit certificate already proves Im(i) nonzero, so the conjugation
    # zero test runs only when the certificate fails, as on a real element
    ctx = make_field(4, 5)
    phi = golden_elements(ctx)[0]
    conjugations = []
    permute = cyclo.FieldContext._permute

    def counted(self, vec, k, e):
        if k == -1:
            conjugations.append(tuple(vec))
        return permute(self, vec, k, e)

    monkeypatch.setattr(cyclo.FieldContext, "_permute", counted)
    assert sign_of_imag(ctx.i_unit) == Sign.POSITIVE
    assert sign_of_imag(-ctx.i_unit) == Sign.NEGATIVE
    assert conjugations == []
    assert sign_of_imag(phi) == Sign.ZERO
    assert conjugations == [phi.vec]


@pytest.mark.parametrize("p,q", FIELDS)
def test_fixed_nodes_enclose_cos_and_sin(p, q):
    ctx = make_field(p, q)
    m, d = ctx.m, ctx.d
    for bits in (64, 128, 256):
        cos, sin = cyclo._fixed_nodes(m, bits)
        cos2, sin2 = cyclo._fixed_nodes(m, 2 * bits)
        assert len(cos) == len(sin) == m
        for j in range(d):
            angle = 2 * math.pi * j / m
            assert abs(cos[j] / 2 ** bits - math.cos(angle)) <= 2.0 ** -bits + 1e-15
            assert abs(sin[j] / 2 ** bits - math.sin(angle)) <= 2.0 ** -bits + 1e-15
            # both within 1 of 2^(2 bits) cos, so the doubled node refines the single one
            assert abs(cos2[j] - 2 ** bits * cos[j]) <= 2 ** bits + 1
            assert abs(sin2[j] - 2 ** bits * sin[j]) <= 2 ** bits + 1
            assert abs(cos[j] ** 2 + sin[j] ** 2 - 4 ** bits) < 2 ** (bits + 2)


@pytest.mark.parametrize("p,q", FIELDS)
def test_nodes_of_all_m_exponents_are_within_one(p, q):
    # every one of the m sine and cosine nodes at 64 bits, against a decimal
    # reference; and the rotated rows read them, built on first use
    ctx = cyclo.FieldContext(p, q)
    m, d = ctx.m, ctx.d
    assert m in (12, 20, 28)
    cos, sin = cyclo._fixed_nodes(m, 64)
    assert len(cos) == len(sin) == m
    for k in range(m):
        ref_cos, ref_sin = scaled_cos_sin(k, m)
        assert abs(cos[k] - ref_cos) < 1 and abs(sin[k] - ref_sin) < 1
    assert ctx._sine_rows is None
    for e in range(-m, 2 * m):
        assert ctx.sine_row(e) == tuple(sin[(j + e) % m] for j in range(d))
    assert len(ctx._sine_rows) == m


@pytest.mark.parametrize("p,q", FIELDS)
def test_sine_rows_enclose_rotated_imaginary_parts(p, q):
    # |sum(vec_j * row_e[j]) - den * 2^64 * Im(zeta^e * a)| <= sum|vec_j|
    ctx = make_field(p, q)
    rng = random.Random(7 * q)
    sines = [scaled_cos_sin(k, ctx.m)[1] for k in range(ctx.m)]
    for _ in range(20):
        a = random_element(ctx, rng, span=1000)
        for e in range(ctx.m):
            t = sum(x * y for x, y in zip(a.vec, ctx.sine_row(e)))
            ref = sum(x * sines[(j + e) % ctx.m] for j, x in enumerate(a.vec))
            assert abs(t - ref) <= sum(map(abs, a.vec))


@pytest.mark.parametrize("p,q", FIELDS)
def test_enclosure_bounds_both_parts_and_is_kept(p, q):
    # |X - den * 2^64 * Re(a)| <= E and likewise Y, E = sum|vec_j|, s = den *
    # 2^64; computed once per value, and an equal value encloses the same
    ctx = make_field(p, q)
    rng = random.Random(11 * q)
    nodes = [scaled_cos_sin(k, ctx.m) for k in range(ctx.d)]
    for _ in range(20):
        a = random_element(ctx, rng, span=1000)
        x, y, err, s = enc = a.enclosure()
        assert err == sum(map(abs, a.vec)) and s == a.den << 64
        assert abs(x - sum(v * c for v, (c, _) in zip(a.vec, nodes))) <= err
        assert abs(y - sum(v * n for v, (_, n) in zip(a.vec, nodes))) <= err
        assert a.enclosure() is enc
        assert CycloNum(ctx, a.vec, a.den).enclosure() == enc
    assert ctx.zero().enclosure() == (0, 0, 0, 1 << 64)


def test_widened_enclosures_reach_values_enclosed_before(request):
    # the exact_enclosures fixture must not read an enclosure a long-lived
    # value kept before it was active, or that value would still decide signs
    q = golden_context().Q
    x, y, err, s = q.enclosure()
    request.getfixturevalue("exact_enclosures")
    assert q.enclosure() == (x, y, (err + abs(x) + abs(y) + s) << 64, s)
    assert CycloNum(q.ctx, q.vec, q.den).enclosure()[2] > abs(x) << 64


def test_sign_beyond_the_double_range():
    ctx = make_field(4, 5)
    w = (ctx.zeta_pow(1) + ctx.zeta_pow(1).conj()) ** 1200  # (2cos(pi/10))^1200
    assert max(abs(x) for x in w.vec) > 2 ** 1100
    box = approx(w, 64)
    near = (box.re_lo + box.re_hi) / 2
    for x in (w - near, near - w, w - box.re_lo + 1, w - box.re_hi - 1):
        enclosure = approx(x, 64)
        assert not enclosure.contains_zero()
        assert sign_of_real(x) == (Sign.POSITIVE if enclosure.re_lo > 0 else Sign.NEGATIVE)
        assert sign_of_imag(ctx.i_unit * x) == sign_of_real(x)


def eliminate(basis, a):
    """Coordinates of a over basis by plain Fraction Gauss-Jordan, or None."""
    k, d = len(basis), a.ctx.d
    rows = [[b.coeffs[r] for b in basis] + [a.coeffs[r]] for r in range(d)]
    for col in range(k):
        piv = next(r for r in range(col, d) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(d):
            if r != col:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    if any(rows[r][k] for r in range(k, d)):
        return None
    return tuple(rows[r][k] for r in range(k))


def random_fraction(rng, span=40):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def golden_basis(ctx):
    phi, sqrt2phi = golden_elements(ctx)
    i_sqrt = sqrt2phi * ctx.i_unit
    return [ctx.one(), phi, i_sqrt, i_sqrt * phi]


def test_golden_coords_round_trip():
    ctx = make_field(4, 5)
    phi, sqrt2phi = golden_elements(ctx)
    basis = golden_basis(ctx)
    rng = random.Random(20)
    for _ in range(50):
        x, y, u, v = (random_fraction(rng) for _ in range(4))
        a = x + y * phi + (u + v * phi) * sqrt2phi * ctx.i_unit
        assert golden_coords(a) == (x, y, u, v) == eliminate(basis, a)
        for outside in (a + ctx.zeta_pow(1), a + ctx.zeta_pow(3) / 7, a * ctx.zeta_pow(1)):
            assert golden_coords(outside) is None
            assert eliminate(basis, outside) is None
    assert golden_coords(ctx.zeta_pow(1)) is None
    assert golden_coords(ctx.zero()) == (0, 0, 0, 0)


def test_golden_coords_agree_with_elimination():
    # the closed form on the even coefficients against Gauss-Jordan over the basis
    ctx = make_field(4, 5)
    basis = golden_basis(ctx)
    rng = random.Random(33)
    for _ in range(200):
        a = random_element(ctx, rng)
        assert golden_coords(a) == eliminate(basis, a)
        inside = ctx.zero()
        for b in basis:
            inside = inside + b * random_fraction(rng)
        coords = golden_coords(inside)
        assert coords is not None and coords == eliminate(basis, inside)
        for k in (1, 3, 5, 7):
            assert golden_coords(inside + ctx.zeta_pow(k) * rng.randint(1, 9)) is None
    for k in (1, 3, 5, 7):
        assert golden_coords(ctx.zeta_pow(k)) is None
        assert eliminate(basis, ctx.zeta_pow(k)) is None
    with pytest.raises(WrongContextError):
        golden_coords(make_field(11, 12).one())
