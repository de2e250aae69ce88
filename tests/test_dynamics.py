import random
from array import array
from fractions import Fraction

import pytest

from pwrot.cyclo import FieldContext, Sign, golden_elements, make_field, sign_of_imag
from pwrot.dynamics import (
    inverse_step,
    itinerary,
    itinerary_period,
    minimal_period,
    orbit,
    rotation_order,
    step,
)
from pwrot.errors import CriticalLineError, ParameterError

from affine import affine_along, compose, rotation_center
from fieldops import squared_abs


@pytest.fixture(scope="module")
def golden():
    ctx = make_field(4, 5)
    phi, s, _ = golden_elements(ctx)
    return ctx, phi, s


def golden_point(ctx, phi, s, x, y, u, v):
    """x + y*phi + i*(u + v*phi)*sqrt(2+phi)"""
    return (
        ctx.from_rational(Fraction(x))
        + phi * Fraction(y)
        + ctx.i_unit * s * (ctx.from_rational(Fraction(u)) + phi * Fraction(v))
    )


def known_iterates(ctx, phi, s):
    """The verified first eleven iterates of Q = -phi at a rotation by -2*pi/5."""
    g = lambda *c: golden_point(ctx, phi, s, *c)
    return [
        g(0, -1, 0, 0),
        g(0, Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)),
        g(1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        g(1, 1, 0, 0),
        g(Fraction(1, 2), 0, 0, Fraction(-1, 2)),
        g(-1, 0, -1, 0),
        g(-1, Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)),
        g(0, Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)),
        g(0, 0, 1, 0),
        g(Fraction(3, 2), 0, 0, Fraction(1, 2)),
        g(0, 1, 0, 0),
    ]


def fixed_pentagon_center(ctx, phi, s):
    """P0 = (1/2, sqrt((2+phi)^3)/10), the fixed point."""
    return ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)


class TestStep:
    def test_iterate_list(self, golden):
        ctx, phi, s = golden
        expected = known_iterates(ctx, phi, s)
        z = -phi
        for i in range(10):
            assert z == expected[i], f"iterate {i}"
            z = step(z)
        assert z == expected[10] == phi

    def test_origin_maps_to_minus_lambda(self):
        for p, q in [(4, 5), (11, 12), (3, 7)]:
            ctx = make_field(p, q)
            assert step(ctx.zero()) == -ctx.lambda_

    def test_fixed_point(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        assert step(p0) == p0


class TestInverseStep:
    def test_examples(self, golden):
        ctx, phi, s = golden
        assert inverse_step(-ctx.lambda_) == ctx.zero()
        expected = known_iterates(ctx, phi, s)
        assert inverse_step(phi) == expected[9]

    def test_round_trip_random(self, golden):
        ctx, _, _ = golden
        rng = random.Random(21)
        for _ in range(60):
            z = ctx.point(
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
            )
            assert inverse_step(step(z)) == z
            assert step(inverse_step(z)) == z

    def test_round_trip_on_the_line(self, golden):
        ctx, phi, _ = golden
        for z in (ctx.point(3, 0), -phi, ctx.zero()):
            assert inverse_step(step(z)) == z


class TestAddress:
    # a point's branch is the Sign of its imaginary part
    def test_examples(self, golden):
        ctx, phi, s = golden
        expected = known_iterates(ctx, phi, s)
        assert sign_of_imag(-phi) is Sign.ZERO
        assert sign_of_imag(expected[1]) is Sign.POSITIVE
        assert sign_of_imag(expected[4]) is Sign.NEGATIVE

    def test_branch_isometry(self, golden):
        ctx, _, _ = golden
        rng = random.Random(22)
        checked = 0
        while checked < 40:
            y_sign = rng.choice([1, -1])
            z1 = ctx.point(
                Fraction(rng.randint(-30, 30), 7), y_sign * Fraction(rng.randint(1, 30), 7)
            )
            z2 = ctx.point(
                Fraction(rng.randint(-30, 30), 7), y_sign * Fraction(rng.randint(1, 30), 7)
            )
            assert sign_of_imag(z1) == sign_of_imag(z2) == y_sign
            d_before = squared_abs(z1 - z2)
            d_after = squared_abs(step(z1) - step(z2))
            assert d_after == d_before
            checked += 1

    def test_conjugation_parameter_reflection(self, golden):
        # conj(F(conj z)) = lambda^{-1} * F^{-1}(lambda * z) off the line; the
        # inverse map carries the reflected rotation parameter.
        ctx, _, _ = golden
        lam_inv = ctx.lambda_.inverse()
        rng = random.Random(23)
        for _ in range(40):
            z = ctx.point(
                Fraction(rng.randint(-30, 30), 11),
                Fraction(rng.choice([k for k in range(-30, 31) if k]), 11),
            )
            lhs = step(z.conj()).conj()
            rhs = lam_inv * inverse_step(ctx.lambda_ * z)
            assert lhs == rhs


class TestOrbit:
    def test_orbit_of_q(self, golden):
        ctx, phi, s = golden
        assert orbit(-phi, 10) == known_iterates(ctx, phi, s)

    def test_zero_length(self, golden):
        ctx, _, _ = golden
        z = ctx.point(1, 2)
        assert orbit(z, 0) == [z]

    def test_fixed_point_orbit(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        assert orbit(p0, 1) == [p0, p0]

    def test_negative_length_rejected(self, golden):
        ctx, _, _ = golden
        with pytest.raises(ParameterError):
            orbit(ctx.zero(), -1)

    @pytest.mark.parametrize("p, q", [(4, 5), (11, 12), (3, 7)])
    def test_steps_make_no_field_product(self, monkeypatch, p, q):
        # lambda = zeta^t0, so a step is one mul_zeta permutation; the
        # reference multiplies by lambda
        ctx = make_field(p, q)
        want = [ctx.point(Fraction(1, 3), Fraction(1, 7))]
        for _ in range(200):
            z = want[-1]
            want.append(ctx.lambda_ * (z - 1 if sign_of_imag(z) >= Sign.ZERO else z + 1))

        def no_product(*_):
            raise AssertionError("field product")

        monkeypatch.setattr(FieldContext, "_mul_vecs", no_product)
        assert orbit(want[0], 200) == want


class TestMinimalPeriod:
    def test_fixed_point(self, golden):
        ctx, phi, s = golden
        rec = minimal_period(fixed_pentagon_center(ctx, phi, s), 10)
        assert rec.period == 1
        assert rec.iterates_on_line == ()

    def test_second_pentagon_center(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
        rec = minimal_period(p1, 100)
        assert rec.period == 7
        # no earlier return: the orbit has 7 distinct points
        pts = orbit(p1, 6)
        assert len({p.coeffs for p in pts}) == 7

    def test_hexagon_center(self):
        ctx = make_field(11, 12)
        sqrt3 = ctx.zeta_pow(1) + ctx.zeta_pow(1).conj()
        c = sqrt3 / 3 + Fraction(3, 2) + ctx.i_unit * (sqrt3 / 6)
        rec = minimal_period(c, 100)
        assert rec.period == 20

    def test_budget_exhaustion_is_an_outcome(self, golden):
        ctx, phi, _ = golden
        rec = minimal_period(-phi, 500)
        assert rec.period is None
        assert rec.budget_used == 500

    def test_line_touches_recorded(self, golden):
        ctx, phi, _ = golden
        rec = minimal_period(-phi, 100)
        assert [i for i, _ in rec.iterates_on_line] == [0, 3, 10, 15, 38, 48, 53, 78, 83, 93]
        by_index = dict(rec.iterates_on_line)
        assert by_index[10] == phi
        assert by_index[3] == 1 + phi

    def test_budget_validation(self, golden):
        ctx, _, _ = golden
        with pytest.raises(ParameterError):
            minimal_period(ctx.zero(), 0)

    def test_record_is_frozen(self, golden):
        ctx, phi, s = golden
        rec = minimal_period(fixed_pentagon_center(ctx, phi, s), 10)
        with pytest.raises(AttributeError):
            rec.period = 2


class TestItinerary:
    def test_fixed_point_word(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        assert itinerary(p0, 5) == (1, 1, 1, 1, 1)

    def test_on_line_reports_index(self, golden):
        ctx, phi, _ = golden
        with pytest.raises(CriticalLineError) as err:
            itinerary(-phi, 1)
        assert err.value.index == 0

    def test_on_line_deeper_index(self, golden):
        # Q3 = 1 + phi is reached after three steps from Q0
        ctx, phi, s = golden
        q1 = known_iterates(ctx, phi, s)[1]
        with pytest.raises(CriticalLineError) as err:
            itinerary(q1, 10)
        assert err.value.index == 2

    def test_periodic_word_shift_period_divides(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
        word = itinerary(p1, 7)
        ell = itinerary_period(word)
        assert 7 % ell == 0

    def test_word_is_a_frozen_value_of_its_length(self, golden):
        ctx, phi, s = golden
        word = itinerary(fixed_pentagon_center(ctx, phi, s), 5)
        assert type(word) is tuple and word == (1,) * 5
        assert all(type(x) is int for x in word)
        with pytest.raises(TypeError):
            word[0] = -1


class TestItineraryPeriod:
    def test_small_words(self):
        assert itinerary_period((1, 1, 1, 1, 1)) == 1
        assert itinerary_period([1, -1, 1, -1]) == 2
        assert itinerary_period((1, -1, -1, 1, -1, -1)) == 3

    def test_p1_word_is_primitive(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
        word = itinerary(p1, 7)
        assert itinerary_period(word) == 7

    def test_random_repeated_blocks(self):
        # against the least divisor d of the length with w == w[:d] * (n // d)
        rng = random.Random(29)
        for _ in range(300):
            block = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 12)))
            w = block * rng.randint(1, 6)
            n = len(w)
            want = next(d for d in range(1, n + 1) if n % d == 0 and w == w[:d] * (n // d))
            for word in (w, list(w), array("b", w)):
                assert itinerary_period(word) == want

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            itinerary_period(())


class TestAffineAlong:
    def test_single_letters(self, golden):
        ctx, _, _ = golden
        lam = ctx.lambda_
        plus = affine_along(ctx, (1,))
        minus = affine_along(ctx, (-1,))
        assert plus.power == 1 and plus.offset == -lam
        assert minus.power == 1 and minus.offset == lam
        z = ctx.point(2, 5)
        assert plus(z) == step(z)  # z is in the upper half plane

    def test_matches_map_along_orbit(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
        word = itinerary(p1, 7)
        g = affine_along(ctx, word)
        assert g(p1) == orbit(p1, 7)[-1] == p1

    def test_composition_law(self, golden):
        ctx, _, _ = golden
        rng = random.Random(31)
        for _ in range(20):
            w1 = tuple(rng.choice([1, -1]) for _ in range(rng.randint(0, 6)))
            w2 = tuple(rng.choice([1, -1]) for _ in range(rng.randint(0, 6)))
            lhs = affine_along(ctx, w1 + w2)
            rhs = compose(affine_along(ctx, w2), affine_along(ctx, w1))
            assert lhs == rhs

    def test_equal_symbols_of_length_q_compose_to_identity(self, golden):
        # the offsets sum to -(lam + lam^2 + ... + lam^q) = 0, so the linear
        # part is 1 and the translation vanishes
        ctx, _, _ = golden
        g = affine_along(ctx, (1,) * 5)
        assert g.power % 5 == 0
        assert ctx.lam_pow(g.power) == 1
        assert g.offset.is_zero()

    def test_mixed_word_of_length_q_is_a_pure_translation(self, golden):
        ctx, _, _ = golden
        g = affine_along(ctx, (1, 1, -1, 1, 1))
        assert ctx.lam_pow(g.power) == 1
        assert not g.offset.is_zero()
        z = ctx.point(1, 1)
        assert g(z) == z + g.offset


class TestRotationCenter:
    """Known centers are the fixed points of their block maps."""

    def test_one_step_center(self, golden):
        ctx, _, _ = golden
        g = affine_along(ctx, (1,))
        center = rotation_center(g)
        assert g(center) == center
        assert step(center) == center  # center of the + branch is a fixed point

    def test_fixed_point_recovered(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        g = affine_along(ctx, itinerary(p0, 1))
        assert rotation_center(g) == p0

    def test_second_center_recovered(self, golden):
        ctx, phi, s = golden
        p0 = fixed_pentagon_center(ctx, phi, s)
        p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
        g = affine_along(ctx, itinerary(p1, 7))
        assert rotation_center(g) == p1


class TestRotationOrder:
    def test_examples(self):
        ctx5 = make_field(4, 5)
        ctx12 = make_field(11, 12)
        assert rotation_order(ctx5, 7) == 5
        assert rotation_order(ctx12, 20) == 3
        assert rotation_order(ctx5, 5) == 1
        assert rotation_order(ctx12, 12) == 1

    def test_is_multiplicative_order(self):
        # brute force: k is minimal with (lambda^ell)^k = 1
        for p, q, ell in [(4, 5, 7), (11, 12, 20), (3, 7, 4)]:
            ctx = make_field(p, q)
            k = rotation_order(ctx, ell)
            u = ctx.lam_pow(ell % q)
            power = ctx.one()
            for j in range(1, k):
                power = power * u
                assert power != 1
            assert power * u == 1
