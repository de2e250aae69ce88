from fractions import Fraction

import pytest

from pwrot.casestudy import golden_context, hexagon_context, pentagon_centers
from pwrot.cyclo import make_field
from pwrot.pointexpr import ParseError, parse_alpha, parse_box, parse_point, parse_rational


@pytest.fixture(scope="module")
def ctx5():
    return make_field(4, 5)


@pytest.fixture(scope="module")
def ctx12():
    return make_field(11, 12)


class TestPairs:
    def test_rational_pair(self, ctx5):
        assert parse_point("(1/2, -3/4)", ctx5) == ctx5.point(Fraction(1, 2), Fraction(-3, 4))

    def test_integers_and_decimals(self, ctx5):
        assert parse_point("(2, 0)", ctx5) == ctx5.point(2, 0)
        assert parse_point("(0.5, -1.25)", ctx5) == ctx5.point(
            Fraction(1, 2), Fraction(-5, 4)
        )

    def test_bad_pair(self, ctx5):
        with pytest.raises(ParseError):
            parse_point("(1, 2, 3)", ctx5)
        with pytest.raises(ParseError):
            parse_point("(1; 2)", ctx5)
        with pytest.raises(ParseError):
            parse_point("(1, 2", ctx5)


class TestVectors:
    def test_coefficient_vector(self, ctx12):
        z = parse_point("[1/2, 0, -3, 7/5]", ctx12)
        assert z == ctx12.num([Fraction(1, 2), 0, -3, Fraction(7, 5)])

    def test_wrong_length(self, ctx12):
        with pytest.raises(ParseError):
            parse_point("[1, 2, 3]", ctx12)


class TestNames:
    def test_golden_names(self, ctx5):
        gc = golden_context()
        assert parse_point("Q", ctx5) == gc.Q
        assert parse_point("R", ctx5) == gc.R
        assert parse_point("S", ctx5) == gc.S
        assert parse_point("P0", ctx5) == gc.P0
        assert parse_point("P3", ctx5) == pentagon_centers(gc, 3)[3]

    def test_hexagon_names(self, ctx12):
        hc = hexagon_context()
        assert parse_point("C", ctx12) == hc.center
        assert parse_point("H.v1", ctx12) == hc.hexagon.vertices[0]
        assert parse_point("H.v6", ctx12) == hc.hexagon.vertices[5]

    def test_names_need_matching_field(self, ctx5, ctx12):
        with pytest.raises(ParseError):
            parse_point("C", ctx5)
        with pytest.raises(ParseError):
            parse_point("Q", ctx12)


class TestPhiLiterals:
    def test_linear_combinations(self, ctx5):
        gc = golden_context()
        assert parse_point("1/2 + 3*phi", ctx5) == gc.ctx.from_rational(Fraction(1, 2)) + gc.phi * 3
        assert parse_point("-phi", ctx5) == -gc.phi
        assert parse_point("2 - 1/2*phi", ctx5) == gc.ctx.from_rational(2) - gc.phi / 2
        assert parse_point("7", ctx5) == gc.ctx.from_rational(7)

    def test_needs_golden_field(self, ctx12):
        with pytest.raises(ParseError):
            parse_point("1 + phi", ctx12)

    def test_garbage_rejected(self, ctx5):
        with pytest.raises(ParseError):
            parse_point("1 + ", ctx5)
        with pytest.raises(ParseError):
            parse_point("phi*phi", ctx5)
        err = None
        try:
            parse_point("1 + spam", ctx5)
        except ParseError as e:
            err = e
        assert err is not None and err.position > 0

    def test_blanks_around_operators(self, ctx5):
        assert parse_point("  1/2  +  3 * phi -phi", ctx5) == parse_point("1/2+3*phi-phi", ctx5)
        assert parse_point("- 2 *phi", ctx5) == parse_point("-2*phi", ctx5)


class TestAlphaAndBox:
    def test_alpha(self):
        assert parse_alpha("4/5") == (4, 5)
        assert parse_alpha(" 11 / 12 ") == (11, 12)
        with pytest.raises(ParseError):
            parse_alpha("0.8")

    def test_box(self):
        box = parse_box("-3,-3,3,3")
        assert (box.x0, box.y0, box.x1, box.y1) == (-3, -3, 3, 3)
        box = parse_box("-1/2,0,1/2,2")
        assert box.x0 == Fraction(-1, 2)
        with pytest.raises(ParseError):
            parse_box("1,2,3")


class TestZeroDenominators:
    def test_rational(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")
        with pytest.raises(ParseError):
            parse_rational("-0/0")

    def test_every_form(self, ctx5, ctx12):
        for text, ctx in [("(1/0, 2)", ctx5), ("(1, 2/0)", ctx5), ("[1, 1/0, 0, 0]", ctx12),
                          ("1/0 + phi", ctx5), ("1 + 1/0*phi", ctx5)]:
            with pytest.raises(ParseError):
                parse_point(text, ctx)
        with pytest.raises(ParseError):
            parse_box("0,0,1/0,1")


class TestPositions:
    """A ParseError's position is the offset of the bad token in the text
    as typed, spaces included."""

    @pytest.mark.parametrize("text, position", [
        ("1/2 +  3*phi + y", 15),
        ("phi + phi + 1/0", 12),
        ("(1, x)", 4),
        ("  [1, 2, y, 4]", 9),
        ("   ", 0),
        ("[1, 2", 4),
    ])
    def test_point(self, ctx5, ctx12, text, position):
        with pytest.raises(ParseError) as err:
            parse_point(text, ctx12 if "[" in text else ctx5)
        assert err.value.position == position

    def test_box(self):
        with pytest.raises(ParseError) as err:
            parse_box("0,0,x,1")
        assert err.value.position == 4

    @pytest.mark.parametrize("text, position, token", [
        ("2 3", 0, "2 3"),
        ("1 + 2 3*phi", 4, "2 3"),
        ("1 + 2*ph i", 6, "ph i"),
        ("phi phi", 0, "phi phi"),
    ])
    def test_blank_inside_a_token(self, ctx5, text, position, token):
        # a phi literal allows blanks around '+', '-' and '*' and nowhere
        # else, and the error quotes the bad token as typed
        with pytest.raises(ParseError) as err:
            parse_point(text, ctx5)
        assert err.value.position == position and repr(token) in str(err.value)
