"""Parser for point expressions on the command line.

Accepted forms:
  - rational pair            "(1/2, -3/4)"
  - golden field literal     "1/2 + 3*phi", "-phi" (conductor-20 fields)
  - named constants          P0, P1, ... (pentagon centers), Q, R, S
                             (golden case), C and H.v1..H.v6 (hexagon case)
  - coefficient vector       "[c0, c1, ...]" over the power basis
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cyclo import CycloNum, FieldContext, golden_elements
from .errors import ParameterError


class ParseError(ParameterError):
    def __init__(self, message: str, position: int = 0):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_NAME_RE = re.compile(r"^(P(\d+)|Q|R|S|C|H\.v([1-6]))$")
_RATIONAL_RE = re.compile(r"^[+-]?(\d+(/\d+)?|\d*\.\d+)$")
_TERM_RE = re.compile(r"([+-]?)([^+-]*)")


def parse_rational(text: str, position: int = 0) -> Fraction:
    """A signed integer, fraction 'a/b' or decimal 'a.b'; ParseError otherwise.
    ``position`` is the offset of ``text`` in the input, and an error
    reports the offset of its first non-blank character."""
    token = text.strip()
    position += len(text) - len(text.lstrip())
    if not _RATIONAL_RE.match(token):
        raise ParseError(f"expected a rational number, got {token!r}", position)
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}", position) from None


def _parse_rationals(parts: list[str], position: int) -> list[Fraction]:
    """The rationals of comma-separated ``parts``, the first at ``position``."""
    out = []
    for part in parts:
        out.append(parse_rational(part, position))
        position += len(part) + 1
    return out


def parse_point(text: str, ctx: FieldContext) -> CycloNum:
    """The point that ``text`` names; a ``ParseError``'s position is the
    offset of the bad token in ``text``."""
    src = text.rstrip()
    start = len(src) - len(src.lstrip())
    if start == len(src):
        raise ParseError("empty point expression", 0)
    if src[start] == "(":
        return _parse_pair(src, start, ctx)
    if src[start] == "[":
        return _parse_vector(src, start, ctx)
    if _NAME_RE.match(src[start:]):
        return _named_constant(src[start:], start, ctx)
    return _parse_phi_literal(src, start, ctx)


def _parse_pair(src: str, start: int, ctx: FieldContext) -> CycloNum:
    if not src.endswith(")"):
        raise ParseError("unterminated '('", len(src) - 1)
    parts = src[start + 1:-1].split(",")
    if len(parts) != 2:
        raise ParseError("a point pair needs exactly one comma", start + 1)
    return ctx.point(*_parse_rationals(parts, start + 1))


def _parse_vector(src: str, start: int, ctx: FieldContext) -> CycloNum:
    if not src.endswith("]"):
        raise ParseError("unterminated '['", len(src) - 1)
    parts = src[start + 1:-1].split(",")
    if len(parts) != ctx.d:
        raise ParseError(
            f"coefficient vector needs {ctx.d} entries for this field, got {len(parts)}",
            start + 1,
        )
    return ctx.num(_parse_rationals(parts, start + 1))


def _named_constant(name: str, start: int, ctx: FieldContext) -> CycloNum:
    from .casestudy import golden_context, hexagon_context, pentagon_centers

    if name[0] in "PQRS":
        if ctx.m != 20 or ctx.q != 5:
            raise ParseError(f"constant {name} lives in the golden case (--alpha 4/5)", start)
        gc = golden_context()
        if name == "Q":
            return gc.Q
        if name == "R":
            return gc.R
        if name == "S":
            return gc.S
        n = int(name[1:])
        return pentagon_centers(gc, n)[n]
    # hexagon constants
    if ctx.q != 12:
        raise ParseError(f"constant {name} lives in the hexagon case (--alpha 11/12)", start)
    hc = hexagon_context()
    if name == "C":
        return hc.center
    idx = int(name.split("v")[1]) - 1
    return hc.hexagon.vertices[idx]


def _parse_phi_literal(src: str, start: int, ctx: FieldContext) -> CycloNum:
    if ctx.m != 20:
        raise ParseError("phi literals need a conductor-20 field (--alpha 4/5)", start)
    phi, _, _ = golden_elements(ctx)
    total = ctx.zero()
    # signed terms, read as typed from the first non-blank (the pattern also
    # matches the empty end); blanks may stand around the signs and '*' only
    for term in _TERM_RE.finditer(src, start):
        if not term.group():
            continue
        sign = -1 if term.group(1) == "-" else 1
        body, pos = term.group(2), term.start(2)
        coeff, star, factor = body.rpartition("*")
        if not body.strip():
            raise ParseError("dangling sign", term.start())
        if factor.strip() == "phi":
            total = total + phi * (sign * (parse_rational(coeff, pos) if star else 1))
        elif star:
            pos += len(coeff) + 1 + len(factor) - len(factor.lstrip())
            raise ParseError(f"expected phi after '*', got {factor.strip()!r}", pos)
        else:
            total = total + ctx.from_rational(sign * parse_rational(body, pos))
    return total


def parse_alpha(text: str) -> tuple[int, int]:
    """Rotation fraction 'p/q' meaning an angle of 2*pi*p/q."""
    m = re.match(r"^\s*(\d+)\s*/\s*(\d+)\s*$", text)
    if not m:
        raise ParseError(f"expected a fraction p/q, got {text!r}", 0)
    return int(m.group(1)), int(m.group(2))


def parse_box(text: str):
    """'x0,y0,x1,y1' with rational entries."""
    from .geometry import Box

    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError("a box needs four comma-separated rationals", 0)
    return Box(*_parse_rationals(parts, 0))
