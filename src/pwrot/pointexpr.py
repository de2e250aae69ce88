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


def parse_rational(text: str, position: int = 0) -> Fraction:
    """A signed integer, fraction 'a/b' or decimal 'a.b'; ParseError otherwise."""
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ParseError(f"expected a rational number, got {token!r}", position)
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}", position) from None


def parse_point(text: str, ctx: FieldContext) -> CycloNum:
    src = text.strip()
    if not src:
        raise ParseError("empty point expression", 0)
    if src.startswith("("):
        return _parse_pair(src, ctx)
    if src.startswith("["):
        return _parse_vector(src, ctx)
    m = _NAME_RE.match(src)
    if m:
        return _named_constant(src, ctx)
    return _parse_phi_literal(src, ctx)


def _parse_pair(src: str, ctx: FieldContext) -> CycloNum:
    if not src.endswith(")"):
        raise ParseError("unterminated '('", len(src) - 1)
    inner = src[1:-1]
    parts = inner.split(",")
    if len(parts) != 2:
        raise ParseError("a point pair needs exactly one comma", src.find("(") + 1)
    x = parse_rational(parts[0], 1)
    y = parse_rational(parts[1], 2 + len(parts[0]))
    return ctx.point(x, y)


def _parse_vector(src: str, ctx: FieldContext) -> CycloNum:
    if not src.endswith("]"):
        raise ParseError("unterminated '['", len(src) - 1)
    parts = src[1:-1].split(",")
    if len(parts) != ctx.d:
        raise ParseError(
            f"coefficient vector needs {ctx.d} entries for this field, got {len(parts)}", 1
        )
    offset = 1
    coeffs = []
    for part in parts:
        coeffs.append(parse_rational(part, offset))
        offset += len(part) + 1
    return ctx.num(coeffs)


def _named_constant(name: str, ctx: FieldContext) -> CycloNum:
    from .casestudy import golden_context, hexagon_context, pentagon_centers

    if name[0] in "PQRS":
        if ctx.m != 20 or ctx.q != 5:
            raise ParseError(f"constant {name} lives in the golden case (--alpha 4/5)", 0)
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
        raise ParseError(f"constant {name} lives in the hexagon case (--alpha 11/12)", 0)
    hc = hexagon_context()
    if name == "C":
        return hc.center
    idx = int(name.split("v")[1]) - 1
    return hc.hexagon.vertices[idx]


def _parse_phi_literal(src: str, ctx: FieldContext) -> CycloNum:
    if ctx.m != 20:
        raise ParseError("phi literals need a conductor-20 field (--alpha 4/5)", 0)
    phi, _, _ = golden_elements(ctx)
    total = ctx.zero()
    # split into signed terms at top level
    terms = []
    for chunk in re.split(r"(?=[+-])", src.replace(" ", "")):
        if chunk in ("", "+", "-"):
            if chunk:
                raise ParseError("dangling sign", src.find(chunk))
            continue
        terms.append(chunk)
    if not terms:
        raise ParseError("no terms found", 0)
    for term in terms:
        pos = src.replace(" ", "").find(term)
        sign = 1
        body = term
        if body[0] == "+":
            body = body[1:]
        elif body[0] == "-":
            sign = -1
            body = body[1:]
        if body == "phi":
            total = total + phi * sign
        elif body.endswith("*phi"):
            coeff = parse_rational(body[:-4], pos)
            total = total + phi * (sign * coeff)
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
    vals = [parse_rational(p, i) for i, p in enumerate(parts)]
    return Box(*vals)
