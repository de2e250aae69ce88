"""Reference renderings of field elements built from ``Fraction``
coefficients, one ``Fraction`` per coefficient: the text of
``cyclo.format_golden`` from the golden coordinates (x, y, u, v), and that of
``str`` of a ``CycloNum`` from its rational coefficients."""

from fractions import Fraction


def linear_text(a: Fraction, b: Fraction, unit: str) -> str:
    """a + b*unit with conventional sign handling."""
    parts = []
    if a:
        parts.append(str(a))
    if b:
        body = unit if abs(b) == 1 else f"{abs(b)}*{unit}"
        if not parts:
            parts.append(body if b > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if b > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def golden_text(x: Fraction, y: Fraction, u: Fraction, v: Fraction) -> str:
    """x + y*phi + (u + v*phi)*sqrt(2+phi)*i, the imaginary part dropped when
    zero, its factor dropped when it is 1 or -1 and bracketed when it has
    two terms."""
    real = linear_text(x, y, "phi")
    if not u and not v:
        return real
    inner = linear_text(u, v, "phi")
    if inner in ("1", "-1"):
        imag = inner[:-1] + "sqrt(2+phi)*i"
    elif u and v:
        imag = f"({inner})*sqrt(2+phi)*i"
    else:
        imag = f"{inner}*sqrt(2+phi)*i"
    if real == "0":
        return imag
    return f"{real} - {imag[1:]}" if imag.startswith("-") else f"{real} + {imag}"


def polynomial_text(coeffs) -> str:
    """The rational coefficients over 1, z, ..., z^(d-1) as a signed sum."""
    terms = []
    for j, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(Fraction(c))
        if j == 0:
            body = str(mag)
        else:
            var = "z" if j == 1 else f"z^{j}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"
