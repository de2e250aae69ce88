"""The two fully worked rotation cases.

Golden case (rotation by -2*pi/5): the fixed pentagon center P0, the affine
contraction r with ratio 1/phi^3 = 2*phi - 3 whose iterates P_n = r^n(P0) form
a family of pentagon centers with rapidly growing periods, and the orbit of
the on-line point Q = (-phi, 0) whose critical-line returns stay in Z[phi].

Dodecagon case (rotation by 11*pi/6): the irregular hexagon tile with
20-periodic center C = (sqrt(3)/3 + 3/2, sqrt(3)/6).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .cyclo import CycloNum, FieldContext, golden_elements, make_field
from .dynamics import minimal_period
from .errors import ParameterError, WrongContextError
from .geometry import ConvexPolygon, make_polygon, polygon_is_regular
from .stepper import run_signs
from .tiles import CheckReport, tile_from_seed, verify_rotation_structure


class GoldenContext(NamedTuple):
    """Named exact data of the golden-ratio case."""

    ctx: FieldContext
    phi: CycloNum
    sqrt2phi: CycloNum
    r_scale: CycloNum            # 2*phi - 3 = 1/phi^3
    r_shift: CycloNum            # 2 - 2*phi
    P0: CycloNum
    Q: CycloNum
    R: CycloNum
    S: CycloNum


@lru_cache(maxsize=1)
def golden_context() -> GoldenContext:
    ctx = make_field(4, 5)
    phi, s, _ = golden_elements(ctx)
    p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
    r_scale = 2 * phi - 3
    assert r_scale * phi ** 3 == 1
    return GoldenContext(
        ctx=ctx,
        phi=phi,
        sqrt2phi=s,
        r_scale=r_scale,
        r_shift=2 - 2 * phi,
        P0=p0,
        Q=-phi,
        R=ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((1 + 2 * phi) * phi / 2 * s),
        S=1 + phi,
    )


def golden_rescale(gc: GoldenContext, z: CycloNum) -> CycloNum:
    """The contraction r(x, y) = ((2*phi-3)x + 2 - 2*phi, (2*phi-3)y).

    As a complex map this is z -> (2*phi-3) z + (2 - 2*phi) since both
    coefficients are real.
    """
    if z.ctx is not gc.ctx:
        raise WrongContextError("golden_rescale needs a point of the golden case field")
    return gc.r_scale * z + gc.r_shift


def pentagon_centers(gc: GoldenContext, max_n: int) -> list[CycloNum]:
    """P_0 .. P_max_n with P_{n+1} = r(P_n)."""
    if max_n < 0:
        raise ParameterError("max_n must be >= 0")
    out = [gc.P0]
    for _ in range(max_n):
        out.append(golden_rescale(gc, out[-1]))
    return out


def pentagon_center_periods(
    gc: GoldenContext, max_n: int, budget: int
) -> list[tuple[int, CycloNum, Optional[int]]]:
    """(n, P_n, minimal period or None when the budget ran out)."""
    rows = []
    for n, p in enumerate(pentagon_centers(gc, max_n)):
        rec = minimal_period(p, budget)
        rows.append((n, p, rec.period))
    return rows


def q_orbit_returns(gc: GoldenContext, nsteps: int) -> tuple[tuple[int, CycloNum], ...]:
    """Critical-line returns (index, exact value) of the orbit of Q within
    ``nsteps`` steps, the first ``TOUCH_CAP`` of the walk's kernel.  Every
    observed return is real and lies in Z[phi]."""
    if nsteps < 0:
        raise ParameterError("the number of steps must be >= 0")
    return run_signs(gc.Q, nsteps + 1)[1]  # iterates 0..nsteps


# -- dodecagon case ---------------------------------------------------------------


class HexagonContext(NamedTuple):
    ctx: FieldContext
    sqrt3: CycloNum
    center: CycloNum
    hexagon: ConvexPolygon


@lru_cache(maxsize=1)
def hexagon_context() -> HexagonContext:
    ctx = make_field(11, 12)
    r3 = ctx.zeta_pow(1) + ctx.zeta_pow(1).conj()
    i = ctx.i_unit

    def pt(x_plain, x_r3, y_plain, y_r3):
        return (
            ctx.from_rational(x_plain)
            + r3 * x_r3
            + i * (ctx.from_rational(y_plain) + r3 * y_r3)
        )

    h = Fraction(1, 2)
    quarter = Fraction(1, 4)
    vertices = [
        pt(2, 0, 0, 0),
        pt(Fraction(3, 2), h, 0, 0),
        pt(Fraction(3, 2), h, -h, h),
        pt(Fraction(7, 4), quarter, quarter, quarter),
        pt(1, h, h, 0),
        pt(Fraction(5, 4), quarter, -quarter, quarter),
    ]
    center = r3 / 3 + Fraction(3, 2) + i * (r3 / 6)
    return HexagonContext(ctx, r3, center, make_polygon(vertices))


def hexagon_case(budget: int = 100) -> CheckReport:
    """End-to-end verification of the irregular hexagon tile.

    Builds the tile of the center C within ``budget`` steps and runs
    ``verify_rotation_structure`` on it (distinct images that close up at
    ell and stay off the line, the block map rotating the hexagon about C,
    and the periods of C and of interior samples), then checks the case's
    own facts: ell is 20, the polygon is the known six-vertex hexagon, and
    it fails exact regularity.  The report keeps the tile it checked, which
    ``casestudy hexagon --svg`` draws.  ``tile_from_seed`` raises
    ``BudgetExceededError`` when C has not returned within ``budget``
    steps, which falsifies nothing.
    """
    hc = hexagon_context()
    tile = tile_from_seed(hc.center, budget)
    report = verify_rotation_structure(tile)
    report.name = "irregular hexagon tile"
    report.record("center is 20-periodic", tile.ell == 20, f"got {tile.ell}")
    report.record(
        "tile polygon equals the known hexagon",
        tile.polygon.key() == hc.hexagon.key(),
        f"{tile.sides} sides",
    )
    report.record(
        "hexagon is not regular", not polygon_is_regular(tile.polygon), ""
    )
    return report
