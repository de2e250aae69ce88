"""Regular-set tiles: extract the convex polygon cell of a periodic seed,
classify it, verify the permutation/rotation structure on it, and scan
rational grids for an inventory of tiles.

A tile is its minimal itinerary block: every point of one component of the
regular set has the same periodic itinerary, so the block of length ell of
any seed in it names the tile, and ell, the rotation order
k = q / gcd(ell, q), the polygon and the center all follow from the block.
The cell is the intersection of the k*ell half-plane constraints pulled back
along the block.  They come from one walk of the prefix-map offsets
(``dynamics.branch_offsets``) and stream through
``geometry.binding_halfplanes``, which holds at most one per direction, at
most m in all, however long the walk.  The same walk passes the offset b_ell
of the block map w -> lambda^ell w + b_ell, whose fixed point is the center
when k > 1; a k = 1 tile has no unique center and reports its seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cyclo import CycloNum, FieldContext
from .dynamics import (
    AffineMap,
    Itinerary,
    OrbitRecord,
    branch_offsets,
    itinerary,
    itinerary_period,
    minimal_period,
    rotation_center,
    rotation_order,
)
from .errors import (
    BudgetExceededError,
    CriticalLineError,
    InternalInconsistencyError,
)
from .geometry import (
    Box,
    ConvexPolygon,
    HalfPlane,
    Location,
    apply_affine,
    binding_halfplanes,
    edge_direction_power,
    intersect_halfplanes,
    polygon_contains,
    polygon_is_regular,
)


@dataclass(frozen=True)
class Tile:
    """One connected component of the regular set, keyed by its minimal
    itinerary block ``word``.  ``center`` is the fixed point of the block map
    when k > 1; a k = 1 tile (q divides ell) reports the first seed it was
    built from as its center."""

    polygon: ConvexPolygon
    word: Itinerary          # minimal block, length ell
    center: CycloNum
    seed: CycloNum

    @property
    def ctx(self) -> FieldContext:
        return self.seed.ctx

    @property
    def ell(self) -> int:
        return len(self.word)

    @property
    def k(self) -> int:
        return rotation_order(self.ctx, self.ell)

    @property
    def rotational(self) -> bool:
        return self.k > 1

    @property
    def period(self) -> int:
        """The minimal period k*ell of the tile's interior points."""
        return self.k * self.ell

    @property
    def sides(self) -> int:
        return len(self.polygon)

    def key(self):
        return self.word.word


@dataclass
class CheckReport:
    """Outcome of a verification run; ``passed`` is the conjunction."""

    name: str
    checks: list = field(default_factory=list)

    def record(self, label: str, ok: bool, detail: str = ""):
        self.checks.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(label, detail) for label, ok, detail in self.checks if not ok]


def _minimal_block(rec: OrbitRecord) -> tuple[int, ...]:
    """The minimal itinerary block of a periodic seed, from the seed's
    first-return record."""
    z = rec.start
    if rec.iterates_on_line:
        raise CriticalLineError(rec.iterates_on_line[0][0])
    if rec.period is None:
        raise BudgetExceededError(rec.budget_used)
    n = rec.period
    word_n = itinerary(z, n)
    ell = itinerary_period(word_n)
    k = rotation_order(z.ctx, ell)
    if n not in (ell, k * ell):
        raise InternalInconsistencyError(
            f"period {n} is neither ell={ell} nor k*ell={k * ell}"
        )
    return word_n.word[:ell]


def _build_tile(z: CycloNum, block) -> Tile:
    ctx = z.ctx
    ell = len(block)
    n = rotation_order(ctx, ell) * ell
    center = z

    def pulled_back():
        # b_ell is on the walk only when k > 1, where it gives the center
        nonlocal center
        for j, b in enumerate(branch_offsets(ctx, block, n - 1)):
            if j == ell:
                center = rotation_center(AffineMap(ell % ctx.q, b))
            yield HalfPlane(j % ctx.q, b, block[j % ell])

    poly = intersect_halfplanes(binding_halfplanes(pulled_back()))
    if not isinstance(poly, ConvexPolygon):
        raise InternalInconsistencyError(
            f"constraint intersection degenerated to {poly!r} for a periodic seed"
        )
    if polygon_contains(poly, z) != Location.INTERIOR:
        raise InternalInconsistencyError("seed is not interior to its own tile")
    if polygon_contains(poly, center) != Location.INTERIOR:
        raise InternalInconsistencyError("center is not interior to the tile")
    return Tile(polygon=poly, word=Itinerary(block), center=center, seed=z)


def tile_from_seed(z: CycloNum, budget: int) -> Tile:
    """The tile containing a periodic seed that stays off the critical line.

    Detects the exact period, extracts the minimal itinerary block, streams
    the k*ell pulled-back half-plane constraints from one offset walk into
    the at most m that bind, intersects those, and takes the rotation center
    from the block-map offset that the same walk passes.
    """
    return _build_tile(z, _minimal_block(minimal_period(z, budget)))


def tile_images(t: Tile):
    """The ell polygons visited by the tile, in orbit order, and the block map."""
    *offsets, last = branch_offsets(t.ctx, t.word, t.ell)
    images = [
        apply_affine(t.polygon, AffineMap(j, b)) if j else t.polygon
        for j, b in enumerate(offsets)
    ]
    return images, AffineMap(t.ell % t.ctx.q, last)


def interior_samples(t: Tile, count: int, seed: int = 0):
    """Rational convex combinations of the vertices, strictly interior."""
    rng = random.Random(seed)
    verts = t.polygon.vertices
    out = []
    while len(out) < count:
        weights = [Fraction(rng.randint(1, 5)) for _ in verts]
        total = sum(weights)
        sample = t.ctx.zero()
        for w, v in zip(weights, verts):
            sample = sample + v * (w / total)
        if sample == t.center:
            continue
        out.append(sample)
    return out


def verify_rotation_structure(t: Tile, samples: int = 5, seed: int = 0) -> CheckReport:
    """Exact checks of the permutation/rotation structure on one tile:
    distinct images returning at ell, the block map rotating the vertex set
    about the center, the center's minimal period ell, and interior samples
    of minimal period k*ell."""
    report = CheckReport(name="component permutation and rotation structure")
    images, block_map = tile_images(t)

    keys = {img.key() for img in images}
    report.record(
        "images pairwise distinct",
        len(keys) == t.ell,
        f"{len(keys)} distinct of {t.ell}",
    )
    back = apply_affine(t.polygon, block_map)
    report.record("exact return at ell", back.key() == t.polygon.key(), "")

    verts = t.polygon.vertices
    nv = len(verts)
    mapped = [block_map(v) for v in verts]
    offset = next((r for r in range(nv) if mapped[0] == verts[r]), None)
    cyclic = offset is not None and all(
        mapped[i] == verts[(i + offset) % nv] for i in range(nv)
    )
    report.record("block map rotates the vertex cycle", cyclic, f"offset {offset}")
    report.record(
        "block map fixes the center", block_map(t.center) == t.center, ""
    )

    rec = minimal_period(t.center, t.period + 1)
    report.record(
        "center has minimal period ell", rec.period == t.ell, f"got {rec.period}"
    )

    for idx, sample in enumerate(interior_samples(t, samples, seed)):
        rec = minimal_period(sample, t.period + 1)
        report.record(
            f"interior sample {idx} has period k*ell",
            rec.period == t.period and not rec.iterates_on_line,
            f"got {rec.period}",
        )
    return report


def slope_census(t: Tile) -> set[int]:
    """Distinct edge direction classes among the rotated copies of the real
    axis; for even q antiparallel powers share a slope."""
    ctx = t.ctx
    census = set()
    for a, b in t.polygon.edges():
        power = edge_direction_power(ctx, b - a)
        if power is None:
            raise InternalInconsistencyError("tile edge off the slope grid")
        census.add(power % (ctx.q // 2) if ctx.q % 2 == 0 else power)
    return census


def verify_polygon_bounds(t: Tile) -> CheckReport:
    """Side-count bound, edge slope census, and the coprime dichotomy."""
    ctx = t.ctx
    q = ctx.q
    report = CheckReport(name="tile geometry bounds")
    bound = q if q % 2 == 0 else 2 * q
    report.record(
        "side count within bound", t.sides <= bound, f"{t.sides} <= {bound}"
    )
    try:
        census = slope_census(t)
        slope_bound = q // 2 if q % 2 == 0 else q
        report.record(
            "edge slopes on the rotation grid",
            len(census) <= slope_bound,
            f"{sorted(census)}",
        )
    except InternalInconsistencyError as err:
        report.record("edge slopes on the rotation grid", False, str(err))
    if math.gcd(t.ell, q) == 1:
        regular = polygon_is_regular(t.polygon)
        ok = (t.sides == q and regular) or (q % 2 == 1 and t.sides == 2 * q)
        report.record(
            "coprime dichotomy",
            ok,
            f"sides={t.sides}, regular={regular}, q={q}",
        )
    return report


@dataclass(frozen=True)
class ScanOutcome:
    x: Fraction
    y: Fraction
    kind: str                      # "period" | "budget" | "critical"
    period: Optional[int] = None
    touch_index: Optional[int] = None


@dataclass
class ScanReport:
    box: Box
    step: Fraction
    budget: int
    outcomes: list
    tiles: dict                    # tile key (its block) -> (Tile, multiplicity)
    histogram: dict                # period -> sample count

    @property
    def tile_list(self):
        return [t for t, _ in self.tiles.values()]


def scan_region(
    ctx: FieldContext,
    box: Box,
    step: Fraction,
    budget: int,
    max_tile_period: Optional[int] = None,
) -> ScanReport:
    """Exact periods over a rational grid, with a deduplicated tile inventory.

    Samples whose orbit touches the line are classified as critical-set hits;
    periodic samples are resolved to their tile (skipping polygon extraction
    when the period exceeds ``max_tile_period``).
    """
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    outcomes = []
    tiles: dict = {}
    histogram: dict = {}
    y = box.y0
    while y <= box.y1:
        x = box.x0
        while x <= box.x1:
            z = ctx.point(x, y)
            rec = minimal_period(z, budget)
            if rec.iterates_on_line:
                outcomes.append(
                    ScanOutcome(x, y, "critical", touch_index=rec.iterates_on_line[0][0])
                )
            elif rec.period is None:
                outcomes.append(ScanOutcome(x, y, "budget"))
            else:
                outcomes.append(ScanOutcome(x, y, "period", period=rec.period))
                histogram[rec.period] = histogram.get(rec.period, 0) + 1
                if max_tile_period is None or rec.period <= max_tile_period:
                    _absorb_tile(tiles, rec)
            x += step
        y += step
    return ScanReport(box, step, budget, outcomes, tiles, histogram)


def _absorb_tile(tiles: dict, rec: OrbitRecord):
    block = _minimal_block(rec)
    if block in tiles:
        t, mult = tiles[block]
        tiles[block] = (t, mult + 1)
    else:
        tiles[block] = (_build_tile(rec.start, block), 1)
