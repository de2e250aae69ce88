"""Regular-set tiles: extract the convex polygon cell of a periodic seed,
classify it, verify the permutation/rotation structure on it, and scan
rational grids for an inventory of tiles.

A tile is its minimal itinerary block: every point of one component of the
regular set has the same periodic itinerary, so the block of length ell of
any seed in it names the tile, and ell, the rotation order
k = q / gcd(ell, q), the polygon and the center all follow from the block.
The block is read off the signs that the seed's first-return walk records,
and the polygon comes from the same walk, so a seed costs one kernel walk
and nothing walks its branch offsets.  The cell is the intersection of the
k*ell constraints s_j Im(lambda^j w + b_j) > 0 pulled back along the block,
with b_j = z_j - lambda^j z; within a direction class they are nested, and
the one whose iterate z_j lies nearest the line binds.  The kernel keeps
that iterate per class while it walks, decided by exact signs.  A center
seed's walk ends at ell, so each nominee stands for k indices, and the one
binding pass of ``geometry.intersect_halfplanes`` keeps at most m of the
copies.  When k > 1 the block map permutes the vertices and fixes one
point, the center, so the center is the vertex average; a k = 1 tile has
no unique center and reports its seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional

from .cyclo import CycloNum, FieldContext, Sign, sign_of_imag
from .dynamics import (
    AffineMap,
    branch_offsets,
    itinerary_period,
    minimal_period,
    rotation_order,
)
from .errors import (
    BudgetExceededError,
    CriticalLineError,
    InternalInconsistencyError,
    ParameterError,
)
from .geometry import (
    Box,
    ConvexPolygon,
    HalfPlane,
    Location,
    apply_affine,
    edge_direction_power,
    intersect_halfplanes,
    make_polygon,
    polygon_contains,
    polygon_is_regular,
)
from .stepper import OrbitRecord


class Tile(NamedTuple):
    """One connected component of the regular set, keyed by its minimal
    itinerary block ``word``, a tuple of +1 and -1 of length ell.
    ``center`` is the fixed point of the block map when k > 1; a k = 1 tile
    (q divides ell) reports the first seed it was built from as its center."""

    polygon: ConvexPolygon
    word: tuple[int, ...]
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
    def period(self) -> int:
        """The minimal period k*ell of the tile's interior points."""
        return self.k * self.ell

    @property
    def sides(self) -> int:
        return len(self.polygon)

    def key(self):
        return self.word


class CheckReport:
    """Outcome of a verification run on ``tile``; ``passed`` is the
    conjunction."""

    def __init__(self, name: str, tile: Tile):
        self.name = name
        self.tile = tile
        self.checks: list = []

    def record(self, label: str, ok: bool, detail: str = ""):
        self.checks.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _minimal_block(rec: OrbitRecord) -> tuple[int, ...]:
    """The minimal itinerary block of a periodic seed, read off the signs of
    its first-return walk."""
    if rec.iterates_on_line:
        raise CriticalLineError(rec.iterates_on_line[0][0])
    if rec.period is None:
        raise BudgetExceededError(rec.budget_used)
    n = rec.period
    ell = itinerary_period(rec.signs)
    k = rotation_order(rec.start.ctx, ell)
    if n not in (ell, k * ell):
        raise InternalInconsistencyError(
            f"period {n} is neither ell={ell} nor k*ell={k * ell}"
        )
    return tuple(rec.signs[:ell])


def _nominee_halfplanes(rec: OrbitRecord, period: int) -> list[HalfPlane]:
    """The pulled-back constraints of the nominees of the seed's
    first-return walk, in index order.

    Constraint j < period, s_j Im(lambda^j w + b_j) > 0, is in the class
    e = (t0*j + (m/2 if s_j < 0)) mod m, and the one of least s_j Im(z_j)
    binds there, which the walk nominated; the first index on a tie.  A
    center seed's walk ends at ell = period / k, and z_(j + i*ell) = z_j is
    in class e + i*ell*t0, so each nominee stands for k indices, and the
    copies that share a class are nested.  ``intersect_halfplanes`` makes
    the one binding pass, which keeps the first least one per class.

    A nominee z_j = vec / z.den shares the seed's denominator, so
    b_j = (vec - zeta^(t0*j) * z.vec) / z.den is one permutation and one
    reduction.
    """
    z = rec.start
    ctx = z.ctx
    m, t0, walked = ctx.m, ctx.t0, rec.period
    nominees = sorted((j + i, vec) for j, vec in filter(None, rec.nominees)
                      for i in range(0, period, walked))
    return [
        HalfPlane(j % ctx.q,
                  ctx.from_lattice([x - y for x, y in zip(vec, ctx._permute(z.vec, 1, t0 * j % m))],
                                   z.den),
                  rec.signs[j % walked])
        for j, vec in nominees
    ]


def _build_tile(rec: OrbitRecord, block: tuple[int, ...]) -> Tile:
    """The tile of a seed from its first-return walk and minimal block: the
    intersection of the constraints the walk nominated, checked to
    hold the seed, with the vertex average as the center when k > 1: the
    one that the intersection's certificate computed."""
    z = rec.start
    ctx = z.ctx
    ell = len(block)
    k = rotation_order(ctx, ell)
    poly, average = intersect_halfplanes(_nominee_halfplanes(rec, k * ell))
    if not isinstance(poly, ConvexPolygon):
        raise InternalInconsistencyError(
            f"constraint intersection degenerated to {poly!r} for a periodic seed"
        )
    if polygon_contains(poly, z) != Location.INTERIOR:
        raise InternalInconsistencyError("seed is not interior to its own tile")
    # the block map permutes the vertices and, when k > 1, fixes one point
    return Tile(polygon=poly, word=block, center=average if k > 1 else z, seed=z)


def tile_from_seed(z: CycloNum, budget: int) -> Tile:
    """The tile containing a periodic seed that stays off the critical line.

    Detects the exact period, reads the minimal itinerary block off the signs
    of that same walk, and builds the tile from the walk's one nominee per
    class, the at most m binding constraints, with no second walk and no
    walk of the branch offsets.  The center of a k > 1 tile is the average
    of its vertices.
    """
    rec = minimal_period(z, budget, nominate=True)
    return _build_tile(rec, _minimal_block(rec))


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
    distinct images returning at ell, no open image meeting the line (an
    image fails when its vertices hold both strict signs of Im), the block
    map rotating the vertex set about the center, the center's minimal
    period ell, and interior samples of minimal period k*ell."""
    if samples < 0:
        raise ParameterError("samples must be >= 0")
    report = CheckReport("component permutation and rotation structure", t)
    images, block_map = tile_images(t)

    keys = {img.key() for img in images}
    report.record(
        "images pairwise distinct",
        len(keys) == t.ell,
        f"{len(keys)} distinct of {t.ell}",
    )
    back = apply_affine(t.polygon, block_map)
    report.record("exact return at ell", back.key() == t.polygon.key(), "")
    crossings = [n for n, img in enumerate(images)
                 if {Sign.POSITIVE, Sign.NEGATIVE} <= {sign_of_imag(v) for v in img.vertices}]
    report.record(
        "no open image meets the line", not crossings, f"crossing images: {crossings}"
    )

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
    report = CheckReport("tile geometry bounds", t)
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


class ScanOutcome(NamedTuple):
    x: Fraction
    y: Fraction
    kind: str                      # "period" | "budget" | "critical"
    period: Optional[int] = None
    touch_index: Optional[int] = None


class ScanReport:
    def __init__(self, box: Box, step: Fraction, budget: int, outcomes: list,
                 tiles: dict, histogram: dict):
        self.box = box
        self.step = step
        self.budget = budget
        self.outcomes = outcomes
        self.tiles = tiles            # tile key (its block) -> (Tile, multiplicity)
        self.histogram = histogram    # period -> sample count

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

    A grid point is walked only when its partner (-x, -y) was not walked
    earlier in scan order; the origin is its own partner and is walked.
    Off the line H(-w) = -H(w), so F(-w) = -F(w): every iterate of -z
    before the first that lies on the line is the negation of the iterate
    of z, so -z touches the line first at the same step, or returns at the
    same step, or neither within the budget.  So a point takes its
    partner's kind, period and ``touch_index``.  Its itinerary is the
    negated one, so its tile has block -w where the partner's has w, and
    its cell is the negated cell: the polygon is the negated vertices,
    canonicalized by ``make_polygon``, and a k > 1 center, the fixed point
    of the block map, is the negated center.  A k = 1 tile reports its
    first seed, and the first seed of block -w in scan order is this point
    whenever the tile is new, so the inventory is the one that walking
    every point gives.
    """
    step = Fraction(step)
    if step <= 0:
        raise ParameterError("step must be positive")
    if max_tile_period is not None and max_tile_period < 0:
        raise ParameterError("max_tile_period must be >= 0")
    outcomes = []
    tiles: dict = {}
    histogram: dict = {}
    walked: dict = {}    # (x, y) whose partner is not yet scanned -> (outcome, tile or None)
    y = box.y0
    while y <= box.y1:
        x = box.x0
        while x <= box.x1:
            z = ctx.point(x, y)
            partner = walked.pop((-x, -y), None)
            if partner is not None:
                outcome, t = partner
                outcome = outcome._replace(x=x, y=y)
                if t is not None:
                    _absorb_tile(tiles, tuple(-s for s in t.word), lambda: _negated_tile(t, z))
            else:
                rec = minimal_period(z, budget, nominate=True)
                t = None
                if rec.iterates_on_line:
                    outcome = ScanOutcome(x, y, "critical", touch_index=rec.iterates_on_line[0][0])
                elif rec.period is None:
                    outcome = ScanOutcome(x, y, "budget")
                else:
                    outcome = ScanOutcome(x, y, "period", period=rec.period)
                    if max_tile_period is None or rec.period <= max_tile_period:
                        block = _minimal_block(rec)
                        t = _absorb_tile(tiles, block, lambda: _build_tile(rec, block))
                walked[x, y] = outcome, t
            outcomes.append(outcome)
            if outcome.period is not None:
                histogram[outcome.period] = histogram.get(outcome.period, 0) + 1
            x += step
        y += step
    return ScanReport(box, step, budget, outcomes, tiles, histogram)


def _absorb_tile(tiles: dict, block: tuple[int, ...], build) -> Tile:
    """Count one more seed of the tile of ``block``, built by ``build()``
    when it is new, and return that tile."""
    if block in tiles:
        t, mult = tiles[block]
    else:
        t, mult = build(), 0
    tiles[block] = (t, mult + 1)
    return t


def _negated_tile(t: Tile, z: CycloNum) -> Tile:
    """The tile -t, first met at its seed z (see ``scan_region``)."""
    return Tile(polygon=make_polygon([-v for v in t.polygon.vertices]),
                word=tuple(-s for s in t.word),
                center=-t.center if t.k > 1 else z, seed=z)
