"""The benchmark's three workloads: their inputs, their work counts and the
checks of their outputs.

Each workload is one round of ``pwrot`` commands, run in-process through
``pwrot.cli.main`` with ``--out`` files.  A check reads those files back and
verifies them along a path apart from the timed one (field-level
``dynamics.step``/``inverse_step`` iteration in ``CycloNum`` arithmetic, never
the integer stepper kernel), or against a property the paper proves.  A check
returns a list of problems; an empty list means it passed.

Each workload has two sizes: "full", the measured inputs, and "small", for
the smoke mode and the self-test of the checks.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from pwrot.casestudy import golden_context, pentagon_centers
from pwrot.cyclo import Sign, format_golden, golden_coords, make_field, sign_of_imag, sign_of_real
from pwrot.dynamics import inverse_step, step
from pwrot.pointexpr import parse_alpha, parse_box, parse_point


@dataclass(frozen=True)
class Op:
    """One ``pwrot`` invocation: a label, its argv, and the files it writes."""

    label: str
    argv: tuple
    outputs: tuple


# -- orbit-periods ----------------------------------------------------------------

# Acceptance criterion 2: the first 11 line returns of Q = (-phi, 0), as
# (index, (a, b)) with value a + b*phi.
Q_FIRST_RETURNS = [
    (0, (0, -1)), (3, (1, 1)), (10, (0, 1)), (15, (-2, 1)), (38, (-3, 1)),
    (48, (-3, 3)), (53, (-5, 3)), (78, (-7, 5)), (83, (-9, 5)),
    (93, (-9, 7)), (220, (-10, 7)),
]
FIELD_LEVEL_CENTERS = 5      # P0..P4 are iterated with dynamics.step
FIELD_LEVEL_WALK = 2000      # every return of Q up to this index likewise
SAMPLED_GAPS = 3             # seeded return-to-return gaps beyond it


class OrbitPeriods:
    name = "orbit-periods"
    rate_name, rate_unit = "orbit_steps_per_s", "steps/s"
    sizes = {"full": {"max_n": 7, "budget": 400_000, "walk": 100_000},
             "small": {"max_n": 4, "budget": 2_000, "walk": 3_000}}

    def __init__(self, size: str):
        self.p = self.sizes[size]

    def ops(self, workdir: Path):
        p = self.p
        return [
            Op("golden", ("casestudy", "golden", "--table", "--max-n", str(p["max_n"]),
                          "--budget", str(p["budget"]), "--out", str(workdir / "golden.tsv")),
               ("golden.tsv",)),
            Op("returns", ("casestudy", "returns", "--n", str(p["walk"]),
                           "--out", str(workdir / "returns.tsv")),
               ("returns.tsv",)),
        ]

    def parse(self, files: dict):
        periods, centers = [], []
        for row in files["golden.tsv"].splitlines()[1:]:
            n, period, center = row.split("\t")
            if int(n) != len(periods):
                raise ValueError(f"golden table row {n} out of order")
            periods.append(int(period))
            centers.append(center)
        ctx = golden_context().ctx
        returns = []
        for row in files["returns.tsv"].splitlines()[1:]:
            idx, value = row.split("\t")
            returns.append((int(idx), parse_point(value, ctx)))
        return {"periods": periods, "centers": centers, "returns": returns}

    def work(self, parsed) -> int:
        """Exact orbit steps: the sum of the periods plus the walk length."""
        return sum(parsed["periods"]) + self.p["walk"]

    def checks(self):
        return [
            ("table_complete", self.check_table_complete),
            ("centers_field_level", self.check_centers_field_level),
            ("period_recurrence", self.check_period_recurrence),
            ("first_returns", self.check_first_returns),
            ("returns_field_level", self.check_returns_field_level),
            ("returns_sampled_gaps", self.check_returns_sampled_gaps),
        ]

    def check_table_complete(self, out, rng):
        want = self.p["max_n"] + 1
        centers = pentagon_centers(golden_context(), self.p["max_n"])
        problems = []
        if len(out["periods"]) != want:
            problems.append(f"{len(out['periods'])} table rows, want {want}")
        for n, (shown, z) in enumerate(zip(out["centers"], centers)):
            if shown != format_golden(z):
                problems.append(f"P{n} printed as {shown!r}")
        return problems

    def check_centers_field_level(self, out, rng):
        """P0..P4 return exactly at their period, not before, off the line."""
        problems = []
        centers = pentagon_centers(golden_context(), FIELD_LEVEL_CENTERS - 1)
        for n, (z0, period) in enumerate(zip(centers, out["periods"])):
            first = _first_return(z0, period)
            if first != period:
                problems.append(f"P{n}: table period {period}, field-level return {first}")
        return problems

    def check_period_recurrence(self, out, rng):
        """period(P_{n+1}) = 6*period(P_n) + 4*(-1)^n for n = 1..max_n-1."""
        per = out["periods"]
        return [
            f"recurrence fails at n={n}: {per[n]} -> {per[n + 1]}"
            for n in range(1, len(per) - 1)
            if per[n + 1] != 6 * per[n] + 4 * (-1) ** n
        ]

    def check_first_returns(self, out, rng):
        got = [(idx, golden_coords(val)) for idx, val in out["returns"][: len(Q_FIRST_RETURNS)]]
        want = [(idx, (Fraction(a), Fraction(b), 0, 0)) for idx, (a, b) in Q_FIRST_RETURNS]
        return [] if got == want else [f"first returns {got[:3]}... differ from criterion 2"]

    def check_returns_field_level(self, out, rng):
        """Every iterate of Q up to FIELD_LEVEL_WALK on the line is listed, at its
        index and with its exact value, and nothing else is listed there."""
        horizon = min(FIELD_LEVEL_WALK, self.p["walk"])
        listed = [(i, v) for i, v in out["returns"] if i <= horizon]
        seen = []
        z = golden_context().Q
        for i in range(horizon + 1):
            if sign_of_imag(z) == Sign.ZERO:
                seen.append((i, z))
            z = step(z)
        if listed == seen:
            return []
        first = next((a, b) for a, b in zip(listed + [None], seen + [None]) if a != b)
        return [f"returns up to {horizon}: listed {first[0]}, field-level {first[1]}"]

    def check_returns_sampled_gaps(self, out, rng):
        """From seeded listed returns beyond FIELD_LEVEL_WALK, field-level steps
        reach the next listed return at its index and value, and touch the
        line nowhere between."""
        rets = out["returns"]
        late = [k for k in range(len(rets) - 1) if rets[k][0] >= FIELD_LEVEL_WALK]
        if rets and rets[-1][0] > self.p["walk"]:
            return [f"return index {rets[-1][0]} beyond the walk"]
        if not late:
            return ["no returns beyond the field-level window"]
        problems = []
        for k in sorted(rng.sample(late, min(SAMPLED_GAPS, len(late)))):
            (i, z), (j, target) = rets[k], rets[k + 1]
            if sign_of_imag(z) != Sign.ZERO:
                problems.append(f"listed return {i} is off the line")
                continue
            for idx in range(i + 1, j + 1):
                z = step(z)
                if sign_of_imag(z) == Sign.ZERO:
                    break
            if (idx, z) != (j, target):
                problems.append(f"after return {i} the next line hit is {idx}, listed {j}")
        return problems


def _outcome(z0, budget):
    """The field-level counterpart of ``dynamics.minimal_period`` as
    ``tiles.scan_region`` reads it: ("critical", i) if iterate i < budget
    lies on the line before the orbit returns, else ("period", n) at the
    first return F^n(z0) == z0 with n <= budget, else ("budget", None)."""
    z = z0
    for i in range(budget):
        if sign_of_imag(z) == Sign.ZERO:
            return "critical", i
        z = step(z)
        if z == z0:
            return "period", i + 1
    return "budget", None


def _first_return(z0, limit):
    """First n <= limit with F^n(z0) == z0 by field-level steps, or None; an
    orbit touching the line counts as no return."""
    kind, n = _outcome(z0, limit)
    return n if kind == "period" else None


# -- tile-scan ------------------------------------------------------------------------

# Three rotations, field degrees 8, 4 and 12 (conductors 20, 12 and 28),
# shrunk from the SCANS grids of tests/test_acceptance.py so that one round
# takes seconds.  (alpha, box, grid step, budget).
SCAN_GRIDS = {
    "full": [("4/5", "-3,-3,3,3", "1", 3000),
             ("11/12", "-1,-1,3,2", "1/2", 1000),
             ("3/7", "-2,-2,2,2", "4/3", 3000)],
    "small": [("4/5", "-2,-2,2,2", "2", 3000),
              ("11/12", "-1,-1,3,2", "1", 1000),
              ("3/7", "-2,-2,2,2", "4", 3000)],
}
INTERIOR_SAMPLES = 2         # seeded interior points per tile


def _parse_num(ctx, coeffs):
    return ctx.num([Fraction(c) for c in coeffs])


class TileScan:
    name = "tile-scan"
    rate_name, rate_unit = "scan_points_per_s", "points/s"

    def __init__(self, size: str):
        self.grids = SCAN_GRIDS[size]

    def ops(self, workdir: Path):
        out = []
        for n, (alpha, box, grid, budget) in enumerate(self.grids):
            path = workdir / f"scan{n}.csv"
            out.append(Op(f"scan {alpha}", ("scan", "--alpha", alpha, f"--box={box}",
                                            "--grid", grid, "--budget", str(budget),
                                            "--out", str(path)),
                          (path.name, path.with_suffix(".json").name)))
        return out

    def parse(self, files: dict):
        scans = []
        for n, (alpha, box, grid, budget) in enumerate(self.grids):
            ctx = make_field(*parse_alpha(alpha))
            sidecar = json.loads(files[f"scan{n}.json"])
            tiles = [
                {
                    "ell": t["ell"], "k": t["k"], "interior_period": t["interior_period"],
                    "sides": t["sides"],
                    "center": _parse_num(ctx, t["center"]),
                    "vertices": [_parse_num(ctx, v) for v in t["vertices"]],
                }
                for t in sidecar["tiles"]
            ]
            rows = list(csv.DictReader(files[f"scan{n}.csv"].splitlines()))
            scans.append({"alpha": alpha, "ctx": ctx, "box": parse_box(box), "step": Fraction(grid),
                          "points": sum(1 for _ in _grid(parse_box(box), Fraction(grid))),
                          "budget": budget,
                          "outcomes": sidecar["outcomes"], "histogram": sidecar["histogram"],
                          "tiles": tiles, "rows": rows})
        return scans

    def work(self, parsed) -> int:
        """Grid points resolved, whatever their outcome."""
        return sum(s["points"] for s in parsed)

    def checks(self):
        return [
            ("grid_outcomes", self.check_grid_outcomes),
            ("csv_matches_sidecar", self.check_csv_matches_sidecar),
            ("side_bound", self.check_side_bound),
            ("edges_on_grid", self.check_edges_on_grid),
            ("convex", self.check_convex),
            ("center_period", self.check_center_period),
            ("interior_period", self.check_interior_period),
            ("vertex_cycle", self.check_vertex_cycle),
        ]

    def _per_tile(self, out, fn):
        return [f"{s['alpha']} tile {n}: {msg}"
                for s in out for n, t in enumerate(s["tiles"])
                for msg in fn(s["ctx"], t)]

    def check_grid_outcomes(self, out, rng):
        """The field-level outcome of every grid point: the outcome counts and
        the period histogram equal the sidecar's; every periodic point lies
        strictly inside exactly one listed tile and has its period; each
        tile holds as many grid points as its multiplicity."""
        problems = []
        for s in out:
            counts = {"period": 0, "critical": 0, "budget": 0}
            histogram, held = {}, [0] * len(s["tiles"])
            for x, y in _grid(s["box"], s["step"]):
                z = s["ctx"].point(x, y)
                kind, n = _outcome(z, s["budget"])
                counts[kind] += 1
                if kind != "period":
                    continue
                histogram[str(n)] = histogram.get(str(n), 0) + 1
                owners = [k for k, t in enumerate(s["tiles"]) if _strictly_inside(z, t["vertices"])]
                if len(owners) != 1:
                    problems.append(f"{s['alpha']}: a point of period {n} lies in {len(owners)} tiles")
                    continue
                t = s["tiles"][owners[0]]
                if n != t["interior_period"] and not (z == t["center"] and n == t["ell"]):
                    problems.append(f"{s['alpha']}: a point of period {n} lies in a tile of "
                                    f"ell {t['ell']}, interior period {t['interior_period']}")
                held[owners[0]] += 1
            if counts != s["outcomes"]:
                problems.append(f"{s['alpha']}: outcomes {s['outcomes']}, field-level {counts}")
            if histogram != s["histogram"]:
                problems.append(f"{s['alpha']}: period histogram {s['histogram']}, field-level {histogram}")
            if held != [int(r["multiplicity"]) for r in s["rows"]]:
                problems.append(f"{s['alpha']}: tiles hold {held} grid points, multiplicities differ")
        return problems

    def check_csv_matches_sidecar(self, out, rng):
        problems = []
        for s in out:
            if len(s["rows"]) != len(s["tiles"]):
                problems.append(f"{s['alpha']}: {len(s['rows'])} CSV rows, {len(s['tiles'])} tiles")
                continue
            for row, t in zip(s["rows"], s["tiles"]):
                c = t["center"].to_complex()
                same = (int(row["ell"]), int(row["k"]), int(row["sides"]), int(row["period"])) == (
                    t["ell"], t["k"], t["sides"], t["interior_period"])
                near = abs(float(row["center_re"]) - c.real) + abs(float(row["center_im"]) - c.imag) < 1e-9
                if not (same and near):
                    problems.append(f"{s['alpha']}: CSV row {row['tile']} disagrees with the sidecar")
        return problems

    def check_side_bound(self, out, rng):
        def one(ctx, t):
            bound = ctx.q if ctx.q % 2 == 0 else 2 * ctx.q
            n = len(t["vertices"])
            if n != t["sides"] or not 3 <= n <= bound:
                yield f"{n} vertices, {t['sides']} sides, bound {bound}"
        return self._per_tile(out, one)

    def check_edges_on_grid(self, out, rng):
        def one(ctx, t):
            for a, b in _edges(t["vertices"]):
                if not _on_rotation_grid(ctx, b - a):
                    yield "an edge is off the rotation grid"
                    return
        return self._per_tile(out, one)

    def check_convex(self, out, rng):
        def one(ctx, t):
            v = t["vertices"]
            turns = {_turn(v[i - 1], v[i], v[(i + 1) % len(v)]) for i in range(len(v))}
            if len(turns) != 1 or Sign.ZERO in turns:
                yield f"vertex turns {sorted(turns)} are not all strictly one way"
        return self._per_tile(out, one)

    def check_center_period(self, out, rng):
        def one(ctx, t):
            got = _first_return(t["center"], t["ell"])
            if got != t["ell"]:
                yield f"center returns at {got}, ell is {t['ell']}"
        return self._per_tile(out, one)

    def check_interior_period(self, out, rng):
        def one(ctx, t):
            for w in _interior_points(t, rng, INTERIOR_SAMPLES):
                got = _first_return(w, t["interior_period"])
                if got != t["interior_period"]:
                    yield f"interior point returns at {got}, not {t['interior_period']}"
        return self._per_tile(out, one)

    def check_vertex_cycle(self, out, rng):
        """F^ell, as the branch sequence of the center's orbit, permutes the
        vertex list by a cyclic shift."""
        def one(ctx, t):
            signs, z = [], t["center"]
            for _ in range(t["ell"]):
                signs.append(1 if sign_of_imag(z) >= Sign.ZERO else -1)
                z = step(z)
            lam = ctx.lambda_
            verts = t["vertices"]
            mapped = []
            for v in verts:
                for s in signs:
                    v = lam * (v - s)
                mapped.append(v)
            if not any(mapped == verts[r:] + verts[:r] for r in range(len(verts))):
                yield "F^ell does not shift the vertex cycle"
        return self._per_tile(out, one)


def _edges(verts):
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def _grid(box, step):
    """The grid points (x, y) of a scan, in the order scan_region walks them."""
    y = box.y0
    while y <= box.y1:
        x = box.x0
        while x <= box.x1:
            yield x, y
            x += step
        y += step


def _strictly_inside(z, verts) -> bool:
    """z lies strictly inside the convex polygon with these vertices in order."""
    sides = {sign_of_imag((b - a).conj() * (z - a)) for a, b in _edges(verts)}
    return len(sides) == 1 and Sign.ZERO not in sides


def _is_real(z) -> bool:
    return z == z.conj()


def _on_rotation_grid(ctx, d) -> bool:
    """d is a nonzero real multiple of some power of lambda."""
    return not d.is_zero() and any(_is_real(d * ctx.lam_pow(t).conj()) for t in range(ctx.q))


def _turn(a, b, c) -> Sign:
    """Sign of the cross product (b - a) x (c - b)."""
    return sign_of_imag((b - a).conj() * (c - b))


def _interior_points(t, rng, count):
    """Seeded rational convex combinations of the vertices with positive
    weights, hence strictly interior, other than the center."""
    out = []
    while len(out) < count:
        weights = [Fraction(rng.randint(1, 9)) for _ in t["vertices"]]
        total = sum(weights)
        w = sum((v * (c / total) for c, v in zip(weights, t["vertices"])), t["center"].ctx.zero())
        if w != t["center"]:
            out.append(w)
    return out


# -- critical-set -----------------------------------------------------------------------

# Two rotations and boxes, both directions, one depth.  (alpha, box).
CRITICAL_BOXES = [("4/5", "-4,-4,4,4"), ("11/12", "-1,-2,6,3")]
CRITICAL_DEPTH = {"full": 20, "small": 6}
DIRECTIONS = ("pullback", "forward")
LINE_SAMPLES = 50            # seeded points of the depth-0 line per box and direction


class CriticalSet:
    name = "critical-set"
    rate_name, rate_unit = "critical_layers_per_s", "layers/s"

    def __init__(self, size: str):
        self.depth = CRITICAL_DEPTH[size]

    def ops(self, workdir: Path):
        return [
            Op(f"critical {alpha}", ("critical", "--alpha", alpha, "--depth", str(self.depth),
                                     f"--box={box}", "--direction", "both", "--format", "json",
                                     "--out", str(workdir / f"critical{n}.json")),
               (f"critical{n}.json",))
            for n, (alpha, box) in enumerate(CRITICAL_BOXES)
        ]

    def parse(self, files: dict):
        bundles = []
        for n, (alpha, box) in enumerate(CRITICAL_BOXES):
            ctx = make_field(*parse_alpha(alpha))
            data = json.loads(files[f"critical{n}.json"])
            layers = [
                (layer["direction"], layer["depth"],
                 [(_parse_num(ctx, s["a"]), _parse_num(ctx, s["b"])) for s in layer["segments"]])
                for layer in data["layers"]
            ]
            bundles.append({"alpha": alpha, "ctx": ctx, "box": parse_box(box),
                            "truncated": data["truncated"], "layers": layers})
        return bundles

    def work(self, parsed) -> int:
        """Critical layers built: depth+1 per direction per box."""
        return len(CRITICAL_BOXES) * len(DIRECTIONS) * (self.depth + 1)

    def checks(self):
        return [
            ("layers_complete", self.check_layers_complete),
            ("segments_in_box", self.check_segments_in_box),
            ("directions_on_grid", self.check_directions_on_grid),
            ("midpoints_reach_line", self.check_midpoints_reach_line),
            ("line_images_listed", self.check_line_images_listed),
        ]

    def _segments(self, out):
        for b in out:
            for direction, depth, segs in b["layers"]:
                for a, z in segs:
                    yield b, direction, depth, a, z

    def check_layers_complete(self, out, rng):
        want = sorted((d, j) for d in DIRECTIONS for j in range(self.depth + 1))
        problems = []
        for b in out:
            got = sorted((d, j) for d, j, _ in b["layers"])
            if b["truncated"] or got != want:
                problems.append(f"{b['alpha']}: layers {got[:3]}..., truncated={b['truncated']}")
        return problems

    def check_segments_in_box(self, out, rng):
        return [f"{b['alpha']} {direction} depth {depth}: endpoint outside the box"
                for b, direction, depth, a, z in self._segments(out)
                if not (_in_box(a, b["box"]) and _in_box(z, b["box"]))]

    def check_directions_on_grid(self, out, rng):
        return [f"{b['alpha']} {direction} depth {depth}: direction off the rotation grid"
                for b, direction, depth, a, z in self._segments(out)
                if not _on_rotation_grid(b["ctx"], z - a)]

    def check_midpoints_reach_line(self, out, rng):
        """From each segment's exact midpoint, depth field-level steps
        (pullback) or inverse steps (forward) land exactly on the real axis."""
        problems = []
        for b, direction, depth, a, z in self._segments(out):
            w = (a + z) / 2
            move = step if direction == "pullback" else inverse_step
            for _ in range(depth):
                w = move(w)
            if not _is_real(w):
                problems.append(f"{b['alpha']} {direction} depth {depth}: midpoint misses the line")
        return problems

    def check_line_images_listed(self, out, rng):
        """From seeded rational points of the depth-0 line (the real axis over
        the box widened by the depth), field-level inverse steps (pullback) or
        steps (forward): every image in the box lies on a listed segment of
        its layer.  The program clips layer j to the box widened by
        depth - j, so an image counts only if its earlier images stayed in
        those windows; a direction whose sampled images all miss the box
        fails."""
        problems = []
        for b in out:
            box = b["box"]
            layers = {(d, j): segs for d, j, segs in b["layers"]}
            x0, x1 = box.x0 - self.depth, box.x1 + self.depth
            for direction in DIRECTIONS:
                move = inverse_step if direction == "pullback" else step
                hits = 0
                for _ in range(LINE_SAMPLES):
                    x = x0 + (x1 - x0) * Fraction(rng.randint(1, 999_999), 1_000_000)
                    z = b["ctx"].from_rational(x)
                    for j in range(1, self.depth + 1):
                        z = move(z)
                        if not _in_box(z, box.inflate(self.depth - j)):
                            break
                        if not _in_box(z, box):
                            continue
                        hits += 1
                        if not any(_on_segment(z, a, c) for a, c in layers.get((direction, j), ())):
                            problems.append(f"{b['alpha']} {direction} depth {j}: the image of "
                                            f"line point {x} is on no listed segment")
                if not hits:
                    problems.append(f"{b['alpha']} {direction}: no sampled line image lands in the box")
        return problems


def _in_box(w, box) -> bool:
    ctx = w.ctx
    re, im = (w + w.conj()) / 2, (w - w.conj()) * ctx.i_unit.conj() / 2
    return _within(re, box.x0, box.x1) and _within(im, box.y0, box.y1)


def _on_segment(z, a, b) -> bool:
    """z lies on the closed segment from a to b."""
    u = (z - a) * (b - a).conj()
    if sign_of_imag(u) != Sign.ZERO:
        return False
    along = (u + u.conj()) / 2
    return _within(along, 0, (b - a) * (b - a).conj())


def _within(x, lo, hi) -> bool:
    return sign_of_real(x - lo) != Sign.NEGATIVE and sign_of_real(x - hi) != Sign.POSITIVE


WORKLOADS = {w.name: w for w in (OrbitPeriods, TileScan, CriticalSet)}


def make(name: str, size: str = "full"):
    return WORKLOADS[name](size)


def run_checks(workload, parsed, seed: int):
    """{check name: problems}; each check draws from its own seeded stream."""
    return {
        name: fn(parsed, random.Random(f"{seed}:{name}"))
        for name, fn in workload.checks()
    }
