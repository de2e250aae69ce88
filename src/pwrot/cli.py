"""Command-line front end.

Commands: iterate, period, tile, critical, scan, casestudy, verify.
The rotation angle is always given as the fraction of a full turn:
``--alpha p/q`` means an angle of 2*pi*p/q (so 8*pi/5 is 4/5 and 11*pi/6 is
11/12).  Exit codes: 0 success, 2 budget exhausted, 3 falsified invariant,
4 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .casestudy import (
    golden_context,
    golden_rescale,
    hexagon_case,
    hexagon_context,
    pentagon_center_periods,
    q_orbit_returns,
)
from .critical import critical_bundle, merge_collinear
from .cyclo import CycloNum, format_golden, format_golden_coords, golden_coords, make_field
from .dynamics import address, minimal_period, orbit
from .errors import (
    BudgetExceededError,
    CriticalLineError,
    FalsifiedInvariantError,
    ParameterError,
    PwrotError,
)
from .geometry import Box, polygon_is_regular
from .pointexpr import parse_alpha, parse_box, parse_point
from .render import (
    Scene,
    bundle_scene,
    color_for_depth,
    orbit_scene,
    tiles_scene,
)
from .tiles import (interior_samples, scan_region, tile_from_seed, tile_images,
                    verify_polygon_bounds, verify_rotation_structure)

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_FALSIFIED = 3
EXIT_BAD_INPUT = 4


def _field(args):
    p, q = parse_alpha(args.alpha)
    return make_field(p, q)


def _emit(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fmt_value(z: CycloNum, style: str) -> str:
    if style == "phi":
        if z.ctx.m != 20:
            raise ParameterError("phi format needs a conductor-20 field (--alpha 4/5)")
        return format_golden(z)
    coords = golden_coords(z) if style == "pretty" and z.ctx.m == 20 else None
    return str(z) if coords is None else format_golden_coords(coords)


def _shadow(z: CycloNum):
    c = z.to_complex()
    return c.real, c.imag


# -- commands -----------------------------------------------------------------


def cmd_iterate(args) -> int:
    ctx = _field(args)
    z = parse_point(args.point, ctx)
    points = orbit(z, args.n)
    fmt = args.format
    if fmt == "csv":
        lines = ["index,re,im"]
        for i, w in enumerate(points):
            re, im = _shadow(w)
            lines.append(f"{i},{re!r},{im!r}")
        _emit("\n".join(lines) + "\n", args.out)
    elif fmt == "json":
        data = []
        for i, w in enumerate(points):
            re, im = _shadow(w)
            data.append(
                {
                    "index": i,
                    "coeffs": [str(c) for c in w.coeffs],
                    "re": re,
                    "im": im,
                    "address": address(w).char,
                }
            )
        _emit(json.dumps({"alpha": args.alpha, "orbit": data}, indent=1) + "\n", args.out)
    elif fmt == "svg":
        _emit(orbit_scene(points).to_svg(), args.out)
    else:
        lines = [
            f"{i}\t{_fmt_value(w, fmt)}\t{address(w).char}"
            for i, w in enumerate(points)
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_period(args) -> int:
    ctx = _field(args)
    z = parse_point(args.point, ctx)
    rec = minimal_period(z, args.budget)
    lines = []
    if rec.period is not None:
        lines.append(f"period {rec.period}")
    else:
        lines.append(f"no exact return within budget {args.budget}")
    if rec.iterates_on_line:
        lines.append("critical-line touches:")
        for idx, val in rec.iterates_on_line:
            lines.append(f"  {idx}\t{_fmt_value(val, 'pretty')}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if rec.period is not None else EXIT_BUDGET


def _tile_text(tile) -> str:
    cr, ci = _shadow(tile.center)
    lines = [
        f"ell {tile.ell}",
        f"k {tile.k}",
        f"interior period {tile.period}",
        f"sides {tile.sides}",
        f"regular {polygon_is_regular(tile.polygon)}",
        f"word {tile.word}",
        f"center {_fmt_value(tile.center, 'pretty')}  ~({cr:.12g}, {ci:.12g})",
        "vertices:",
    ]
    for v in tile.polygon.vertices:
        re, im = _shadow(v)
        lines.append(f"  {_fmt_value(v, 'pretty')}  ~({re:.12g}, {im:.12g})")
    return "\n".join(lines) + "\n"


def _tile_json(tile) -> dict:
    return {
        "ell": tile.ell,
        "k": tile.k,
        "interior_period": tile.period,
        "sides": tile.sides,
        "regular": polygon_is_regular(tile.polygon),
        "word": str(tile.word),
        "center": [str(c) for c in tile.center.coeffs],
        "center_shadow": _shadow(tile.center),
        "vertices": [[str(c) for c in v.coeffs] for v in tile.polygon.vertices],
        "vertex_shadows": [_shadow(v) for v in tile.polygon.vertices],
    }


def cmd_tile(args) -> int:
    ctx = _field(args)
    seed = parse_point(args.seed, ctx)
    tile = tile_from_seed(seed, args.budget)
    if args.format == "json":
        _emit(json.dumps(_tile_json(tile), indent=1) + "\n", args.out)
    elif args.format == "svg":
        images, _ = tile_images(tile)
        scene = Scene()
        for img in images:
            pts = [_shadow(v) for v in img.vertices]
            scene.add_polygon(pts, fill="#88bbdd", stroke="#333333", opacity=0.55)
        _emit(scene.to_svg(), args.out)
    else:
        _emit(_tile_text(tile), args.out)
    return EXIT_OK


def cmd_critical(args) -> int:
    ctx = _field(args)
    box = parse_box(args.box)
    bundle = critical_bundle(ctx, args.depth, box, direction=args.direction, cap=args.cap)
    if bundle.truncated:
        print(
            f"note: segment cap {args.cap} reached; deeper layers truncated",
            file=sys.stderr,
        )
    if args.format == "svg":
        segments = bundle.all_segments()
        if args.merge:
            segments = merge_collinear(ctx, segments)
            scene = Scene()
            for seg in segments:
                a, b = seg.a.to_complex(), seg.b.to_complex()
                scene.add_segment(a.real, a.imag, b.real, b.imag, color=color_for_depth(seg.depth))
            _emit(scene.to_svg(), args.out)
        else:
            _emit(bundle_scene(bundle).to_svg(), args.out)
    elif args.format == "json":
        data = [
            {
                "depth": layer.depth,
                "direction": layer.direction,
                "segments": [
                    {
                        "a": [str(c) for c in seg.a.coeffs],
                        "b": [str(c) for c in seg.b.coeffs],
                        "a_shadow": _shadow(seg.a),
                        "b_shadow": _shadow(seg.b),
                    }
                    for seg in layer.segments
                ],
            }
            for layer in bundle.layers
        ]
        _emit(json.dumps({"truncated": bundle.truncated, "layers": data}, indent=1) + "\n", args.out)
    else:
        lines = []
        for layer in bundle.layers:
            for seg in layer.segments:
                ar, ai = _shadow(seg.a)
                br, bi = _shadow(seg.b)
                lines.append(
                    f"{layer.depth}\t[{', '.join(str(c) for c in seg.a.coeffs)}]\t"
                    f"[{', '.join(str(c) for c in seg.b.coeffs)}]\t"
                    f"({ar:.12g},{ai:.12g})-({br:.12g},{bi:.12g})"
                )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _scan_csv(report, tiles) -> str:
    """The tile-inventory CSV, its rows taken from the sidecar's tile dicts."""
    lines = ["tile,ell,k,sides,regular,center_re,center_im,period,multiplicity"]
    for idx, (t, (_, mult)) in enumerate(zip(tiles, report.tiles.values())):
        cr, ci = t["center_shadow"]
        lines.append(
            f"{idx},{t['ell']},{t['k']},{t['sides']},"
            f"{t['regular']},{cr!r},{ci!r},{t['interior_period']},{mult}"
        )
    return "\n".join(lines) + "\n"


def _scan_sidecar(report) -> dict:
    outcomes = {"period": 0, "critical": 0, "budget": 0}
    for o in report.outcomes:
        outcomes[o.kind] += 1
    return {
        "grid": {
            "box": [str(report.box.x0), str(report.box.y0), str(report.box.x1), str(report.box.y1)],
            "step": str(report.step),
            "budget": report.budget,
        },
        "outcomes": outcomes,
        "histogram": {str(k): v for k, v in sorted(report.histogram.items())},
        "tiles": [_tile_json(t) for t, _ in report.tiles.values()],
    }


def cmd_scan(args) -> int:
    ctx = _field(args)
    box = parse_box(args.box)
    report = scan_region(
        ctx, box, Fraction(args.grid), args.budget, max_tile_period=args.max_tile_period
    )
    if args.format == "json":
        _emit(json.dumps(_scan_sidecar(report), indent=1) + "\n", args.out)
    elif args.format == "svg":
        _emit(tiles_scene(report.tile_list).to_svg(), args.out)
    else:
        sidecar = _scan_sidecar(report)
        _emit(_scan_csv(report, sidecar["tiles"]), args.out)
        if args.out:
            Path(args.out).with_suffix(".json").write_text(
                json.dumps(sidecar, indent=1) + "\n", encoding="utf-8"
            )
    return EXIT_OK


def cmd_casestudy(args) -> int:
    if args.which == "golden":
        gc = golden_context()
        rows = pentagon_center_periods(gc, args.max_n, args.budget)
        lines = ["n\tperiod\tcenter"]
        exhausted = False
        for n, p, period in rows:
            shown = period if period is not None else f"> {args.budget}"
            exhausted = exhausted or period is None
            lines.append(f"{n}\t{shown}\t{format_golden(p)}")
        _emit("\n".join(lines) + "\n", args.out)
        if args.svg:
            _golden_svg(gc, args.svg)
        return EXIT_BUDGET if exhausted else EXIT_OK
    if args.which == "returns":
        gc = golden_context()
        lines = ["index\tvalue"]
        for idx, val, pair in q_orbit_returns(gc, args.n):
            # pair holds the coordinates of a real return, already computed
            shown = format_golden(val) if pair is None else format_golden_coords((*pair, 0, 0))
            lines.append(f"{idx}\t{shown}")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    # hexagon
    report = hexagon_case(budget=args.budget)
    _emit(_report_text(report), args.out)
    if args.svg:
        _hexagon_svg(args.svg)
    return EXIT_OK if report.passed else EXIT_FALSIFIED


def _report_text(report) -> str:
    lines = [f"verification: {report.name}"]
    for label, ok, detail in report.checks:
        mark = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"  [{mark}] {label}{suffix}")
    lines.append("result: " + ("all checks passed" if report.passed else "FALSIFIED"))
    return "\n".join(lines) + "\n"


def _golden_svg(gc, path):
    """Nested-triangle figure: critical web, rescaled triangles, pentagon
    centers, the seven-cycle pentagons, and one full interior orbit."""
    scene = Scene()
    bundle = critical_bundle(gc.ctx, 12, Box(-2, Fraction(-1, 2), 3, Fraction(9, 2)))
    for layer in bundle.layers:
        for seg in layer.segments:
            a, b = seg.a.to_complex(), seg.b.to_complex()
            scene.add_segment(a.real, a.imag, b.real, b.imag, color="#bbbbbb", width=0.7)
    tri = [gc.Q, gc.S, gc.R]
    for n in range(3):
        pts = [_shadow(v) for v in tri]
        scene.add_polygon(pts, fill="none", stroke="#2255cc")
        tri = [golden_rescale(gc, v) for v in tri]
    p1 = golden_rescale(gc, gc.P0)
    seven = tile_from_seed(p1, 100)
    images, _ = tile_images(seven)
    for img in images:
        scene.add_polygon([_shadow(v) for v in img.vertices], fill="#cde6f5",
                          stroke="#336699", opacity=0.6)
    sample = interior_samples(seven, 1, seed=1)[0]
    for w in orbit(sample, 34):
        c = w.to_complex()
        scene.add_point(c.real, c.imag, color="#1f6fc4", radius=1.3)
    p = gc.P0
    for _ in range(4):
        c = p.to_complex()
        scene.add_point(c.real, c.imag, color="#cc2288", radius=3.0)
        p = golden_rescale(gc, p)
    Path(path).write_text(scene.to_svg(), encoding="utf-8")


def _hexagon_svg(path):
    hc = hexagon_context()
    tile = tile_from_seed(hc.center, 100)
    images, _ = tile_images(tile)
    scene = Scene()
    for img in images:
        pts = [_shadow(v) for v in img.vertices]
        scene.add_polygon(pts, fill="#ddaa33", stroke="#333333", opacity=0.5)
    Path(path).write_text(scene.to_svg(), encoding="utf-8")


def cmd_verify(args) -> int:
    ctx = _field(args)
    seed = parse_point(args.seed, ctx)
    tile = tile_from_seed(seed, args.budget)
    rep_a = verify_rotation_structure(tile, samples=args.samples, seed=args.sample_seed)
    rep_b = verify_polygon_bounds(tile)
    text = _report_text(rep_a) + _report_text(rep_b)
    _emit(text, args.out)
    return EXIT_OK if rep_a.passed and rep_b.passed else EXIT_FALSIFIED


# -- argument plumbing -----------------------------------------------------------


def _apply_config(args):
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    if not path.exists():
        raise ParameterError(f"config file {path} does not exist")
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if hasattr(args, key) and getattr(args, key) is None:
            if key in ("n", "depth", "budget", "cap", "max_n", "samples", "sample_seed",
                       "max_tile_period"):
                setattr(args, key, int(value))
            else:
                setattr(args, key, value)


def _add_common(sub, alpha=True):
    sub.add_argument("--config", help="key=value defaults file")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    if alpha:
        sub.add_argument("--alpha", help="rotation as a fraction p/q of a full turn")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwrot",
        description="Exact computations for the piecewise planar rotation "
        "F(z) = lambda*(z - H(z)) with lambda = exp(2*pi*i*p/q).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    it = subs.add_parser("iterate", help="print an exact orbit")
    _add_common(it)
    it.add_argument("--point", required=True)
    it.add_argument("--n", type=int, default=None)
    it.add_argument(
        "--format",
        choices=["pretty", "phi", "coeff", "csv", "json", "svg"],
        default="pretty",
    )
    it.set_defaults(func=cmd_iterate)

    pe = subs.add_parser("period", help="exact minimal period search")
    _add_common(pe)
    pe.add_argument("--point", required=True)
    pe.add_argument("--budget", type=int, default=None)
    pe.set_defaults(func=cmd_period)

    ti = subs.add_parser("tile", help="extract the tile of a periodic seed")
    _add_common(ti)
    ti.add_argument("--seed", required=True)
    ti.add_argument("--budget", type=int, default=None)
    ti.add_argument("--format", choices=["text", "json", "svg"], default="text")
    ti.set_defaults(func=cmd_tile)

    cr = subs.add_parser("critical", help="critical-set segment bundle")
    _add_common(cr)
    cr.add_argument("--depth", type=int, default=None)
    cr.add_argument("--box", required=False, default=None, help="x0,y0,x1,y1")
    cr.add_argument("--direction", choices=["pullback", "forward", "both"], default="pullback")
    cr.add_argument("--cap", type=int, default=None)
    cr.add_argument("--merge", action="store_true", help="merge collinear overlaps (svg)")
    cr.add_argument("--format", choices=["text", "json", "svg"], default="text")
    cr.set_defaults(func=cmd_critical)

    sc = subs.add_parser("scan", help="periods and tiles over a rational grid")
    _add_common(sc)
    sc.add_argument("--box", required=False, default=None)
    sc.add_argument("--grid", required=False, default=None, help="grid step, rational")
    sc.add_argument("--budget", type=int, default=None)
    sc.add_argument("--max-tile-period", type=int, default=None, dest="max_tile_period")
    sc.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    sc.set_defaults(func=cmd_scan)

    cs = subs.add_parser("casestudy", help="worked golden and hexagon cases")
    cs.add_argument("which", choices=["golden", "returns", "hexagon"])
    _add_common(cs, alpha=False)
    cs.add_argument("--table", action="store_true", help="(golden) print the period table")
    cs.add_argument("--max-n", type=int, default=None, dest="max_n")
    cs.add_argument("--n", type=int, default=None)
    cs.add_argument("--budget", type=int, default=None)
    cs.add_argument("--svg", help="also write a figure to this path")
    cs.set_defaults(func=cmd_casestudy)

    ve = subs.add_parser("verify", help="verify the permutation/rotation structure and polygon bounds of a tile")
    _add_common(ve)
    ve.add_argument("--seed", required=True)
    ve.add_argument("--budget", type=int, default=None)
    ve.add_argument("--samples", type=int, default=None)
    ve.add_argument("--sample-seed", type=int, default=None, dest="sample_seed")
    ve.set_defaults(func=cmd_verify)

    return parser


_DEFAULTS = {
    "n": 10,
    "budget": 100000,
    "depth": 10,
    "cap": 1000000,
    "max_n": 6,
    "samples": 5,
    "sample_seed": 0,
    "grid": "1/2",
    "box": "-3,-3,3,3",
    "alpha": None,
}


def _fill_defaults(args):
    if getattr(args, "command", None) == "casestudy" and args.which == "returns":
        if args.n is None:
            args.n = 220
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    if hasattr(args, "alpha") and args.alpha is None:
        raise ParameterError("--alpha p/q is required (e.g. 4/5 for 8*pi/5)")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 2 for
        # budget exhaustion, so usage problems become bad-input
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_BAD_INPUT
    try:
        _apply_config(args)
        _fill_defaults(args)
        return args.func(args)
    except BudgetExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except FalsifiedInvariantError as err:
        print(f"falsified invariant: {err}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (ParameterError, CriticalLineError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PwrotError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
