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

from . import _steppy
from .casestudy import (
    golden_context,
    golden_rescale,
    hexagon_case,
    pentagon_center_periods,
    q_orbit_returns,
)
from .critical import critical_bundle, merge_collinear
from .cyclo import CycloNum, format_golden, fraction_str, make_field, sign_of_imag
from .dynamics import minimal_period, orbit
from .errors import BudgetExceededError, ParameterError, PwrotError
from .geometry import Box, polygon_is_regular
from .pointexpr import parse_alpha, parse_box, parse_point, parse_rational
from .render import orbit_scene, polygon_scene, segment_scene, tiles_scene
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
    if style == "phi" and z.ctx.m != 20:
        raise ParameterError("phi format needs a conductor-20 field (--alpha 4/5)")
    return format_golden(z) if style != "coeff" and z.ctx.m == 20 else str(z)


def _coeff_strs(z: CycloNum) -> list[str]:
    """``str(c)`` for each rational coefficient c of z, written from the
    integer vector with one gcd per coefficient."""
    return [fraction_str(x, z.den) for x in z.vec]


_quote = json.encoder.encode_basestring_ascii  # the encoder's own string writer


def _coeff_json(z: CycloNum, sep: str) -> str:
    """z's coefficient strings as the items of a JSON list, ``sep`` apart."""
    return sep.join(map(_quote, _coeff_strs(z)))


_SIGN_CHARS = "-0+"  # a sign s is written as _SIGN_CHARS[s + 1]


def _word_text(word) -> str:
    """A word of +1 and -1 as its '+' and '-' text."""
    return "".join(_SIGN_CHARS[s + 1] for s in word)


def _shadow(z: CycloNum):
    c = z.to_complex()
    return c.real, c.imag


def _note_touch_cap(touches):
    """Note on stderr that a touch list reached the cap of both kernels."""
    if len(touches) >= _steppy.TOUCH_CAP:
        print(f"note: touch cap {_steppy.TOUCH_CAP} reached; later critical-line touches"
              " not listed", file=sys.stderr)


# The JSON outputs are the text the standard encoder's dumps(data, indent=1)
# + "\n" writes for their dicts (it runs in pure Python whenever an indent is
# given), written from these templates: strings by ``_quote`` (the sign text
# of a branch or a word needs no escape), ints by %d and the float shadows,
# which are finite, by ``float.__repr__`` (%r), as the encoder writes them.
# An orbit point, at the depth of "orbit"'s items:
_POINT_JSON = ('  {\n   "index": %d,\n   "coeffs": [\n    %s\n   ],\n   "re": %r,\n'
               '   "im": %r,\n   "address": "%s"\n  }')
# a tile, at the top level (a scan sidecar nests it two levels deeper):
_TILE_JSON = (
    '{\n "ell": %d,\n "k": %d,\n "interior_period": %d,\n "sides": %d,\n "regular": %s,\n'
    ' "word": "%s",\n "center": [\n  %s\n ],\n "center_shadow": [\n  %r,\n  %r\n ],\n'
    ' "vertices": [\n  %s\n ],\n "vertex_shadows": [\n  %s\n ]\n}'
)
# a scan sidecar:
_SCAN_JSON = (
    '{\n "grid": {\n  "box": [\n   %s,\n   %s,\n   %s,\n   %s\n  ],\n  "step": %s,\n'
    '  "budget": %d\n },\n "outcomes": {\n  "period": %d,\n  "critical": %d,\n'
    '  "budget": %d\n },\n "histogram": %s,\n "tiles": %s\n}\n'
)
# a critical segment, four levels deep:
_SEGMENT_JSON = (
    '    {\n     "a": [\n      %s\n     ],\n     "b": [\n      %s\n     ],\n'
    '     "a_shadow": [\n      %r,\n      %r\n     ],\n'
    '     "b_shadow": [\n      %r,\n      %r\n     ]\n    }'
)


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
        # an orbit holds at least its first point, so "orbit" is never empty
        body = ",\n".join(_POINT_JSON % (i, _coeff_json(w, ",\n    "), *_shadow(w),
                                          _SIGN_CHARS[sign_of_imag(w) + 1])
                          for i, w in enumerate(points))
        _emit(f'{{\n "alpha": {_quote(args.alpha)},\n "orbit": [\n{body}\n ]\n}}\n', args.out)
    elif fmt == "svg":
        _emit(orbit_scene(points).to_svg(), args.out)
    else:
        lines = [f"{i}\t{_fmt_value(w, fmt)}\t{_SIGN_CHARS[sign_of_imag(w) + 1]}"
                 for i, w in enumerate(points)]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_period(args) -> int:
    ctx = _field(args)
    z = parse_point(args.point, ctx)
    rec = minimal_period(z, args.budget)
    _note_touch_cap(rec.iterates_on_line)
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


def _tile_values(tile):
    """(ell, k, sides, regular, center shadow): what a tile's text, its JSON
    and a scan's CSV row write, each computed once per tile."""
    ell, k = tile.ell, tile.k
    return ell, k, len(tile.polygon), polygon_is_regular(tile.polygon), _shadow(tile.center)


def _tile_text(tile) -> str:
    ell, k, sides, regular, (cr, ci) = _tile_values(tile)
    lines = [f"ell {ell}", f"k {k}", f"interior period {k * ell}", f"sides {sides}",
             f"regular {regular}", f"word {_word_text(tile.word)}",
             f"center {_fmt_value(tile.center, 'pretty')}  ~({cr:.12g}, {ci:.12g})", "vertices:"]
    for v in tile.polygon.vertices:
        re, im = _shadow(v)
        lines.append(f"  {_fmt_value(v, 'pretty')}  ~({re:.12g}, {im:.12g})")
    return "\n".join(lines) + "\n"


def _json_tile(tile, values) -> str:
    """The tile's JSON at the top level, written from ``_TILE_JSON`` with its
    ``_tile_values``; a polygon has at least three vertices."""
    ell, k, sides, regular, (cr, ci) = values
    verts = tile.polygon.vertices
    coeffs = ",\n  ".join("[\n   %s\n  ]" % _coeff_json(v, ",\n   ") for v in verts)
    shadows = ",\n  ".join("[\n   %r,\n   %r\n  ]" % _shadow(v) for v in verts)
    return _TILE_JSON % (ell, k, k * ell, sides, "true" if regular else "false",
                         _word_text(tile.word), _coeff_json(tile.center, ",\n  "), cr, ci,
                         coeffs, shadows)


def cmd_tile(args) -> int:
    ctx = _field(args)
    seed = parse_point(args.seed, ctx)
    tile = tile_from_seed(seed, args.budget)
    if args.format == "json":
        _emit(_json_tile(tile, _tile_values(tile)) + "\n", args.out)
    elif args.format == "svg":
        images, _ = tile_images(tile)
        _emit(polygon_scene((img.vertices for img in images), "#88bbdd", opacity=0.55).to_svg(),
              args.out)
    else:
        _emit(_tile_text(tile), args.out)
    return EXIT_OK


def _per_endpoint(write):
    """``write`` called once per distinct endpoint: segments share endpoints,
    and a bundle has one field, so an endpoint's (vec, den) keys its text (a
    tuple hashes in C, where a ``CycloNum`` key costs a Python ``__hash__``
    and ``__eq__`` per lookup)."""
    written = {}

    def point(z):
        got = written.get((z.vec, z.den))
        if got is None:
            got = written[z.vec, z.den] = write(z)
        return got

    return point


def _critical_json(bundle) -> str:
    """The bundle's JSON, {"truncated": ..., "layers": [{"depth",
    "direction", "segments"}, ...]}, each segment {"a", "b": its coefficient
    strings, "a_shadow", "b_shadow": its float shadows} written from
    ``_SEGMENT_JSON``.  Each distinct endpoint is written once
    (``_per_endpoint``)."""
    point = _per_endpoint(lambda z: (_coeff_json(z, ",\n      "), _shadow(z)))
    layers = []
    for layer in bundle.layers:
        segs = []
        for seg in layer.segments:
            (a, a_shadow), (b, b_shadow) = point(seg.a), point(seg.b)
            segs.append(_SEGMENT_JSON % (a, b, *a_shadow, *b_shadow))
        body = "[\n" + ",\n".join(segs) + "\n   ]" if segs else "[]"
        layers.append(f'  {{\n   "depth": {layer.depth},\n   "direction": '
                      f'{_quote(layer.direction)},\n   "segments": {body}\n  }}')
    truncated = "true" if bundle.truncated else "false"
    # a bundle always holds its depth-0 layers, so "layers" is never empty
    return f'{{\n "truncated": {truncated},\n "layers": [\n' + ",\n".join(layers) + "\n ]\n}\n"


def cmd_critical(args) -> int:
    ctx = _field(args)
    box = parse_box(args.box)
    bundle = critical_bundle(ctx, args.depth, box, direction=args.direction, cap=args.cap)
    if bundle.truncated:
        print(f"note: segment cap {args.cap} reached; deeper layers truncated", file=sys.stderr)
    if args.format == "svg":
        segments = bundle.all_segments()
        if args.merge:
            segments = merge_collinear(ctx, segments)
        _emit(segment_scene(segments).to_svg(), args.out)
    elif args.format == "json":
        _emit(_critical_json(bundle), args.out)
    else:
        point = _per_endpoint(lambda z: (f"[{', '.join(_coeff_strs(z))}]",
                                         "({:.12g},{:.12g})".format(*_shadow(z))))
        lines = []
        for layer in bundle.layers:
            for seg in layer.segments:
                (a, a_shadow), (b, b_shadow) = point(seg.a), point(seg.b)
                lines.append(f"{layer.depth}\t{a}\t{b}\t{a_shadow}-{b_shadow}\n")
        # a bundle with no segment writes nothing
        _emit("".join(lines), args.out)
    return EXIT_OK


def _scan_json(report, tiles) -> str:
    """The scan sidecar, written from ``_SCAN_JSON``; ``tiles`` holds each
    listed tile with its ``_tile_values`` and multiplicity."""
    outcomes = {"period": 0, "critical": 0, "budget": 0}
    for o in report.outcomes:
        outcomes[o.kind] += 1
    hist = ",\n".join(f'  "{p}": {n}' for p, n in sorted(report.histogram.items()))
    body = ",\n".join("  " + _json_tile(t, values).replace("\n", "\n  ") for t, values, _ in tiles)
    hist = "{\n" + hist + "\n }" if hist else "{}"
    body = "[\n" + body + "\n ]" if body else "[]"
    b = report.box
    return _SCAN_JSON % (*(_quote(str(x)) for x in (b.x0, b.y0, b.x1, b.y1, report.step)),
                         report.budget, *outcomes.values(), hist, body)


def cmd_scan(args) -> int:
    ctx = _field(args)
    box = parse_box(args.box)
    if args.format == "csv" and args.out and Path(args.out).suffix.lower() == ".json":
        raise ParameterError(f"--out {args.out}: the CSV and its JSON sidecar would both be "
                             "written there; give the CSV another suffix")
    report = scan_region(
        ctx, box, parse_rational(args.grid), args.budget, max_tile_period=args.max_tile_period
    )
    if args.format == "svg":
        _emit(tiles_scene(report.tile_list).to_svg(), args.out)
        return EXIT_OK
    tiles = [(t, _tile_values(t), mult) for t, mult in report.tiles.values()]
    if args.format == "json":
        _emit(_scan_json(report, tiles), args.out)
        return EXIT_OK
    lines = ["tile,ell,k,sides,regular,center_re,center_im,period,multiplicity"]
    for idx, (_, (ell, k, sides, regular, (cr, ci)), mult) in enumerate(tiles):
        lines.append(f"{idx},{ell},{k},{sides},{regular},{cr!r},{ci!r},{k * ell},{mult}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        # the sidecar is written only beside a CSV file, not after one on stdout
        Path(args.out).with_suffix(".json").write_text(_scan_json(report, tiles),
                                                       encoding="utf-8")
    return EXIT_OK


def cmd_casestudy(args) -> int:
    # the figure is written before the table or report, so a path that
    # cannot be written exits 4 with nothing on stdout
    if args.which == "golden":
        gc = golden_context()
        rows = pentagon_center_periods(gc, args.max_n, args.budget)
        if args.svg:
            _golden_svg(gc, args.svg)
        lines = ["n\tperiod\tcenter"]
        exhausted = False
        for n, p, period in rows:
            shown = period if period is not None else f"> {args.budget}"
            exhausted = exhausted or period is None
            lines.append(f"{n}\t{shown}\t{format_golden(p)}")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_BUDGET if exhausted else EXIT_OK
    if args.which == "returns":
        returns = q_orbit_returns(golden_context(), args.n)
        _note_touch_cap(returns)
        lines = ["index\tvalue"] + [f"{idx}\t{format_golden(val)}" for idx, val in returns]
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    # hexagon
    report = hexagon_case(budget=args.budget)
    if args.svg:
        _hexagon_svg(report.tile, args.svg)
    _emit(_report_text(report), args.out)
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
    bundle = critical_bundle(gc.ctx, 12, Box(-2, Fraction(-1, 2), 3, Fraction(9, 2)))
    scene = segment_scene(bundle.all_segments(), color="#bbbbbb", width=0.7)
    triangles = [[gc.Q, gc.S, gc.R]]
    for _ in range(2):
        triangles.append([golden_rescale(gc, v) for v in triangles[-1]])
    polygon_scene(triangles, "none", "#2255cc", scene=scene)
    seven = tile_from_seed(golden_rescale(gc, gc.P0), 100)
    images, _ = tile_images(seven)
    polygon_scene((img.vertices for img in images), "#cde6f5", "#336699", 0.6, scene)
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


def _hexagon_svg(tile, path):
    images, _ = tile_images(tile)
    scene = polygon_scene((img.vertices for img in images), "#ddaa33", opacity=0.5)
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


def _parse_args(parser, argv):
    """The parsed arguments.  The ``key = value`` lines of a --config file
    act as flags placed before those of the command line, so a flag given
    there wins and each value is converted and checked like its flag; a
    switch takes true or false, and keys the command does not have are
    ignored."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ParameterError(f"config file {path} cannot be read: {err}") from None
        flags = []
        for line in text.splitlines():
            key, eq, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if not eq or key in ("command", "which", "func", "config") or not hasattr(args, key):
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(getattr(args, key), bool):  # a switch
                if value.lower() not in ("true", "false"):
                    raise ParameterError(f"config key {key} needs true or false, got {value!r}")
                if value.lower() == "true":
                    flags.append(flag)
            else:
                flags.append(f"{flag}={value}")
        try:
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        except SystemExit:
            raise ParameterError(f"config file {path} holds a bad value (above)") from None
    if hasattr(args, "alpha") and args.alpha is None:
        raise ParameterError("--alpha p/q is required (e.g. 4/5 for 8*pi/5)")
    return args


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
    it.add_argument("--n", type=int, default=10)
    it.add_argument(
        "--format",
        choices=["pretty", "phi", "coeff", "csv", "json", "svg"],
        default="pretty",
    )
    it.set_defaults(func=cmd_iterate)

    pe = subs.add_parser("period", help="exact minimal period search")
    _add_common(pe)
    pe.add_argument("--point", required=True)
    pe.add_argument("--budget", type=int, default=100000)
    pe.set_defaults(func=cmd_period)

    ti = subs.add_parser("tile", help="extract the tile of a periodic seed")
    _add_common(ti)
    ti.add_argument("--seed", required=True)
    ti.add_argument("--budget", type=int, default=100000)
    ti.add_argument("--format", choices=["text", "json", "svg"], default="text")
    ti.set_defaults(func=cmd_tile)

    cr = subs.add_parser("critical", help="critical-set segment bundle")
    _add_common(cr)
    cr.add_argument("--depth", type=int, default=10)
    cr.add_argument("--box", default="-3,-3,3,3", help="x0,y0,x1,y1")
    cr.add_argument("--direction", choices=["pullback", "forward", "both"], default="pullback")
    cr.add_argument("--cap", type=int, default=1000000,
                    help="segments per direction, counted on the windowed layers "
                         "before the box re-clip; the layer past it and deeper ones are dropped")
    cr.add_argument("--merge", action="store_true", help="merge collinear overlaps (svg)")
    cr.add_argument("--format", choices=["text", "json", "svg"], default="text")
    cr.set_defaults(func=cmd_critical)

    sc = subs.add_parser("scan", help="periods and tiles over a rational grid")
    _add_common(sc)
    sc.add_argument("--box", default="-3,-3,3,3", help="x0,y0,x1,y1")
    sc.add_argument("--grid", default="1/2", help="grid step, rational")
    sc.add_argument("--budget", type=int, default=100000)
    sc.add_argument("--max-tile-period", type=int, default=None, dest="max_tile_period")
    sc.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    sc.set_defaults(func=cmd_scan)

    cs = subs.add_parser("casestudy", help="worked golden and hexagon cases")
    cs.add_argument("which", choices=["golden", "returns", "hexagon"])
    _add_common(cs, alpha=False)
    cs.add_argument("--table", action="store_true",
                    help="(golden) no effect, kept for existing scripts: "
                    "the table is always printed")
    cs.add_argument("--max-n", type=int, default=6, dest="max_n")
    cs.add_argument("--n", type=int, default=220, help="(returns) steps of the orbit of Q")
    cs.add_argument("--budget", type=int, default=100000)
    cs.add_argument("--svg", help="also write a figure to this path")
    cs.set_defaults(func=cmd_casestudy)

    ve = subs.add_parser("verify", help="verify the permutation/rotation structure and polygon bounds of a tile")
    _add_common(ve)
    ve.add_argument("--seed", required=True)
    ve.add_argument("--budget", type=int, default=100000)
    ve.add_argument("--samples", type=int, default=5)
    ve.add_argument("--sample-seed", type=int, default=0, dest="sample_seed")
    ve.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(build_parser(), argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors; our contract reserves 2 for
            # budget exhaustion, so usage problems become bad-input
            return EXIT_OK if exc.code in (0, None) else EXIT_BAD_INPUT
        return args.func(args)
    except BudgetExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (PwrotError, OSError) as err:
        # an OSError comes from a path given by --out or --svg, or a scan sidecar's
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
