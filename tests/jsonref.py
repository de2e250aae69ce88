"""The dicts (and the CSV) that the command line's JSON writers stand for,
built as the writers built them before they wrote from templates: the
reference that each writer's bytes are checked against, through
``json.dumps(data, indent=1) + "\\n"``."""

from pwrot.cyclo import Sign, sign_of_imag
from pwrot.geometry import polygon_is_regular


def coeff_strs(z) -> list[str]:
    return [str(c) for c in z.coeffs]


def shadow(z) -> tuple[float, float]:
    c = z.to_complex()
    return c.real, c.imag


def orbit_dict(alpha: str, points) -> dict:
    """What `iterate --format json` writes for an orbit."""
    return {
        "alpha": alpha,
        "orbit": [
            {
                "index": i,
                "coeffs": coeff_strs(w),
                "re": shadow(w)[0],
                "im": shadow(w)[1],
                "address": {Sign.POSITIVE: "+", Sign.NEGATIVE: "-", Sign.ZERO: "0"}[sign_of_imag(w)],
            }
            for i, w in enumerate(points)
        ],
    }


def tile_dict(tile) -> dict:
    """What `tile --format json` writes, and a scan sidecar lists per tile."""
    return {
        "ell": tile.ell,
        "k": tile.k,
        "interior_period": tile.period,
        "sides": tile.sides,
        "regular": polygon_is_regular(tile.polygon),
        "word": "".join("+" if s > 0 else "-" for s in tile.word),
        "center": coeff_strs(tile.center),
        "center_shadow": shadow(tile.center),
        "vertices": [coeff_strs(v) for v in tile.polygon.vertices],
        "vertex_shadows": [shadow(v) for v in tile.polygon.vertices],
    }


def scan_sidecar(report) -> dict:
    """What `scan --format json` writes, and `scan --out` beside its CSV."""
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
        "tiles": [tile_dict(t) for t, _ in report.tiles.values()],
    }


def scan_csv(report) -> str:
    """The tile-inventory CSV of `scan`, its rows read from the sidecar's
    tile dicts."""
    lines = ["tile,ell,k,sides,regular,center_re,center_im,period,multiplicity"]
    for idx, (t, mult) in enumerate(report.tiles.values()):
        d = tile_dict(t)
        cr, ci = d["center_shadow"]
        lines.append(f"{idx},{d['ell']},{d['k']},{d['sides']},{d['regular']},{cr!r},{ci!r},"
                     f"{d['interior_period']},{mult}")
    return "\n".join(lines) + "\n"
