"""Minimal deterministic SVG emission for orbits, tiles, and critical layers.

Every element is added with numeric shadows of exact data; the writer only
maps world coordinates to the viewport, so identical inputs give identical
bytes.
"""

from __future__ import annotations

DEPTH_PALETTE = [
    "#4477aa", "#66ccee", "#228833", "#ccbb44", "#ee6677",
    "#aa3377", "#bbbbbb", "#222255", "#225555", "#553322",
]

PERIOD_PALETTE = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#999999", "#dede00", "#00ced1",
]


def color_for_depth(depth: int) -> str:
    return DEPTH_PALETTE[depth % len(DEPTH_PALETTE)]


def color_for_period(period: int) -> str:
    return PERIOD_PALETTE[period % len(PERIOD_PALETTE)]


class Scene:
    """World-coordinate drawing list, drawn to the padded bounds of what it
    holds."""

    def __init__(self):
        self.segments: list = []
        self.polygons: list = []
        self.points: list = []

    def add_segment(self, x1, y1, x2, y2, color="#444444", width=1.0):
        self.segments.append((float(x1), float(y1), float(x2), float(y2), color, width))

    def add_polygon(self, pts, fill="none", stroke="#000000", opacity=1.0):
        self.polygons.append(([(float(x), float(y)) for x, y in pts], fill, stroke, opacity))

    def add_point(self, x, y, color="#000000", radius=2.5):
        self.points.append((float(x), float(y), color, radius))

    def _bounds(self):
        xs, ys = [], []
        for x1, y1, x2, y2, _, _ in self.segments:
            xs += [x1, x2]
            ys += [y1, y2]
        for pts, _, _, _ in self.polygons:
            xs += [p[0] for p in pts]
            ys += [p[1] for p in pts]
        for x, y, _, _ in self.points:
            xs.append(x)
            ys.append(y)
        if not xs:
            return (-1.0, -1.0, 1.0, 1.0)
        pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
        return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)

    def to_svg(self) -> str:
        """The scene as SVG, 800 units along its longer side."""
        x0, y0, x1, y1 = self._bounds()
        span = max(x1 - x0, y1 - y0)
        scale = 800 / span if span else 1.0
        width = (x1 - x0) * scale
        height = (y1 - y0) * scale

        def sx(x):
            return (x - x0) * scale

        def sy(y):
            return (y1 - y) * scale

        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
            f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
            f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="#ffffff"/>',
        ]
        for pts, fill, stroke, opacity in self.polygons:
            coords = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in pts)
            out.append(
                f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
                f'stroke-width="1" fill-opacity="{opacity:.3f}"/>'
            )
        for x1s, y1s, x2s, y2s, color, w in self.segments:
            out.append(
                f'<line x1="{sx(x1s):.3f}" y1="{sy(y1s):.3f}" x2="{sx(x2s):.3f}" '
                f'y2="{sy(y2s):.3f}" stroke="{color}" stroke-width="{w:.2f}"/>'
            )
        for x, y, color, r in self.points:
            out.append(
                f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="{r:.2f}" fill="{color}"/>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"


def segment_scene(segments, color=None, width=1.0) -> Scene:
    """Exact segments in order, each in ``color`` or else in the color of its
    depth."""
    scene = Scene()
    for seg in segments:
        a, b = seg.a.to_complex(), seg.b.to_complex()
        scene.add_segment(a.real, a.imag, b.real, b.imag,
                          color=color or color_for_depth(seg.depth), width=width)
    return scene


def polygon_scene(polygons, fill, stroke="#333333", opacity=1.0, scene=None) -> Scene:
    """Exact polygons in order, each given by its vertices, added to
    ``scene`` or to a new one."""
    scene = Scene() if scene is None else scene
    for vertices in polygons:
        pts = [(c.real, c.imag) for c in (v.to_complex() for v in vertices)]
        scene.add_polygon(pts, fill=fill, stroke=stroke, opacity=opacity)
    return scene


def tiles_scene(tiles) -> Scene:
    """Each tile's polygon in the color of its period, with its center."""
    scene = Scene()
    for tile in tiles:
        polygon_scene([tile.polygon.vertices], color_for_period(tile.period), opacity=0.55,
                      scene=scene)
        c = tile.center.to_complex()
        scene.add_point(c.real, c.imag, color="#000000", radius=1.6)
    return scene


def orbit_scene(points) -> Scene:
    scene = Scene()
    for z in points:
        c = z.to_complex()
        scene.add_point(c.real, c.imag, color="#1f6fc4", radius=2.0)
    return scene
