"""Views of check reports and case-study data that only the tests read."""

from pwrot.geometry import make_polygon


def failures(report):
    """The (label, detail) of each failed check of a ``tiles.CheckReport``."""
    return [(label, detail) for label, ok, detail in report.checks if not ok]


def golden_triangle(gc):
    """The triangle QSR of a ``casestudy.GoldenContext``, as a polygon."""
    return make_polygon([gc.Q, gc.S, gc.R])
