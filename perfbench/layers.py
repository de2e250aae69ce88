"""Per-layer tracing of ``pwrot`` from outside the package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers and ``uninstall`` puts the originals back.  Modules import these
functions by name (``from .geometry import intersect_halfplanes``), so a
wrapper is bound wherever a ``pwrot`` module holds the original object, not
only where it is defined.  ``CycloNum`` methods are wrapped on the class.

Every call becomes a span (name, start, end, parent) kept in flat arrays in
memory; a span's self time is its duration minus the time its child spans
cover.  ``LAYER_METRICS`` lists the per-layer metrics computed from one round
of spans and counters.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import pwrot.casestudy
import pwrot.cli
import pwrot.critical
import pwrot.cyclo
import pwrot.dynamics
import pwrot.geometry
import pwrot.stepper
import pwrot.tiles

CONDUCTORS = (12, 20, 28)    # the fields of the tile-scan rotations 11/12, 4/5, 3/7

# (name, unit, better)
LAYER_METRICS = [
    ("stepper.run_period.steps", "steps", "higher"),
    ("stepper.run_period.steps_per_s", "steps/s", "higher"),
    ("stepper.run_signs.steps", "steps", "higher"),
    ("stepper.run_signs.steps_per_s", "steps/s", "higher"),
    ("stepper.run_signs.peak_alloc_mb", "MB", "lower"),
    ("dynamics.minimal_period.calls", "count", "lower"),
    ("dynamics.minimal_period.s", "s", "lower"),
    ("dynamics.itinerary.s", "s", "lower"),
    *[
        (f"cyclo.{op}.m{m}.{stat}", unit, "lower")
        for op in ("mul", "inverse", "sign")
        for m in CONDUCTORS
        for stat, unit in (("calls", "count"), ("us_per_call", "us"))
    ],
    ("cyclo.self_s", "s", "lower"),
    ("geometry.intersect_halfplanes.calls", "count", "lower"),
    ("geometry.intersect_halfplanes.constraints", "count", "lower"),
    ("geometry.intersect_halfplanes.ms_per_call", "ms", "lower"),
    ("geometry.intersect_halfplanes.self_s", "s", "lower"),
    ("geometry.clip_segment_to_box.calls", "count", "lower"),
    ("geometry.clip_segment_to_box.s", "s", "lower"),
    ("tiles.scan_region.self_s", "s", "lower"),
    ("tiles.tiles_built", "count", "lower"),
    ("tiles.dedup_hits", "count", "higher"),
    ("critical.pullback_layer.s", "s", "lower"),
    ("critical.forward_layer.s", "s", "lower"),
    ("critical.segments", "count", "lower"),
    ("casestudy.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _by_conductor(op):
    return lambda args: f"cyclo.{op}.m{args[0].ctx.m}"


def _count_run_period(counts, args, result):
    counts["stepper.run_period.steps"] += result.budget_used


def _count_run_signs(counts, args, result):
    counts["stepper.run_signs.steps"] += len(result[0])


def _count_constraints(counts, args, result):
    counts["geometry.intersect_halfplanes.constraints"] += len(args[0])


def _count_tiles(counts, args, result):
    built = len(result.tiles)
    counts["tiles.tiles_built"] += built
    counts["tiles.dedup_hits"] += sum(mult for _, mult in result.tiles.values()) - built


def _count_segments(counts, args, result):
    counts["critical.segments"] += len(result.all_segments())


# (owner, attribute, span name or a function of the call's arguments, counter)
TARGETS = [
    (pwrot.cli, "main", "cli.main", None),
    (pwrot.casestudy, "pentagon_center_periods", "casestudy.pentagon_center_periods", None),
    (pwrot.casestudy, "q_orbit_returns", "casestudy.q_orbit_returns", None),
    (pwrot.stepper, "run_period", "stepper.run_period", _count_run_period),
    (pwrot.stepper, "run_signs", "stepper.run_signs", _count_run_signs),
    (pwrot.dynamics, "minimal_period", "dynamics.minimal_period", None),
    (pwrot.dynamics, "itinerary", "dynamics.itinerary", None),
    (pwrot.cyclo.CycloNum, "__mul__", _by_conductor("mul"), None),
    (pwrot.cyclo.CycloNum, "inverse", _by_conductor("inverse"), None),
    (pwrot.cyclo, "sign_of_real", _by_conductor("sign"), None),
    (pwrot.cyclo, "sign_of_imag", _by_conductor("sign"), None),
    (pwrot.geometry, "intersect_halfplanes", "geometry.intersect_halfplanes", _count_constraints),
    (pwrot.geometry, "clip_segment_to_box", "geometry.clip_segment_to_box", None),
    (pwrot.tiles, "scan_region", "tiles.scan_region", _count_tiles),
    (pwrot.critical, "critical_bundle", "critical.critical_bundle", _count_segments),
    (pwrot.critical, "pullback_layer", "critical.pullback_layer", None),
    (pwrot.critical, "forward_layer", "critical.forward_layer", None),
]


def _owners():
    """Every object a pwrot function can be looked up on by name."""
    mods = [m for name, m in sys.modules.items() if name == "pwrot" or name.startswith("pwrot.")]
    return mods + [pwrot.cyclo.CycloNum]


class Tracer:
    """Spans and counters of one round; ``reset`` starts the next round."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._patches: list = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _label(self, label: str) -> int:
        ix = self._index.get(label)
        if ix is None:
            ix = self._index[label] = len(self.names)
            self.names.append(label)
        return ix

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, span_name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = span_name(args) if callable(span_name) else span_name
            span = len(self.start)
            self.name.append(self._label(label))
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _peak_alloc(self, fn):
        """Wrapper recording the largest tracemalloc peak of one call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                key = "stepper.run_signs.peak_alloc_mb"
                self.counts[key] = max(self.counts[key], peak)

        return wrapper

    def _rebind(self, original, replacement):
        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, replacement)

    def install(self):
        """Wrap every TARGETS function with a timing span."""
        for owner, attr, span_name, count in TARGETS:
            original = getattr(owner, attr)
            self._rebind(original, self._wrap(original, span_name, count))

    def install_peak_alloc(self):
        """Wrap only ``stepper.run_signs``, in tracemalloc; tracemalloc slows
        every allocation, so this runs in a round of its own, without spans."""
        original = pwrot.stepper.run_signs
        self._rebind(original, self._peak_alloc(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def spans(self) -> dict:
        """The round's spans as columns, for the trace file."""
        return {"names": list(self.names), "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist()}

    def totals(self):
        """{span name: (calls, total s, self s)} for the round."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, total, own = Counter(), Counter(), Counter()
        for i in range(n):
            label = self.names[self.name[i]]
            calls[label] += 1
            total[label] += dur[i]
            own[label] += dur[i] - child[i]
        return {k: (calls[k], total[k], own[k]) for k in calls}

    def metrics(self) -> dict:
        """The LAYER_METRICS of the round, but for the two that need rounds
        of their own: trace.overhead_pct and stepper.run_signs.peak_alloc_mb."""
        t = self.totals()
        c = self.counts

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return t.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return t.get(name, (0, 0.0, 0.0))[2]

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {
            "stepper.run_period.steps": c["stepper.run_period.steps"],
            "stepper.run_period.steps_per_s": ratio(c["stepper.run_period.steps"], total("stepper.run_period")),
            "stepper.run_signs.steps": c["stepper.run_signs.steps"],
            "stepper.run_signs.steps_per_s": ratio(c["stepper.run_signs.steps"], total("stepper.run_signs")),
            "dynamics.minimal_period.calls": calls("dynamics.minimal_period"),
            "dynamics.minimal_period.s": total("dynamics.minimal_period"),
            "dynamics.itinerary.s": total("dynamics.itinerary"),
            "cyclo.self_s": sum((own(k) for k in t if k.startswith("cyclo.")), 0.0),
            "geometry.intersect_halfplanes.calls": calls("geometry.intersect_halfplanes"),
            "geometry.intersect_halfplanes.constraints": c["geometry.intersect_halfplanes.constraints"],
            "geometry.intersect_halfplanes.ms_per_call": ratio(
                total("geometry.intersect_halfplanes"), calls("geometry.intersect_halfplanes"), 1e3),
            "geometry.intersect_halfplanes.self_s": own("geometry.intersect_halfplanes"),
            "geometry.clip_segment_to_box.calls": calls("geometry.clip_segment_to_box"),
            "geometry.clip_segment_to_box.s": total("geometry.clip_segment_to_box"),
            "tiles.scan_region.self_s": own("tiles.scan_region"),
            "tiles.tiles_built": c["tiles.tiles_built"],
            "tiles.dedup_hits": c["tiles.dedup_hits"],
            "critical.pullback_layer.s": total("critical.pullback_layer"),
            "critical.forward_layer.s": total("critical.forward_layer"),
            "critical.segments": c["critical.segments"],
            "casestudy.self_s": sum((own(k) for k in t if k.startswith("casestudy.")), 0.0),
            "cli.self_s": own("cli.main"),
            "trace.spans": len(self.start),
        }
        for op in ("mul", "inverse", "sign"):
            for m in CONDUCTORS:
                name = f"cyclo.{op}.m{m}"
                out[f"{name}.calls"] = calls(name)
                out[f"{name}.us_per_call"] = ratio(total(name), calls(name), 1e6)
        return out
