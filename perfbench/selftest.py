#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload, one round on small inputs must pass every check; then
each check is fed one corrupted copy of that output and must fail on it.
Last, ``BENCHMARK.json`` must name the workloads and per-layer metrics the
code defines.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run


def _tile(p):
    return p[0]["tiles"][0]


def _move_vertex(p):
    t = _tile(p)
    t["vertices"][0] = t["vertices"][0] + p[0]["ctx"].point(Fraction(1, 7), Fraction(1, 11))


def _swap_vertices(p):
    v = _tile(p)["vertices"]
    v[0], v[1] = v[1], v[0]


def _bump(key):
    def corrupt(p):
        _tile(p)[key] += 1
    return corrupt


def _set_period(n, delta):
    def corrupt(p):
        p["periods"][n] += delta
    return corrupt


def _replace_return(k, index_delta=0, value_delta=0):
    def corrupt(p):
        idx, value = p["returns"][k]
        p["returns"][k] = (idx + index_delta, value + value_delta)
    return corrupt


def _miss_late_returns(p):
    """A walk that misses every other return past the field-level window."""
    from workloads import FIELD_LEVEL_WALK

    early = [r for r in p["returns"] if r[0] < FIELD_LEVEL_WALK]
    late = [r for r in p["returns"] if r[0] >= FIELD_LEVEL_WALK]
    if len(late) < 3:
        raise AssertionError("too few late returns to corrupt")
    p["returns"] = early + late[::2]


def _segment(p, depth):
    for direction, d, segs in p[0]["layers"]:
        if d == depth and segs:
            return p[0]["ctx"], segs
    raise AssertionError(f"no segment at depth {depth}")


def _shift_segment(depth, move_a, move_b):
    def corrupt(p):
        ctx, segs = _segment(p, depth)
        a, b = segs[0]
        segs[0] = (a + move_a(ctx), b + move_b(ctx))
    return corrupt


def _drop_layer(p):
    p[0]["layers"].pop()


def _empty_layers(p):
    for b in p:
        b["layers"] = [(direction, depth, []) for direction, depth, _ in b["layers"]]


def _empty_tiles(p):
    for s in p:
        s["tiles"], s["rows"] = [], []


def _bump_outcome(kind):
    def corrupt(p):
        p[0]["outcomes"][kind] += 1
    return corrupt


def _zero(ctx):
    return ctx.zero()


def _off_grid(ctx):
    return ctx.point(Fraction(1, 7), Fraction(1, 11))


def _off_line(ctx):
    return ctx.point(0, Fraction(1, 97))


def _outside(ctx):
    return ctx.from_rational(100)


# workload -> check -> corruption of the parsed output, or a tuple of them
CORRUPTIONS = {
    "orbit-periods": {
        "table_complete": lambda p: p["centers"].__setitem__(2, p["centers"][3]),
        "centers_field_level": _set_period(3, +1),
        "period_recurrence": _set_period(-1, +1),
        "first_returns": _replace_return(5, index_delta=1),
        "returns_field_level": _replace_return(2, value_delta=1),
        "returns_sampled_gaps": _miss_late_returns,
    },
    "tile-scan": {
        "grid_outcomes": (_bump_outcome("critical"), _empty_tiles),
        "csv_matches_sidecar": lambda p: p[0]["rows"][0].__setitem__("ell", str(int(p[0]["rows"][0]["ell"]) + 1)),
        "side_bound": _bump("sides"),
        "edges_on_grid": _move_vertex,
        "convex": _swap_vertices,
        "center_period": _bump("ell"),
        "interior_period": _bump("interior_period"),
        "vertex_cycle": _move_vertex,
    },
    "critical-set": {
        "layers_complete": _drop_layer,
        "segments_in_box": _shift_segment(1, _outside, _outside),
        "directions_on_grid": _shift_segment(2, _zero, _off_grid),
        "midpoints_reach_line": _shift_segment(3, _off_line, _zero),
        "line_images_listed": _empty_layers,
    },
}


def main() -> int:
    run.build()
    run.import_program()
    import layers
    import workloads

    failures = []

    def verdict(label, ok):
        print(f"{'ok' if ok else 'FAILED'}  {label}")
        if not ok:
            failures.append(label)

    run.OUT.mkdir(exist_ok=True)
    for name, corruptions in CORRUPTIONS.items():
        workload = workloads.make(name, "small")
        checks = dict(workload.checks())
        verdict(f"{name}: every check has a corruption", set(checks) == set(corruptions))
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp, run.Probe(period=0) as probe:
            runner = run.Runner(workload, Path(tmp), random.Random(0), probe)
            runner.round()
        if runner.outputs is None:
            verdict(f"{name}: one round on small inputs", False)
            continue
        clean = workloads.run_checks(workload, workload.parse(runner.outputs), 0)
        for check, problems in clean.items():
            verdict(f"{name}: {check} passes on the program's output {problems[:2]}", not problems)
        for check, corrupts in corruptions.items():
            for corrupt in corrupts if isinstance(corrupts, tuple) else (corrupts,):
                parsed = workload.parse(runner.outputs)
                corrupt(parsed)
                problems = checks[check](parsed, random.Random(0))
                verdict(f"{name}: {check} fails on a corrupted output ({problems[:1]})", bool(problems))

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    verdict("BENCHMARK.json names the defined workloads",
            [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    verdict("BENCHMARK.json names the defined end-to-end metrics",
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END)
    verdict("BENCHMARK.json names the defined per-layer metrics",
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.LAYER_METRICS)
    print("selftest:", "ok" if not failures else f"{len(failures)} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
