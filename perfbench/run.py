#!/usr/bin/env python3
"""Benchmark of the pwrot exact engine, end to end and layer by layer.

    python3 perfbench/run.py --workload orbit-periods --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source tree.  The program is built from that tree
(``setup.py build_ext --inplace``, which compiles the orbit kernel when its
toolchain is present) and imported from its ``src``.  A run repeats whole
rounds of one workload's ``pwrot`` commands, called in-process through
``pwrot.cli.main``, for about ``--seconds``, checks the outputs (see
``workloads.py``) and prints one JSON object as its last line: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of ``layers.py``.  Result and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import PROBE_PERIOD, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# (name, unit, better); work_per_s counts each workload's own unit of work:
# orbit steps, grid points or critical layers.
END_TO_END = [
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
# Fresh set-up processes before each round and after the last: the host's
# speed drifts in spells of seconds to minutes, so the samples are spread
# over the whole run, and setup_s is their median, scaled by the host's
# speed over the run.
SETUP_PER_ROUND = 4
# A fresh interpreter imports the command line, builds the golden-case field
# and its step plan (the first period search builds it) and prints the time.
SETUP_CODE = f"""
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {str(SRC)!r})
from fractions import Fraction
import pwrot.cli
from pwrot.cyclo import make_field
from pwrot.dynamics import minimal_period
minimal_period(make_field(4, 5).point(Fraction(1, 2), Fraction(1, 3)), 1)
print(time.perf_counter() - t0)
"""


def build() -> None:
    """Build the package in place from the source tree."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=840,
    )
    if proc.returncode != 0:
        sys.exit(f"build failed:\n{proc.stdout}{proc.stderr}")


def import_program():
    """Import pwrot from this tree's src, and nothing installed elsewhere."""
    if not (SRC / "pwrot" / "__init__.py").is_file():
        sys.exit(f"no pwrot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pwrot

    if Path(pwrot.__file__).resolve().parent != SRC / "pwrot":
        sys.exit(f"imported pwrot from {pwrot.__file__}, not from {SRC}")


def measure_setup(repeats: int) -> list[float]:
    """Set-up times of ``repeats`` fresh processes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"set-up run failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    from pwrot import stepper

    return {
        "kernel": stepper.active_impl(),
        "python": platform.python_version(),
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Runner:
    """Runs whole rounds of one workload and keeps what they produce."""

    def __init__(self, workload, workdir: Path, rng: random.Random, probe):
        self.workload = workload
        self.workdir = workdir
        self.rng = rng
        self.probe = probe
        self.scaled: list[float] = []        # round times scaled by the host's speed
        self.attempted = 0
        self.failed = 0
        self.outputs: dict | None = None     # files of the first complete round
        self.mismatches: list[str] = []

    def round(self) -> float:
        """One round in seeded order; returns the wall time of its ``pwrot``
        calls, and keeps that time scaled by the host's speed."""
        import pwrot.cli

        ops = self.workload.ops(self.workdir)
        self.rng.shuffle(ops)
        files, complete, elapsed, scaled = {}, True, 0.0, 0.0
        for op in ops:
            for name in op.outputs:
                (self.workdir / name).unlink(missing_ok=True)
            self.attempted += 1
            self.probe.start()
            try:
                rc = pwrot.cli.main(list(op.argv))
            except Exception:
                traceback.print_exc()
                rc = None
            measured, op_scaled = self.probe.stop()
            elapsed += measured
            scaled += op_scaled
            if rc != 0:
                self.failed += 1
                complete = False
                print(f"operation {op.label!r} failed with exit code {rc}", file=sys.stderr)
                continue
            for name in op.outputs:
                files[name] = (self.workdir / name).read_text(encoding="utf-8")
        if complete:
            if self.outputs is None:
                self.outputs = files
            elif files != self.outputs:
                self.mismatches.append(f"outputs of round {self.attempted // len(ops)} differ from the first round's")
        self.scaled.append(scaled)
        return elapsed

    def rounds(self, seconds: float, before=None, after=None) -> list[float]:
        """Whole rounds until another would run past ``seconds``; at least one.
        ``before`` and ``after`` are called around each round, outside its time."""
        times = []
        t0 = time.perf_counter()
        while True:
            if before:
                before()
            times.append(self.round())
            if after:
                after()
            if time.perf_counter() - t0 + statistics.median(times) > seconds:
                return times


def check(workload, runner: Runner, seed: int):
    """(correct, work per round, {check: problems})."""
    if runner.outputs is None:
        return False, 0, {"complete_round": ["no round ran every operation"]}
    from workloads import run_checks

    try:
        parsed = workload.parse(runner.outputs)
    except (ValueError, KeyError) as err:
        return False, 0, {"parse": [repr(err)]}
    results = run_checks(workload, parsed, seed)
    if runner.mismatches:
        results["rounds_agree"] = runner.mismatches
    return not any(results.values()), workload.work(parsed), results


def traced_rounds(runner: Runner, seconds: float):
    """Whole traced rounds for about ``seconds``, then one round measuring the
    memory of ``stepper.run_signs`` when the workload calls it.

    Returns (per-layer metrics, the medians over the traced rounds; traced
    round times; the spans of the last traced round).
    """
    from layers import Tracer

    tracer = Tracer()
    per_round = []
    tracer.install()
    try:
        times = runner.rounds(seconds, before=tracer.reset,
                              after=lambda: per_round.append(tracer.metrics()))
        spans = tracer.spans()
    finally:
        tracer.uninstall()
    layer = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    tracer.reset()
    if layer["stepper.run_signs.steps"]:
        tracer.install_peak_alloc()
        try:
            runner.round()
        finally:
            tracer.uninstall()
    layer["stepper.run_signs.peak_alloc_mb"] = tracer.counts["stepper.run_signs.peak_alloc_mb"]
    return layer, times, spans


def run(workload_name: str, seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    """One run; returns its record, also written to ``OUT``."""
    from layers import LAYER_METRICS
    import workloads

    workload = workloads.make(workload_name, size)
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "size": size, "environment": environment()}
    if not traced:
        measure_setup(1)    # warms the caches and writes the bytecode, as an install has it
        record["setup_s"] = []
    # the traced run samples the host's speed only after each command, so the
    # probe adds nothing to the layers' times
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{workload_name}-") as tmp, \
            Probe(period=0 if traced else PROBE_PERIOD) as probe:
        runner = Runner(workload, Path(tmp), random.Random(seed), probe)
        if traced:
            # untraced rounds first: the tracing overhead is measured against them
            times = runner.rounds(seconds / 2)
            layer, record["traced_round_s"], spans = traced_rounds(runner, seconds / 2)
            layer["trace.overhead_pct"] = 100 * (
                statistics.median(record["traced_round_s"]) / statistics.median(times) - 1)
            (OUT / f"trace-{workload_name}-seed{seed}.json").write_text(json.dumps(spans), encoding="utf-8")
        else:
            times = runner.rounds(seconds, before=lambda: record["setup_s"].extend(
                measure_setup(SETUP_PER_ROUND)))
            record["setup_s"].extend(measure_setup(SETUP_PER_ROUND))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        correct, work, results = check(workload, runner, seed)
    record.update(round_s=times, scaled_round_s=runner.scaled, probe_samples=probe.samples,
                  work_per_round=work, checks=results,
                  attempted=runner.attempted, failed=runner.failed, correct=correct)
    if traced:
        values, names = layer, LAYER_METRICS
    else:
        # all the work over all the time, scaled by the host's speed
        # (speed.py); the measured figures are kept in the record
        record["measured_work_per_s"] = work * len(times) / sum(times)
        record["measured_setup_s"] = statistics.median(record["setup_s"])
        values = {"work_per_s": work * len(times) / sum(runner.scaled),
                  "peak_rss_mb": peak_rss_mb,
                  "setup_s": record["measured_setup_s"] * sum(runner.scaled) / sum(times)}
        names = END_TO_END
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit, _ in names}
    (OUT / f"result-{workload_name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(record: dict, workload) -> None:
    """Human-readable lines ahead of the JSON result."""
    env = record["environment"]
    print(f"{record['workload']}: kernel {env['kernel']}, Python {env['python']}, "
          f"{env['cores']} cores, {len(record['round_s'])} rounds of "
          + ", ".join(f"{t:.3f}" for t in record["round_s"]) + " s")
    if "traced_round_s" in record:
        print("  traced rounds of " + ", ".join(f"{t:.3f}" for t in record["traced_round_s"]) + " s")
    for name, problems in record["checks"].items():
        print(f"  check {name}: " + ("ok" if not problems else f"FAILED {problems[:3]}"))
    print(f"  operations attempted {record['attempted']}, failed {record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "work_per_s" in record["metrics"]:
        print(f"  ({workload.rate_name} = {record['metrics']['work_per_s']['value']:.6g} {workload.rate_unit})")
        print(f"  (measured, not scaled by the host's speed: {record['measured_work_per_s']:.6g} {workload.rate_unit},"
              f" setup_s {record['measured_setup_s']:.6g} s)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["orbit-periods", "tile-scan", "critical-set"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one untraced and one traced round of each workload, small inputs")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required without --smoke")
    build()
    import_program()
    import workloads

    if args.smoke:
        ok = True
        for name in workloads.WORKLOADS:
            for traced in (False, True):
                record = run(name, args.seed, 0, traced, size="small")
                report(record, workloads.make(name, "small"))
                ok = ok and record["correct"] and not record["failed"]
        print("smoke:", "ok" if ok else "FAILED")
        return 0 if ok else 1
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record, workloads.make(args.workload))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
