"""The benchmark's per-layer tracer still fits the package.

``perfbench/layers.py`` wraps package functions by name, so a rename that
leaves the package working would break only the traced benchmark.  These
tests load that file as it is, check that every function it wraps exists,
and run a few small commands under its tracer.
"""

import importlib.util
from pathlib import Path

import pytest

import pwrot.cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(layers):
    for owner, attr, _, _ in layers.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_commands_count_every_layer(layers, capsys):
    commands = [
        ("scan", "--alpha", "4/5", "--box=-1,-1,1,1", "--grid", "1", "--format", "json"),
        ("casestudy", "golden", "--table", "--max-n", "3", "--budget", "1000"),
        ("casestudy", "returns", "--n", "100"),
        ("critical", "--alpha", "4/5", "--depth", "3", "--direction", "both",
         "--format", "json"),
    ]
    tracer = layers.Tracer()
    tracer.install()
    try:
        codes = [pwrot.cli.main(list(argv)) for argv in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    assert not any(hasattr(getattr(owner, attr), "__wrapped__")
                   for owner, attr, _, _ in layers.TARGETS)
    metrics = tracer.metrics()
    for name in ("stepper.run_period.steps", "stepper.run_signs.steps",
                 "geometry.intersect_halfplanes.calls", "critical.segments", "cli.self_s"):
        assert metrics[name] > 0, name
