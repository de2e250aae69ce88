"""Build the compiled orbit kernel in place before the suite imports pwrot.

The extension is built next to the sources, so the suite runs the compiled
kernel and its parity tests.  Whether to build is decided by content, not
by modification time: the SHA-256 of ``setup.py`` and ``_stepkernel.c`` is
kept beside the extension (``<extension>.sha256``), and the build runs only
when it differs or the extension is missing.  So a source restored with an
older modification time (by ``mv``, ``cp -p`` or an archive), which
setuptools' own up-to-date check would skip, cannot leave a stale extension,
and an unchanged source costs no build.  The build goes to a scratch folder
under ``build/`` and is moved into place with ``os.replace``: a suite that
has the old extension loaded, such as a second session in the same tree,
keeps its file, which is never overwritten in place.  The extension is
optional: without a working C compiler the build exits 0 with no
extension, the suite runs on the pure kernel and those tests skip, so the
suite warns whenever ``pwrot.stepper`` finds no compiled kernel after the
build.

The ``exact_enclosures`` fixture widens the error of every
``CycloNum.enclosure``, so that no enclosure decides a sign,
``exact_predicates`` makes ``geometry._decide`` decide nothing, so that
every enclosed predicate takes its exact test, and ``enclosures_computed``
lists the values whose enclosure is computed.

Tests marked ``long`` (multi-minute exact-orbit runs) skip unless the
environment sets PWROT_LONG.
"""

import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _build_kernel():
    """Build the extension unless the digest beside it matches its sources.

    Returns None, or what a failed build wrote to stderr; a failed build
    removes the old extension, which no longer matches its sources."""
    target = ROOT / "src" / "pwrot" / ("_stepkernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    stamp = target.with_name(target.name + ".sha256")
    digest = hashlib.sha256(
        b"".join((ROOT / f).read_bytes() for f in ("setup.py", "src/pwrot/_stepkernel.c"))
    ).hexdigest()
    if target.exists() and stamp.exists() and stamp.read_text() == digest:
        return None
    (ROOT / "build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "build") as tmp:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--force",
             "--build-lib", tmp, "--build-temp", os.path.join(tmp, "temp")],
            cwd=ROOT, capture_output=True, text=True,
        )
        built = Path(tmp) / "pwrot" / target.name
        if proc.returncode != 0 or not built.exists():
            target.unlink(missing_ok=True)
            return proc.stderr
        os.replace(built, target)
    stamp.write_text(digest)
    return None


def pytest_configure(config):
    stderr = _build_kernel()
    from pwrot import stepper

    if stderr is not None or not stepper.HAVE_COMPILED:
        warnings.warn(
            "compiled kernel not built: the suite runs on the pure kernel and "
            f"skips the compiled parity tests\n{stderr or ''}"
        )


@pytest.fixture
def exact_enclosures(monkeypatch):
    """Every ``CycloNum.enclosure`` returns an error past any value its sums
    can bound.  That is still a sound enclosure, only a useless one: no
    sign is decided from it, so every window face and box face of a
    critical layer takes its exact test, as do the tile build's predicates
    that read an enclosure.  A critical layer's splits read no enclosure:
    ``FieldContext.sign`` certifies them on the integer sine rows.  The sums are taken afresh from a copy of the
    value, so an enclosure a long-lived value kept before the fixture is
    widened too, and none is kept under it."""
    from pwrot.cyclo import CycloNum

    enclosure = CycloNum.enclosure

    def widened(self):
        x, y, err, s = enclosure(CycloNum(self.ctx, self.vec, self.den))
        return x, y, (err + abs(x) + abs(y) + s) << 64, s

    monkeypatch.setattr(CycloNum, "enclosure", widened)


@pytest.fixture
def exact_predicates(monkeypatch):
    """``geometry._decide`` leaves every sign open, so no integer enclosure
    decides a predicate of the tile build, the half-plane sweep's tests
    included, and each takes its exact test."""
    from pwrot import geometry

    monkeypatch.setattr(geometry, "_decide", lambda t, err: None)


@pytest.fixture
def enclosures_computed(monkeypatch):
    """The values whose ``CycloNum.enclosure`` is computed, not read from
    what the value kept, while the test runs."""
    from pwrot.cyclo import CycloNum

    enclosure, computed = CycloNum.enclosure, []

    def counted(self):
        if self._enclosure is None:
            computed.append(self)
        return enclosure(self)

    monkeypatch.setattr(CycloNum, "enclosure", counted)
    return computed


def pytest_collection_modifyitems(config, items):
    if os.environ.get("PWROT_LONG"):
        return
    skip = pytest.mark.skip(reason="long run; set PWROT_LONG=1")
    for item in items:
        if item.get_closest_marker("long"):
            item.add_marker(skip)
