"""Build the compiled orbit kernel in place before the suite imports pwrot.

``setup.py build_ext --inplace`` puts the extension next to the sources, so
the suite runs the compiled kernel and its parity tests.  The extension is
optional: without a working C compiler the build exits 0 with no extension,
the suite runs on the pure kernel and those tests skip, so the suite warns
whenever ``pwrot.stepper`` finds no compiled kernel after the build.
"""

import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pytest_configure(config):
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True,
    )
    from pwrot import stepper

    if proc.returncode != 0 or not stepper.HAVE_COMPILED:
        warnings.warn(
            "compiled kernel not built: the suite runs on the pure kernel and "
            f"skips the compiled parity tests\n{proc.stderr}"
        )
