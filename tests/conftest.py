"""Build the compiled orbit kernel in place before the suite imports pwrot.

``setup.py build_ext --inplace`` puts the extension next to the sources, so
the suite runs the compiled kernel and its parity tests.  The extension is
optional: without a working C compiler the build only warns, the suite runs
on the pure kernel and those tests skip.
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
    if proc.returncode != 0:
        warnings.warn(f"compiled kernel not built:\n{proc.stderr}")
