"""Build the compiled orbit kernel in place before the suite imports pwrot.

With a C compiler on the path, ``setup.py build_ext --inplace`` puts the
extension next to the sources, so the suite runs the compiled kernel and its
parity tests.  Without one, or if the build fails, the suite runs on the
pure kernel and those tests skip.
"""

import shutil
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pytest_configure(config):
    if shutil.which("cc") is None:
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        warnings.warn(f"compiled kernel not built:\n{proc.stderr}")
