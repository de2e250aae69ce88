"""``python -m pwrot``: the ``pwrot`` command line, for a tree that is not
installed (``PYTHONPATH=src python -m pwrot period --alpha 4/5 --point P0``)."""

import sys

from .cli import main

sys.exit(main())
