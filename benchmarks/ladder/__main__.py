"""``python -m benchmarks.ladder``: same as ``benchmarks/ladder/run.py``."""

import sys

from benchmarks.ladder.run import main

sys.exit(main())
