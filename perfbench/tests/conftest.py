"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests`` from
the root of a checkout.  They import the benchmark modules and hopfcross
from ``src/`` directly."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
