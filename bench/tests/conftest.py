import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

# numpy reads the BLAS thread settings once, on first import; importing run
# pins them as in the workload processes
import run  # noqa: E402,F401
