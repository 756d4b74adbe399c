import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# The benchmark's BLAS setting (see run.cap_blas_threads), set before numpy
# is imported: the iteration counts the tests expect depend on it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
