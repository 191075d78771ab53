import os
import sys
from pathlib import Path

# one BLAS thread, as the README advises for timing: set before anything
# imports numpy, whose BLAS reads these once when it loads; a caller's own
# setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# allow running the suite from a fresh checkout without installing
_src = Path(__file__).resolve().parent.parent / "src"
if str(_src) not in sys.path:
    try:
        import stiefelprox  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_src))
