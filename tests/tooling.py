"""The set-up and helpers that the test suite and the seeded-run tools share.

Importing this module, before anything imports numpy, gives the process one
BLAS thread unless the caller set the thread variables, as the README's
performance note advises, and puts the checkout's src/ first on sys.path, so
its package runs even when another copy is installed.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

# BLAS reads these once, when numpy first loads; a caller's own setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def result_digest(res) -> str:
    """A hash of everything a solve returns: equal for two solves exactly when
    their trajectories are bit for bit the same."""
    h = hashlib.sha256(repr((res.trace, res.status.value, res.final_norm_v_sq)).encode())
    h.update(res.point.data.tobytes())
    return h.hexdigest()
