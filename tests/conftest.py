import os

# one BLAS thread, as the README advises for timing: set before anything
# imports numpy, whose BLAS reads these once when it loads; a caller's own
# setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
