"""Benchmark of stiefelprox: workloads, tracing and the run.py entry point."""

# BLAS thread variables the benchmark pins before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
