# the BLAS threads and the src/ path, set before any test module imports numpy
import tooling  # noqa: F401
