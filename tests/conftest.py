import os

# One BLAS thread, as in perfbench/run.py: the timed acceptance tests must
# not take threaded-OpenBLAS stalls.  numpy is not imported yet here.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

# Every run draws the same examples, so a property test cannot pass on one
# run and fail on the next.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
