"""Backtesting laboratory for concentrated-liquidity range management."""

import os

__version__ = "0.1.0"

# BLAS and OpenMP thread counts, which set the speed of every matmul. The
# lab's matrices are small, so each defaults to one thread; a value already
# set is kept. This takes effect only if ammlab is imported before numpy.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ.setdefault(_var, "1")
