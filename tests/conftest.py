"""Pin BLAS and OpenMP to one thread before numpy loads.

At OpenBLAS's default of one thread per core, every batch-128 matmul in
the agent tests wakes threads that contend with whatever else runs on the
machine. A value already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
