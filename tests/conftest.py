"""Pin BLAS to one thread before numpy loads.

The n=3 solves multiply small matrices; with more than one OpenBLAS
thread those threads spin-wait on each product, which made the n=3 tests
about twice as slow on 2 cores.  setdefault keeps a value that the caller
exported.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
