"""Pin BLAS to one thread before numpy loads.

The n=3 solves multiply small matrices.  An earlier solver, which solved
every Klein block, ran about twice as slow with two OpenBLAS threads on
2 cores, because the threads spin-wait on each product.  Since only the
blocks that can hold a listed level are solved, two threads measure no
slower (met-aff (1, 1) at N=13 and N=23), but the lowest n=3 values can
move in their last digits with the thread count, so the pin keeps tier-1
from depending on the host's default.  setdefault keeps a value that the
caller exported.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
