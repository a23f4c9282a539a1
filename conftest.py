"""Pin BLAS to one thread before numpy loads, for the whole suite.

At OpenBLAS's default thread count on a small machine, dense SVD and
eigensolver loops run several times slower than at one thread (IALM at
512 x 512 by about 2.8x on two cores), and the suite's timings with them.
A thread count set in the environment wins over this default.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread pin"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
