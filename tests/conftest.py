"""Pin BLAS threads for the test suite.

The GP tests run many small triangular solves and matrix products, which
OpenBLAS's default of one thread per core makes slower and less steady.
numpy is not yet imported when pytest loads this file, so the settings take
effect; a value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
