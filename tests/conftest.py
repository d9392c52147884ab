"""Test-session set-up: BLAS on one thread, as perfbench runs it.

The last bits of an LP's value and duals depend on the BLAS thread count,
because the dot products and np.linalg.solve in persuasion.lp go through
BLAS. Byte-identity checks therefore run at one fixed count. The variables
take effect only if they are set before numpy is first imported, which is
why they are set here, before any test module is collected.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
