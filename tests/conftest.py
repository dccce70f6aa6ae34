"""Test-session setup shared by every test module.

Some tests pin report bytes, and a dense inverse's last digits can depend on
how many threads the BLAS splits it over.  One thread is what CI and the
benchmark use; set it here, before numpy is first imported, unless the
environment already chose.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
