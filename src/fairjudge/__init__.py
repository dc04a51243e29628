"""Batch audit engine for measuring judicial fairness of LLM sentencing predictions."""

import os

# One BLAS thread per process, set before numpy loads, so that no fit's last digits depend on the usable CPUs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
