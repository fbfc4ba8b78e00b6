"""Process set-up shared by the benchmark scripts; imports nothing heavy.

BLAS/OpenMP threads are pinned before numpy is first imported, because
OpenBLAS reads the variables once, when it loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin threads and put the checkout's ``src`` first on the import path.

    Returns False when the checkout holds no magcone sources, so the caller
    can fail instead of importing some other installed copy.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SOURCE / "magcone" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SOURCE))
    return True


def provenance() -> dict:
    """Versions and thread settings the numbers depend on."""
    import platform

    import numpy
    import scipy

    def blas_version(module) -> str:
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return f"{deps['blas']['name']} {deps['blas']['version']}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }
