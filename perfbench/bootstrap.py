"""Process set-up shared by the benchmark and its set-up child.

Both must pin the BLAS/OpenMP thread counts before numpy is first imported,
and both must import `isoembed` from this checkout's `src/` by an absolute
path: nothing is installed, and a relative PYTHONPATH does not survive a
change of working directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import isoembed from SRC and refuse any other copy."""
    pkg = SRC / "isoembed"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no isoembed package at {pkg}")
    sys.path.insert(0, str(SRC))
    import isoembed

    if Path(isoembed.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported isoembed from {isoembed.__file__}, not {pkg}")
    return isoembed


def environment():
    """Pinned thread counts, numpy version and BLAS name, for the record."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }
