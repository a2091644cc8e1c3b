"""Summary statistics and the machine description recorded with each result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
from pathlib import Path

# The tail percentile is the highest one that still has this many samples
# strictly above it, so it never rests on a handful of outliers.
TAIL_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Tail of a latency sample: (value, percentile, samples beyond it).

    The value is the sorted sample at position n - beyond - 1, the highest
    one with `beyond` samples above it; its percentile is 100 * (n - beyond)
    / n.  With `beyond` samples or fewer there is no such position, and the
    maximum is returned with the count of samples above it, zero.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, 0
    pos = n - beyond - 1
    return ordered[pos], 100.0 * (pos + 1) / n, n - 1 - pos


def peak_rss_mb() -> float:
    """Peak resident memory of this process; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count OpenBLAS will use, read from the library numpy loaded."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_info(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
