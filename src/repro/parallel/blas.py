"""Keep numpy's BLAS on one thread while the estimators compute.

The CATE solves multiply matrices of a few thousand rows by tens of columns,
one block after another on the calling thread.  OpenBLAS splits such a
product over every CPU, and its worker threads spin between calls instead of
sleeping, so on a two-CPU host an explain keeps the second core busy and
still runs slower than with one BLAS thread: stackoverflow n=2000, one
``WHERE Continent = 'Europe' GROUP BY Country`` explain took 141 ms at two
BLAS threads (1.95 CPU-seconds per second) against 110 ms at one.
Parallelism in this program belongs to the morsel pool and the mining
threads, not to BLAS.

:func:`single_threaded_blas` sets numpy's OpenBLAS to one thread for the
duration of a block and restores the previous count when the last
overlapping block (on any thread) leaves.  Where numpy's BLAS is not an
OpenBLAS this module can find, the context manager does nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

from repro.analysis.lockwatch import named_lock

#: Thread-count entry points of the OpenBLAS builds numpy ships or links,
#: as (setter, getter) symbol names.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _find_controls():
    """(setter, getter) of numpy's OpenBLAS thread count, or ``None``."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                get = getattr(lib, getter)
                get.restype = ctypes.c_int
                return getattr(lib, setter), get
    return None


_CONTROLS = _find_controls()


class _Limiter:
    """Reference count of open :func:`single_threaded_blas` blocks."""

    def __init__(self):
        self._lock = named_lock("_BlasLimiter._lock")
        self._depth = 0  # guarded-by: _lock
        self._saved = 1  # guarded-by: _lock

    def enter(self) -> None:
        with self._lock:
            if self._depth == 0:
                set_threads, get_threads = _CONTROLS
                self._saved = get_threads()
                if self._saved != 1:
                    set_threads(1)
            self._depth += 1

    def exit(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved != 1:
                _CONTROLS[0](self._saved)


_LIMITER = _Limiter()


def blas_controllable() -> bool:
    """True when :func:`single_threaded_blas` can set numpy's BLAS threads."""
    return _CONTROLS is not None


def blas_threads() -> int | None:
    """numpy's current BLAS thread count (``None`` when not controllable)."""
    return _CONTROLS[1]() if _CONTROLS is not None else None


@contextmanager
def single_threaded_blas():
    """Run the block with numpy's BLAS on one thread (see module docstring)."""
    if _CONTROLS is None:
        yield
        return
    _LIMITER.enter()
    try:
        yield
    finally:
        _LIMITER.exit()
