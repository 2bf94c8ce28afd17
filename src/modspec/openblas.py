"""Thread counts of the two OpenBLAS thread pools in the process.

numpy's wheel bundles ``libscipy_openblas64_``, which serves ``@`` and
``np.linalg``; scipy's bundles ``libscipy_openblas``, which serves
``scipy.linalg.lapack``, ``scipy.linalg.blas`` and ARPACK.  Each has its own
pool, read and set here through ctypes on an extension module that links it.
A build that does not export the thread-count functions is left alone:
``threads`` then returns None and ``one_thread`` does nothing.

After a call that used two threads, OpenBLAS's second thread busy-waits for
more work and takes the CPU from the single Python thread that does
everything else: on 2 vCPUs a pure-Python loop took 14.6 ms alone and
26.9 ms right after one 2000 x 60 @ 60 x 60 product.
"""
from __future__ import annotations

import ctypes
import importlib
from contextlib import contextmanager
from functools import cache

# pool name -> an extension module linked against it, and the suffix of its
# exported symbols
POOLS = {
    "numpy": ("numpy._core._multiarray_umath", "64_"),
    "scipy": ("scipy.sparse.linalg._eigen.arpack._arpacklib", ""),
}


def _lookup(module: str, suffix: str):
    """The (get, set) thread-count functions that ``module``'s OpenBLAS
    exports under ``suffix``, or None when either is missing."""
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@cache
def pool(name: str):
    """The (get, set) functions of the pool ``name`` in POOLS, or None."""
    return _lookup(*POOLS[name])


def threads(name: str) -> int | None:
    """The thread count of the pool ``name``, or None when it cannot be read."""
    fns = pool(name)
    return None if fns is None else fns[0]()


@contextmanager
def one_thread(name: str):
    """Run the pool ``name`` on one thread, then restore the count it had."""
    fns = pool(name)
    if fns is None:
        yield
        return
    get, put = fns
    count = get()
    put(1)
    try:
        yield
    finally:
        put(count)
