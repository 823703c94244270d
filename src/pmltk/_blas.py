"""Run pmltk's numeric work on one BLAS thread.

The matrices here are small (l x l label matrices, desk-scale n and d),
where a multithreaded OpenBLAS spends more time waking and joining
threads than computing. The thread count also changes how some products
are split, and so the last bits of their results. Each public numeric
entry point is therefore wrapped in :data:`single_threaded`: the outermost
call sets every OpenBLAS bundled with numpy and scipy to one thread, and
its return restores the earlier count. The thread count is process-wide,
so the nesting depth is too; a lock keeps concurrent callers from
restoring while another is still inside. The libraries are looked up on
first use, not at import. Without a bundled OpenBLAS nothing is pinned.

The compiled scipy modules pmltk calls are loaded from their files by
:func:`scipy_extension`: importing the packages ``scipy.linalg`` and
``scipy.sparse`` would cost each process about 0.3 s and 25 MB of
resident memory.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy

# scipy's package directory, found without running scipy/__init__
_SCIPY_DIR = importlib.util.find_spec("scipy").submodule_search_locations[0]

# (get, set) thread-count entry points of the OpenBLAS builds in numpy and
# scipy wheels: scipy-openblas with 64- and 32-bit integers, then plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS in ``numpy.libs`` and ``scipy.libs``."""
    found = []
    for pkgdir in (os.path.dirname(numpy.__file__), _SCIPY_DIR):
        for path in sorted(glob.glob(os.path.join(pkgdir + ".libs", "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _SYMBOLS:
                get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return tuple(found)


def thread_counts() -> list[int]:
    """Current thread count of each OpenBLAS found; empty when there is none."""
    return [get() for get, _ in _openblas()]


class _SingleThreaded(contextlib.ContextDecorator):
    """Context manager and decorator pinning BLAS to one thread while any caller is inside."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[int] = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = thread_counts()
                for _, put in _openblas():
                    put(1)
            self._depth += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, put), count in zip(_openblas(), self._saved):
                    put(count)
        return False


# One instance, because the BLAS thread count it guards is one per process.
single_threaded = _SingleThreaded()


def scipy_extension(package: str, name: str):
    """The compiled module ``scipy.<package>.<name>``, loaded from its file
    next to ``scipy.<package>`` without running that package's ``__init__``.

    A module already in ``sys.modules`` is returned as it is. A loaded one
    is taken back out of ``sys.modules``, so that a later import of its
    package binds it as usual; CPython hands that import the same objects,
    so ``scipy.linalg.lapack.dpotrf`` is then the function pmltk holds. A
    missing file raises ``ImportError`` naming it.
    """
    fullname = f"scipy.{package}.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    base = os.path.join(_SCIPY_DIR, package, name)
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no compiled module {fullname}: {paths[0]} is missing",
                          name=fullname, path=paths[0])
    loader = importlib.machinery.ExtensionFileLoader(fullname, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(
        fullname, path, loader=loader))
    loader.exec_module(module)
    sys.modules.pop(fullname, None)
    return module
