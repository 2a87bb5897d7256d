"""Runtime-built native GF(2^8) matrix kernel (optional, best effort).

Compiles :mod:`_gf_matmul.c` with the host C compiler on first use and
loads it through :mod:`ctypes`.  The shared object is cached in a
per-user temp directory keyed by the source hash, so the one-time gcc
invocation (~a second) happens once per container, not per process.

Everything here is **best effort**: no compiler, a failed compile, a
missing dlopen, or ``REPRO_GF_NATIVE=0`` all simply leave
:data:`NATIVE` as ``None`` and the numpy ``wide`` kernel of
:mod:`repro.erasure.gf256` carries the data plane (at a few hundred MB/s
instead of multiple GB/s).  The native kernel is bit-exact with the
reference kernel and holds no global state, so concurrent calls from
parallel codec workers need no locking.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["NativeKernel", "load", "NATIVE"]

_SOURCE = os.path.join(os.path.dirname(__file__), "_gf_matmul.c")
_CC_CANDIDATES = ("cc", "gcc", "clang")
_LOCK = threading.Lock()


@dataclass
class NativeKernel:
    """ctypes handle to the compiled kernel plus its nibble tables."""

    lib: ctypes.CDLL
    simd_level: int
    nib_lo: np.ndarray
    nib_hi: np.ndarray

    def matmul_ptrs(
        self,
        mat: np.ndarray,
        shard_ptrs,
        out_ptrs,
        length: int,
    ) -> None:
        """XOR-accumulate ``mat . shards`` into the out rows.

        ``shard_ptrs`` / ``out_ptrs`` are ctypes pointer arrays built by
        :meth:`row_ptrs`; rows may live at arbitrary addresses, so no
        (k, L) stacking copy is ever needed.
        """
        r, k = mat.shape
        self.lib.gf_matmul(
            mat.ctypes.data,
            r,
            k,
            shard_ptrs,
            out_ptrs,
            length,
            self.nib_lo.ctypes.data,
            self.nib_hi.ctypes.data,
        )

    @staticmethod
    def row_ptrs(rows, offset: int = 0):
        """Pointer array over unit-stride uint8 ndarray rows, ``offset``
        bytes into each — the one place row pointers are built."""
        arr = (ctypes.c_void_p * len(rows))()
        for i, row in enumerate(rows):
            arr[i] = row.ctypes.data + offset
        return arr


def _compiler() -> str | None:
    for cc in _CC_CANDIDATES:
        path = shutil.which(cc)
        if path:
            return path
    return None


def _cache_path(source: bytes, cc: str) -> str:
    tag = hashlib.sha256(source + cc.encode()).hexdigest()[:16]
    root = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-gf-native-{os.getuid()}"
    )
    return os.path.join(root, f"gf_matmul-{tag}.so")


def _build(source_path: str, out_path: str, cc: str) -> None:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    # Build to a unique temp name then rename: atomic under concurrent
    # first-use from several processes.
    fd, tmp = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(out_path), prefix=".build-"
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", tmp, source_path],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, out_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_uncached() -> NativeKernel | None:
    if os.environ.get("REPRO_GF_NATIVE", "1") in ("0", "false", "off"):
        return None
    cc = _compiler()
    if cc is None:
        return None
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        so_path = _cache_path(source, cc)
        if not os.path.exists(so_path):
            _build(_SOURCE, so_path, cc)
        lib = ctypes.CDLL(so_path)
    except (OSError, subprocess.SubprocessError):
        return None
    lib.gf_matmul.argtypes = [
        ctypes.c_void_p,  # mat
        ctypes.c_size_t,  # r
        ctypes.c_size_t,  # k
        ctypes.POINTER(ctypes.c_void_p),  # shard ptrs
        ctypes.POINTER(ctypes.c_void_p),  # out ptrs
        ctypes.c_size_t,  # length
        ctypes.c_void_p,  # nib_lo
        ctypes.c_void_p,  # nib_hi
    ]
    lib.gf_matmul.restype = None
    lib.gf_simd_level.restype = ctypes.c_int

    from repro.erasure.gf256 import GF256

    return NativeKernel(
        lib=lib,
        simd_level=int(lib.gf_simd_level()),
        nib_lo=np.ascontiguousarray(GF256.NIB_LO, dtype=np.uint8),
        nib_hi=np.ascontiguousarray(GF256.NIB_HI, dtype=np.uint8),
    )


_loaded = False
NATIVE: NativeKernel | None = None


def load() -> NativeKernel | None:
    """The process-wide native kernel, building it on first call."""
    global _loaded, NATIVE
    if not _loaded:
        with _LOCK:
            if not _loaded:
                NATIVE = _load_uncached()
                _loaded = True
    return NATIVE
