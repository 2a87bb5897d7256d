"""The finite field GF(2^8) used by Reed-Solomon coding.

Elements are bytes 0..255.  Addition is XOR; multiplication is polynomial
multiplication modulo the primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11D, the same polynomial Jerasure and most storage systems use).

Several representations back the arithmetic:

- **log/antilog tables** for scalar operations: ``a*b = exp[log a + log b]``;
- a **256x256 full multiplication table** (64 KiB) for the vectorized data
  path: multiplying a whole byte buffer by a scalar is a single numpy
  table gather, ``np.take(MUL[c], buf, out=...)``, with no Python-level
  loop over the payload;
- **fused matrix kernels** for the stripe product ``M . D``: the per-cell
  gather loop, a log-domain variant with one gather per output row, a
  low/high **nibble-split** table variant (two 256x16 table gathers per
  cell — the numpy analogue of ISA-L's SIMD shuffle kernel), a
  **paired-coefficient** variant that folds two matrix columns into one
  gather from a cached 64 KiB product table (halving both the gather and
  the XOR count, the way production RS stacks fold multiple coefficients
  into one SIMD pass), and a **wide** variant that additionally packs up
  to four *output rows* into one uint32 table entry — one gather applies
  two coefficients to four rows at once, cutting the gather count a
  further 4x — processed in L2-sized column chunks so every scratch
  buffer stays cache-resident.

Which matrix kernel runs is chosen by a tiny autotune benchmark at import
(per shard-size class), overridable with ``REPRO_GF_KERNEL`` or
:meth:`GF256.set_kernel`.  All kernels compute exact field arithmetic, so
the choice never changes a single output byte — only throughput.

The vectorized kernels (:meth:`GF256.mul_bytes`, :meth:`GF256.addmul_bytes`,
:meth:`GF256.matmul_bytes`) are what the encoder's throughput depends on;
everything else is setup cost.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.obs.registry import StatCounters

__all__ = ["GF256"]

_PRIMITIVE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1
_FIELD_SIZE = 256
_GENERATOR = 2  # 2 is a generator of GF(2^8)* for this polynomial

# Sentinel log value for 0: large enough that any index involving a zero
# operand lands in the zero-padded tail of the extended antilog table.
_LOG_ZERO = 512


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build exp/log tables and the full 256x256 product table."""
    exp = np.zeros(2 * _FIELD_SIZE, dtype=np.uint8)  # doubled to skip mod-255
    log = np.zeros(_FIELD_SIZE, dtype=np.int32)
    x = 1
    for i in range(_FIELD_SIZE - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    exp[_FIELD_SIZE - 1 : 2 * (_FIELD_SIZE - 1)] = exp[: _FIELD_SIZE - 1]

    # Full product table via broadcasting over the log representation.
    a = np.arange(_FIELD_SIZE)
    la = log[a]
    mul = exp[(la[:, None] + la[None, :]) % (_FIELD_SIZE - 1)].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


def _build_kernel_tables(
    exp: np.ndarray, log: np.ndarray, mul: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derived tables for the fused matrix kernels.

    - ``log_z``: log table with a sentinel at 0 so zero operands can flow
      through the log-domain kernel without a branch;
    - ``exp_pad``: antilog table extended so any index with a zero operand
      (>= ``_LOG_ZERO``) reads 0;
    - ``nib_lo`` / ``nib_hi``: per-coefficient products of the low and high
      nibble, ``nib_lo[c][x] = c * x`` and ``nib_hi[c][x] = c * (x << 4)``.
    """
    log_z = np.full(_FIELD_SIZE, _LOG_ZERO, dtype=np.int16)
    log_z[1:] = log[1:]
    # Nonzero·nonzero indices top out at 2*(order-2) = 508; everything from
    # there to 2*_LOG_ZERO involves at least one zero operand.
    exp_pad = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint8)
    idx = np.arange(2 * (_FIELD_SIZE - 2) + 1)
    exp_pad[: idx.size] = exp[idx % (_FIELD_SIZE - 1)]
    nib_lo = mul[:, :16].copy()
    nib_hi = mul[:, [x << 4 for x in range(16)]].copy()
    return log_z, exp_pad, nib_lo, nib_hi


# ---------------------------------------------------------------------------
# scratch buffers (grow-only, reused across kernel calls)
# ---------------------------------------------------------------------------
# One scratch pool per *thread*, so steady-state kernel calls allocate
# nothing while staying safe when the live backend offloads encodes to a
# worker thread concurrently with parity delta-updates on the event loop.
_SCRATCH = threading.local()


def _scratch(name: str, size: int, dtype) -> np.ndarray:
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = _SCRATCH.pool = {}
    buf = pool.get(name)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=dtype)
        pool[name] = buf
    return buf[:size]


class GF256:
    """GF(2^8) arithmetic.  All methods are static; tables are module-level.

    Scalar API: :meth:`add`, :meth:`mul`, :meth:`div`, :meth:`inv`,
    :meth:`pow`.  Vector API (the hot path): :meth:`mul_bytes`,
    :meth:`addmul_bytes`, :meth:`matmul_bytes`.
    """

    EXP, LOG, MUL = _build_tables()
    LOG_Z, EXP_PAD, NIB_LO, NIB_HI = _build_kernel_tables(EXP, LOG, MUL)
    ORDER = _FIELD_SIZE
    PRIMITIVE_POLY = _PRIMITIVE_POLY
    GENERATOR = _GENERATOR

    # Boundary between the "small" and "large" shard-size classes used by
    # the kernel autotuner (bytes per shard), and the floor below which the
    # setup-free table kernel is always used.
    SMALL_SHARD_CUTOFF = 1 << 15
    TINY_SHARD_CUTOFF = 1 << 10

    # Observability for tests and benchmarks: every fused matrix-kernel
    # pass increments ``matmul_calls`` (so e.g. single-shard reconstruction
    # can assert it ran exactly one pass) and the per-kernel counter.
    # Codec-pool threads run passes concurrently, so the counters are
    # lock-guarded.  Delta updates (:meth:`addmul_bytes`) are not passes
    # and are not counted.
    KERNEL_STATS = StatCounters(("matmul_calls",))

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (== subtraction): XOR."""
        return (a ^ b) & 0xFF

    sub = add  # characteristic 2: subtraction is addition

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        """Field multiplication via the product table."""
        return int(cls.MUL[a & 0xFF, b & 0xFF])

    @classmethod
    def div(cls, a: int, b: int) -> int:
        """Field division ``a / b``; raises ZeroDivisionError for b == 0."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return int(cls.EXP[(cls.LOG[a] - cls.LOG[b]) % 255])

    @classmethod
    def inv(cls, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return int(cls.EXP[(255 - cls.LOG[a]) % 255])

    @classmethod
    def pow(cls, a: int, n: int) -> int:
        """``a`` raised to integer power ``n`` (n may be negative if a != 0)."""
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("0 has no inverse in GF(256)")
            return 0
        return int(cls.EXP[(cls.LOG[a] * n) % 255])

    @classmethod
    def exp(cls, n: int) -> int:
        """Generator raised to power ``n`` (antilog)."""
        return int(cls.EXP[n % 255])

    # ------------------------------------------------------------------
    # vectorized byte-buffer kernels (the encode/decode hot path)
    # ------------------------------------------------------------------
    @classmethod
    def mul_bytes(cls, c: int, buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``c * buf`` elementwise for a uint8 buffer, optionally into ``out``.

        A single gather from the product-table row: O(len) with no Python
        loop and, with ``out=`` supplied, no allocation either.
        """
        buf = np.ascontiguousarray(buf, dtype=np.uint8)
        c &= 0xFF
        if out is None:
            out = np.empty_like(buf)
        elif out.shape != buf.shape or out.dtype != np.uint8:
            raise ValueError("out must be a uint8 buffer of the input's shape")
        if c == 0:
            out[...] = 0
        elif c == 1:
            if out is not buf:
                out[...] = buf
        else:
            np.take(cls.MUL[c], buf, out=out, mode="clip")
        return out

    @classmethod
    def addmul_bytes(cls, acc: np.ndarray, c: int, buf: np.ndarray) -> None:
        """In-place ``acc ^= c * buf`` — the fused scalar-coefficient kernel.

        With the native kernel loaded and both buffers contiguous uint8 of
        one shape, this is a 1x1 native matrix pass.  Otherwise the product
        is gathered through a reused row view of ``MUL`` into a per-thread
        scratch buffer, so the steady state allocates nothing.
        """
        c &= 0xFF
        if c == 0:
            return
        nat = cls._NATIVE
        if c == 1:
            np.bitwise_xor(acc, buf, out=acc)
        elif (
            nat is not None
            and acc.dtype == np.uint8
            and buf.dtype == np.uint8
            and acc.shape == buf.shape
            and acc.flags.c_contiguous
            and buf.flags.c_contiguous
        ):
            nat.matmul_ptrs(
                np.array([[c]], dtype=np.uint8),
                (ctypes.c_void_p * 1)(buf.ctypes.data),
                (ctypes.c_void_p * 1)(acc.ctypes.data),
                buf.size,
            )
        else:
            tmp = _scratch("addmul", buf.size, np.uint8).reshape(buf.shape)
            np.take(cls.MUL[c], buf, out=tmp, mode="clip")
            np.bitwise_xor(acc, tmp, out=acc)

    # ------------------------------------------------------------------
    # fused matrix kernels
    # ------------------------------------------------------------------
    @classmethod
    def _kernel_reference(cls, mat: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
        """The seed per-cell kernel: one fancy-index temporary per coefficient.

        Kept as the baseline the autotuner and the regression benchmarks
        measure speedups against, and as a cross-check oracle in tests.
        """
        for i in range(mat.shape[0]):
            acc = out[i]
            for j in range(mat.shape[1]):
                c = int(mat[i, j])
                if c == 0:
                    continue
                if c == 1:
                    np.bitwise_xor(acc, shards[j], out=acc)
                else:
                    np.bitwise_xor(acc, cls.MUL[c][shards[j]], out=acc)

    @classmethod
    def _kernel_table(cls, mat: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
        """Per-cell table gather through a reused scratch buffer (no allocs)."""
        length = shards.shape[1]
        tmp = _scratch("mm_u8", length, np.uint8)
        for i in range(mat.shape[0]):
            acc = out[i]
            for j in range(mat.shape[1]):
                c = int(mat[i, j])
                if c == 0:
                    continue
                if c == 1:
                    np.bitwise_xor(acc, shards[j], out=acc)
                else:
                    np.take(cls.MUL[c], shards[j], out=tmp, mode="clip")
                    np.bitwise_xor(acc, tmp, out=acc)

    @classmethod
    def _kernel_logfused(cls, mat: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
        """Log-domain fused product: one big gather + XOR-reduce per output row.

        ``LOG_Z[shards]`` is computed once for the whole product; each output
        row is then ``EXP_PAD[LOG_Z[row][:, None] + LOG_Z[shards]]`` reduced
        over the coefficient axis, accumulated into preallocated scratch.
        """
        k, length = shards.shape
        ld = _scratch("mm_i16a", k * length, np.int16).reshape(k, length)
        np.take(cls.LOG_Z, shards, out=ld, mode="clip")
        lm = cls.LOG_Z[mat]  # (r, k) int16
        idx = _scratch("mm_i16b", k * length, np.int16).reshape(k, length)
        prod = _scratch("mm_u8b", k * length, np.uint8).reshape(k, length)
        row = _scratch("mm_u8", length, np.uint8)
        for i in range(mat.shape[0]):
            np.add(lm[i][:, None], ld, out=idx)
            np.take(cls.EXP_PAD, idx, out=prod, mode="clip")
            np.bitwise_xor.reduce(prod, axis=0, out=row)
            np.bitwise_xor(out[i], row, out=out[i])

    @classmethod
    def _kernel_nibble(cls, mat: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
        """Nibble-split kernel: two 256x16-table gathers per matrix cell.

        The low/high nibble indices are extracted once per shard and shared
        across all output rows — the numpy rendition of ISA-L's split-table
        SIMD shuffle kernel.
        """
        k, length = shards.shape
        lo = _scratch("mm_u8lo", k * length, np.uint8).reshape(k, length)
        hi = _scratch("mm_u8hi", k * length, np.uint8).reshape(k, length)
        np.bitwise_and(shards, 0x0F, out=lo)
        np.right_shift(shards, 4, out=hi)
        t1 = _scratch("mm_u8", length, np.uint8)
        t2 = _scratch("mm_u8b", length, np.uint8)
        for i in range(mat.shape[0]):
            acc = out[i]
            for j in range(k):
                c = int(mat[i, j])
                if c == 0:
                    continue
                if c == 1:
                    np.bitwise_xor(acc, shards[j], out=acc)
                    continue
                np.take(cls.NIB_LO[c], lo[j], out=t1, mode="clip")
                np.take(cls.NIB_HI[c], hi[j], out=t2, mode="clip")
                np.bitwise_xor(t1, t2, out=t1)
                np.bitwise_xor(acc, t1, out=acc)

    # Caches of precomputed product tables keyed by the matrix bytes.
    # Generator matrices and decode matrices recur constantly, so table
    # construction amortizes to zero; the bounds keep worst-case memory at
    # a few tens of MiB.  A single lock guards both caches: parallel codec
    # passes share the same generator matrix, so lookups must be safe from
    # any worker thread (builds happen outside the lock — a racing
    # double-build costs one redundant table, never corruption).
    _TABLE_LOCK = threading.Lock()
    _PAIR_TABLE_CACHE: OrderedDict[bytes, list[np.ndarray]] = OrderedDict()
    _PAIR_TABLE_CAP = 32
    _WIDE_TABLE_CACHE: OrderedDict[bytes, list] = OrderedDict()
    _WIDE_TABLE_CAP = 16

    @classmethod
    def _pair_tables(cls, mat: np.ndarray) -> list[np.ndarray]:
        key = mat.shape[1].to_bytes(2, "little") + mat.tobytes()
        with cls._TABLE_LOCK:
            cached = cls._PAIR_TABLE_CACHE.get(key)
            if cached is not None:
                cls._PAIR_TABLE_CACHE.move_to_end(key)
                return cached
        r, k = mat.shape
        tables = []
        for i in range(r):
            for j in range(0, k - 1, 2):
                # 64 KiB table of (a, b) -> c1*a ^ c2*b for this row's pair.
                t = np.bitwise_xor.outer(
                    cls.MUL[int(mat[i, j])], cls.MUL[int(mat[i, j + 1])]
                ).ravel()
                tables.append(np.ascontiguousarray(t))
        with cls._TABLE_LOCK:
            while len(cls._PAIR_TABLE_CACHE) >= cls._PAIR_TABLE_CAP:
                cls._PAIR_TABLE_CACHE.popitem(last=False)
            cls._PAIR_TABLE_CACHE[key] = tables
        return tables

    @classmethod
    def _kernel_pairs(cls, mat: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
        """Paired-coefficient kernel: one 64 KiB-table gather per column pair.

        Two shards are fused into one uint16 index stream (built once per
        pair, shared across output rows); each gather then applies two
        coefficients at once, halving both gathers and XOR passes.
        """
        r, k = mat.shape
        length = shards.shape[1]
        tables = cls._pair_tables(mat)
        n_pairs = k // 2
        idx = _scratch("mm_u16", length, np.uint16)
        idx_bytes = idx.view(np.uint8).reshape(length, 2)
        tmp = _scratch("mm_u8", length, np.uint8)
        for p in range(n_pairs):
            j = 2 * p
            # uint16 index (a << 8) | b, assembled via the little-endian
            # byte view so no intermediate shift/or arrays are allocated.
            idx_bytes[:, 1] = shards[j]
            idx_bytes[:, 0] = shards[j + 1]
            for i in range(r):
                np.take(tables[i * n_pairs + p], idx, out=tmp, mode="clip")
                np.bitwise_xor(out[i], tmp, out=out[i])
        if k % 2:  # odd trailing column: plain single-coefficient gathers
            j = k - 1
            for i in range(r):
                cls.addmul_bytes(out[i], int(mat[i, j]), shards[j])

    # Columns per internal chunk of the wide kernel.  16 Ki columns keeps
    # the uint16 index (32 KiB), uint32 accumulator and gather scratch
    # (64 KiB each) resident in L2 across the whole row-group pass.
    WIDE_CHUNK = 1 << 14

    # Lane order when unpacking a packed uint32 accumulator into its four
    # uint8 output rows: on little-endian hosts byte b of the uint32 holds
    # row bit b; big-endian reverses the lanes.
    _LANE = tuple(range(4)) if sys.byteorder == "little" else tuple(range(3, -1, -1))

    @classmethod
    def _wide_tables(cls, mat: np.ndarray) -> list:
        """Packed-row tables: groups of <=4 output rows share one gather.

        For each row group and column pair ``(j, j+1)`` the 64 Ki-entry
        uint32 table holds, at index ``(a << 8) | b``, the four products
        ``mat[i, j]*a ^ mat[i, j+1]*b`` of the group's rows packed one per
        byte lane.  An odd trailing column gets a 256-entry packed table.
        """
        key = mat.shape[1].to_bytes(2, "little") + mat.tobytes()
        with cls._TABLE_LOCK:
            cached = cls._WIDE_TABLE_CACHE.get(key)
            if cached is not None:
                cls._WIDE_TABLE_CACHE.move_to_end(key)
                return cached
        r, k = mat.shape
        groups = []
        for g0 in range(0, r, 4):
            rows = range(g0, min(g0 + 4, r))
            pair_tabs = []
            for j in range(0, k - 1, 2):
                t = np.zeros(1 << 16, dtype=np.uint32)
                for bit, i in enumerate(rows):
                    sub = np.bitwise_xor.outer(
                        cls.MUL[int(mat[i, j])], cls.MUL[int(mat[i, j + 1])]
                    ).ravel()
                    t |= sub.astype(np.uint32) << np.uint32(8 * bit)
                pair_tabs.append(t)
            odd_tab = None
            if k % 2:
                odd_tab = np.zeros(256, dtype=np.uint32)
                for bit, i in enumerate(rows):
                    odd_tab |= cls.MUL[int(mat[i, k - 1])].astype(
                        np.uint32
                    ) << np.uint32(8 * bit)
            groups.append((g0, len(rows), pair_tabs, odd_tab))
        with cls._TABLE_LOCK:
            while len(cls._WIDE_TABLE_CACHE) >= cls._WIDE_TABLE_CAP:
                cls._WIDE_TABLE_CACHE.popitem(last=False)
            cls._WIDE_TABLE_CACHE[key] = groups
        return groups

    @classmethod
    def _kernel_wide(cls, mat: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
        """Packed-row kernel: one gather covers two columns x four rows.

        On top of the pairs kernel's column fusion, up to four *output
        rows* ride in the byte lanes of one uint32 table entry, cutting
        the gather count another 4x for r >= 4 (and 3x for the canonical
        RS(6,3) parity product).  Columns are processed in
        :data:`WIDE_CHUNK`-sized chunks so all scratch stays cache-hot.
        """
        r, k = mat.shape
        if r == 1:
            # A single output row gains nothing from lane packing and
            # would pay 4x the gather bandwidth; the pairs kernel is the
            # same algorithm minus the packing.
            cls._kernel_pairs(mat, shards, out)
            return
        length = shards.shape[1]
        if length == 0:
            return
        groups = cls._wide_tables(mat)
        chunk = min(length, cls.WIDE_CHUNK)
        idx = _scratch("mm_w16", chunk, np.uint16)
        idx_bytes = idx.view(np.uint8).reshape(chunk, 2)
        acc = _scratch("mm_w32a", chunk, np.uint32)
        tmp = _scratch("mm_w32b", chunk, np.uint32)
        for a in range(0, length, chunk):
            b = min(a + chunk, length)
            n = b - a
            acc_n, tmp_n = acc[:n], tmp[:n]
            for g0, gr, pair_tabs, odd_tab in groups:
                acc_n[...] = 0
                for p, t in enumerate(pair_tabs):
                    j = 2 * p
                    # uint16 index (a << 8) | b via the little-endian byte
                    # view, as in the pairs kernel.
                    idx_bytes[:n, 1] = shards[j, a:b]
                    idx_bytes[:n, 0] = shards[j + 1, a:b]
                    np.take(t, idx[:n], out=tmp_n, mode="clip")
                    np.bitwise_xor(acc_n, tmp_n, out=acc_n)
                if odd_tab is not None:
                    np.take(odd_tab, shards[k - 1, a:b], out=tmp_n, mode="clip")
                    np.bitwise_xor(acc_n, tmp_n, out=acc_n)
                lanes = acc_n.view(np.uint8).reshape(n, 4)
                for bit in range(gr):
                    row = out[g0 + bit, a:b]
                    np.bitwise_xor(row, lanes[:, cls._LANE[bit]], out=row)

    @classmethod
    def _kernel_native(cls, mat: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
        """Compiled nibble-shuffle kernel (see ``_gf_matmul.c``).

        Registered in ``_KERNELS`` only when :mod:`repro.erasure.native`
        managed to build and load the shared object; rows are handed to C
        as a pointer array, so strided row starts (column slices of a
        larger product) need no compaction copy.
        """
        nat = cls._NATIVE
        r, k = mat.shape
        mat = np.ascontiguousarray(mat)
        sp = (ctypes.c_void_p * k)()
        base, ss = shards.ctypes.data, shards.strides[0]
        for j in range(k):
            sp[j] = base + j * ss
        op = (ctypes.c_void_p * r)()
        base, os_ = out.ctypes.data, out.strides[0]
        for i in range(r):
            op[i] = base + i * os_
        nat.matmul_ptrs(mat, sp, op, shards.shape[1])

    # Populated at module import (below) when the runtime-compiled kernel
    # is available; None keeps the pure-numpy kernels in charge.
    _NATIVE = None

    @classmethod
    def native_kernel(cls):
        """The loaded native kernel handle, or None."""
        return cls._NATIVE

    _KERNELS = {
        "reference": _kernel_reference,
        "table": _kernel_table,
        "logfused": _kernel_logfused,
        "nibble": _kernel_nibble,
        "pairs": _kernel_pairs,
        "wide": _kernel_wide,
    }

    # Selected kernel per shard-size class; populated by the import-time
    # autotune below (or static defaults / environment override).
    _SELECTED: dict[str, str] = {"small": "table", "large": "pairs"}

    @classmethod
    def available_kernels(cls) -> tuple[str, ...]:
        return tuple(cls._KERNELS)

    @classmethod
    def selected_kernels(cls) -> dict[str, str]:
        """The kernel chosen for each shard-size class."""
        return dict(cls._SELECTED)

    # True when an explicit kernel override (env var or set_kernel) is in
    # effect — overrides also bypass the tiny-product guard so tests can
    # exercise any kernel at any size.
    _FORCED = False

    @classmethod
    def set_kernel(cls, name: str | None, size_class: str | None = None) -> None:
        """Force a matrix kernel (``None`` restores autotuned defaults)."""
        if name is None:
            cls._SELECTED = dict(cls._AUTOTUNED)
            cls._FORCED = bool(os.environ.get("REPRO_GF_KERNEL"))
            return
        if name not in cls._KERNELS:
            raise ValueError(f"unknown kernel {name!r}; one of {sorted(cls._KERNELS)}")
        classes = (size_class,) if size_class else ("small", "large")
        for sc in classes:
            if sc not in cls._SELECTED:
                raise ValueError(f"unknown size class {sc!r}")
            cls._SELECTED[sc] = name
        cls._FORCED = True

    @classmethod
    def reset_kernel_stats(cls) -> None:
        cls.KERNEL_STATS.reset()

    @classmethod
    def matmul_rows(
        cls,
        mat: np.ndarray,
        shard_rows,
        out_rows,
        offset: int = 0,
        length: int | None = None,
        accumulate: bool = False,
    ) -> None:
        """Fused product over *separate* row buffers — no stacking copy.

        The zero-copy twin of :meth:`matmul_bytes`: ``shard_rows`` and
        ``out_rows`` are sequences of contiguous uint8 arrays handed to
        the native kernel as pointer arrays, so a stripe encode reads the
        k payload buffers in place instead of first compacting them into
        a (k, L) matrix.  ``offset``/``length`` select a column range,
        which is how parallel passes split one large product across
        workers without slicing copies.  Requires the native kernel
        (callers check :meth:`native_kernel` and fall back to the stacked
        path).
        """
        nat = cls._NATIVE
        if nat is None:
            raise RuntimeError("native GF kernel unavailable")
        if length is None:
            length = (len(shard_rows[0]) if shard_rows else 0) - offset
        if not accumulate:
            for row in out_rows:
                row[offset : offset + length] = 0
        if length <= 0 or not shard_rows:
            return
        mat = np.ascontiguousarray(mat, dtype=np.uint8)
        cls.KERNEL_STATS.inc("matmul_calls")
        cls.KERNEL_STATS.inc("native")
        nat.matmul_ptrs(
            mat,
            nat.row_ptrs(shard_rows, offset),
            nat.row_ptrs(out_rows, offset),
            length,
        )

    @classmethod
    def matmul_bytes(
        cls,
        mat: np.ndarray,
        shards: np.ndarray,
        out: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Multiply a GF matrix (r x k, uint8) by k data shards.

        ``shards`` has shape ``(k, L)``; the result has shape ``(r, L)``.
        This implements the stripe-encode/decode product ``M . D`` where each
        shard is a column-block of the stripe.  With ``out=`` the product is
        written (or, with ``accumulate=True``, XOR-accumulated) into the
        caller's buffer.  One call is one fused kernel pass regardless of
        matrix size — the unit `KERNEL_STATS["matmul_calls"]` counts.
        """
        mat = np.asarray(mat, dtype=np.uint8)
        if mat.ndim != 2:
            raise ValueError("matrix must be 2-D")
        shards = np.ascontiguousarray(shards, dtype=np.uint8)
        if shards.ndim != 2:
            raise ValueError("shards must form a (k, L) matrix")
        r, k = mat.shape
        if shards.shape[0] != k:
            raise ValueError(f"matrix expects {k} shards, got {shards.shape[0]}")
        length = shards.shape[1]
        if out is None:
            out = np.zeros((r, length), dtype=np.uint8)
        else:
            if out.shape != (r, length) or out.dtype != np.uint8:
                raise ValueError(f"out must be uint8 of shape {(r, length)}")
            if not accumulate:
                out[...] = 0
        if r == 0 or length == 0:
            return out
        if length < cls.TINY_SHARD_CUTOFF and not cls._FORCED:
            # Matrix-algebra-sized products (inversion checks, row
            # composition): setup-free gathers always win and, unlike the
            # pairs kernel, never churn the 64 KiB-table cache.
            name = "table"
        else:
            size_class = "small" if length < cls.SMALL_SHARD_CUTOFF else "large"
            name = cls._SELECTED[size_class]
        cls.KERNEL_STATS.inc("matmul_calls")
        cls.KERNEL_STATS.inc(name)
        cls._KERNELS[name].__get__(None, cls)(mat, shards, out)
        return out


def _autotune(cls=GF256) -> dict[str, str]:
    """Race the matrix kernels on one synthetic problem per size class.

    Runs at import and takes a few tens of milliseconds; every kernel is
    exact, so a noisy pick costs throughput only, never correctness.
    """
    rng = np.random.default_rng(0x5EED)
    choices: dict[str, str] = {}
    candidates = ("table", "logfused", "nibble", "pairs", "wide") + (
        ("native",) if "native" in cls._KERNELS else ()
    )
    for size_class, length, reps in (("small", 4096, 4), ("large", 1 << 18, 2)):
        mat = rng.integers(1, 256, (3, 6), dtype=np.uint8)
        shards = rng.integers(0, 256, (6, length), dtype=np.uint8)
        out = np.zeros((3, length), dtype=np.uint8)
        best, best_t = "table", float("inf")
        for name in candidates:
            kernel = cls._KERNELS[name].__get__(None, cls)
            out[...] = 0
            kernel(mat, shards, out)  # warmup (builds pair tables etc.)
            t0 = time.perf_counter()
            for _ in range(reps):
                out[...] = 0
                kernel(mat, shards, out)
            dt = (time.perf_counter() - t0) / reps
            if dt < best_t:
                best, best_t = name, dt
        choices[size_class] = best
    return choices


# Best-effort native kernel: registered before the autotune race (and the
# env-override validation) so a successful build competes like any other
# kernel and REPRO_GF_KERNEL=native is accepted.
from repro.erasure import native as _native  # noqa: E402  (needs GF256 defined)

GF256._NATIVE = _native.load()
if GF256._NATIVE is not None:
    GF256._KERNELS["native"] = GF256.__dict__["_kernel_native"]

_forced = os.environ.get("REPRO_GF_KERNEL")
if _forced:
    if _forced not in GF256._KERNELS:
        raise ValueError(
            f"REPRO_GF_KERNEL={_forced!r} is not one of {sorted(GF256._KERNELS)}"
        )
    GF256._AUTOTUNED = {"small": _forced, "large": _forced}
    GF256._FORCED = True
elif os.environ.get("REPRO_GF_AUTOTUNE", "1") not in ("0", "false", "off"):
    GF256._AUTOTUNED = _autotune()
else:  # static defaults measured on commodity x86: table small, pairs large
    GF256._AUTOTUNED = {"small": "table", "large": "pairs"}
GF256._SELECTED = dict(GF256._AUTOTUNED)
