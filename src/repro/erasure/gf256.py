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
- three **matrix kernels** for the stripe product ``M . D``:

  - ``reference``, the seed per-cell gather loop (test oracle and the
    speedup baseline of the regression gate);
  - ``wide``, the numpy fallback: up to four output rows packed into the
    byte lanes of one uint32 table entry, so one gather applies two
    coefficients to four rows, in L2-sized column chunks (a single
    output row takes a paired-coefficient gather instead);
  - ``native``, the compiled nibble-shuffle kernel of
    :mod:`repro.erasure.native`, present only when it built and loaded.

Every product runs through :meth:`GF256.matmul_rows` (``matmul_bytes`` is
that call on a 2-D array).  A kernel forced with ``REPRO_GF_KERNEL`` or
:meth:`GF256.set_kernel` runs every product.  Otherwise ``native`` runs
every product when it is loaded; without it, products narrower than
:data:`GF256.TINY_SHARD_CUTOFF` (matrix algebra, where table setup costs
more than the gathers) use ``reference`` and wider ones use ``wide``.
All kernels compute exact field arithmetic, so the choice never changes a
single output byte — only throughput.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict

import numpy as np

from repro.obs.registry import StatCounters

__all__ = ["GF256"]

_PRIMITIVE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1
_FIELD_SIZE = 256
_GENERATOR = 2  # 2 is a generator of GF(2^8)* for this polynomial



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
    :meth:`addmul_bytes`, :meth:`matmul_rows`, :meth:`matmul_bytes`.
    """

    EXP, LOG, MUL = _build_tables()
    # Per-coefficient products of the low and high nibble, the tables of
    # the native kernel: NIB_LO[c][x] = c * x, NIB_HI[c][x] = c * (x << 4).
    NIB_LO = MUL[:, :16].copy()
    NIB_HI = MUL[:, ::16].copy()
    ORDER = _FIELD_SIZE
    PRIMITIVE_POLY = _PRIMITIVE_POLY
    GENERATOR = _GENERATOR

    # Without the native kernel, products narrower than this many columns
    # run on the setup-free reference kernel instead of ``wide``.
    TINY_SHARD_CUTOFF = 1 << 10

    # Observability for tests and benchmarks: every matrix-kernel
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
                nat.row_ptrs((buf,)),
                nat.row_ptrs((acc,)),
                buf.size,
            )
        else:
            tmp = _scratch("addmul", buf.size, np.uint8).reshape(buf.shape)
            np.take(cls.MUL[c], buf, out=tmp, mode="clip")
            np.bitwise_xor(acc, tmp, out=acc)

    # ------------------------------------------------------------------
    # matrix kernels: (mat, shard rows, out rows), rows of equal length
    # ------------------------------------------------------------------
    @classmethod
    def _kernel_reference(cls, mat: np.ndarray, shards, out) -> None:
        """The seed per-cell kernel: one fancy-index temporary per coefficient.

        Kept as the baseline the regression benchmarks measure speedups
        against, as a cross-check oracle in tests, and as the setup-free
        kernel for matrix-algebra-sized products.
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
    def _cached_tables(cls, cache: OrderedDict, cap: int, mat: np.ndarray, build):
        key = mat.shape[1].to_bytes(2, "little") + mat.tobytes()
        with cls._TABLE_LOCK:
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                return cached
        tables = build(mat)
        with cls._TABLE_LOCK:
            while len(cache) >= cap:
                cache.popitem(last=False)
            cache[key] = tables
        return tables

    @classmethod
    def _build_pair_tables(cls, mat: np.ndarray) -> list[np.ndarray]:
        """One 64 KiB table per column pair of row 0: (a, b) -> c1*a ^ c2*b."""
        row = mat[0]
        return [
            np.bitwise_xor.outer(cls.MUL[int(row[j])], cls.MUL[int(row[j + 1])]).ravel()
            for j in range(0, len(row) - 1, 2)
        ]

    @classmethod
    def _pairs_one_row(cls, mat: np.ndarray, shards, out) -> None:
        """``wide`` for a single output row: one gather per column pair.

        Lane packing gains nothing with one row and would pay 4x the
        gather bandwidth, so two shards are fused into one uint16 index
        stream and each gather applies two coefficients at once.
        """
        k = mat.shape[1]
        length = len(shards[0])
        tables = cls._cached_tables(
            cls._PAIR_TABLE_CACHE, cls._PAIR_TABLE_CAP, mat, cls._build_pair_tables
        )
        idx = _scratch("mm_u16", length, np.uint16)
        idx_bytes = idx.view(np.uint8).reshape(length, 2)
        tmp = _scratch("mm_u8", length, np.uint8)
        for p, t in enumerate(tables):
            # uint16 index (a << 8) | b, assembled via the little-endian
            # byte view so no intermediate shift/or arrays are allocated.
            idx_bytes[:, 1] = shards[2 * p]
            idx_bytes[:, 0] = shards[2 * p + 1]
            np.take(t, idx, out=tmp, mode="clip")
            np.bitwise_xor(out[0], tmp, out=out[0])
        if k % 2:  # odd trailing column: a plain single-coefficient gather
            cls.addmul_bytes(out[0], int(mat[0, k - 1]), shards[k - 1])

    # Columns per internal chunk of the wide kernel.  16 Ki columns keeps
    # the uint16 index (32 KiB), uint32 accumulator and gather scratch
    # (64 KiB each) resident in L2 across the whole row-group pass.
    WIDE_CHUNK = 1 << 14

    # Lane order when unpacking a packed uint32 accumulator into its four
    # uint8 output rows: on little-endian hosts byte b of the uint32 holds
    # row bit b; big-endian reverses the lanes.
    _LANE = tuple(range(4)) if sys.byteorder == "little" else tuple(range(3, -1, -1))

    @classmethod
    def _build_wide_tables(cls, mat: np.ndarray) -> list:
        """Packed-row tables: groups of <=4 output rows share one gather.

        For each row group and column pair ``(j, j+1)`` the 64 Ki-entry
        uint32 table holds, at index ``(a << 8) | b``, the four products
        ``mat[i, j]*a ^ mat[i, j+1]*b`` of the group's rows packed one per
        byte lane.  An odd trailing column gets a 256-entry packed table.
        """
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
        return groups

    @classmethod
    def _kernel_wide(cls, mat: np.ndarray, shards, out) -> None:
        """Packed-row kernel: one gather covers two columns x four rows.

        Two shards fuse into one uint16 index and up to four *output rows*
        ride in the byte lanes of one uint32 table entry, cutting the
        gather count 8x against the per-cell kernel for r >= 4 (6x for the
        canonical RS(6,3) parity product).  Columns are processed in
        :data:`WIDE_CHUNK`-sized chunks so all scratch stays cache-hot.
        """
        r, k = mat.shape
        if r == 1:
            cls._pairs_one_row(mat, shards, out)
            return
        length = len(shards[0])
        groups = cls._cached_tables(
            cls._WIDE_TABLE_CACHE, cls._WIDE_TABLE_CAP, mat, cls._build_wide_tables
        )
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
                    # view, as in the single-row branch.
                    idx_bytes[:n, 1] = shards[j][a:b]
                    idx_bytes[:n, 0] = shards[j + 1][a:b]
                    np.take(t, idx[:n], out=tmp_n, mode="clip")
                    np.bitwise_xor(acc_n, tmp_n, out=acc_n)
                if odd_tab is not None:
                    np.take(odd_tab, shards[k - 1][a:b], out=tmp_n, mode="clip")
                    np.bitwise_xor(acc_n, tmp_n, out=acc_n)
                lanes = acc_n.view(np.uint8).reshape(n, 4)
                for bit in range(gr):
                    row = out[g0 + bit][a:b]
                    np.bitwise_xor(row, lanes[:, cls._LANE[bit]], out=row)

    # The numpy kernels; "native" joins them in available_kernels() when
    # repro.erasure.native built and loaded its shared object (set below
    # at import; None leaves the numpy kernels in charge).
    _KERNELS = {"reference": _kernel_reference, "wide": _kernel_wide}
    _NATIVE = None

    # The kernel forced by REPRO_GF_KERNEL (read once at import) and the
    # one currently forced (env or set_kernel); None applies the rule.
    _ENV_KERNEL: str | None = None
    _FORCED: str | None = None

    @classmethod
    def native_kernel(cls):
        """The loaded native kernel handle, or None."""
        return cls._NATIVE

    @classmethod
    def available_kernels(cls) -> tuple[str, ...]:
        return tuple(cls._KERNELS) + (("native",) if cls._NATIVE is not None else ())

    @classmethod
    def _kernel_for(cls, length: int) -> str:
        """The kernel that runs a product ``length`` columns wide."""
        if cls._FORCED is not None:
            return cls._FORCED
        if cls._NATIVE is not None:
            return "native"
        return "reference" if length < cls.TINY_SHARD_CUTOFF else "wide"

    @classmethod
    def selected_kernels(cls) -> dict[str, str]:
        """The kernel for matrix-algebra products (narrower than
        :data:`TINY_SHARD_CUTOFF`) and for payload products."""
        return {
            "matrix": cls._kernel_for(0),
            "payload": cls._kernel_for(cls.TINY_SHARD_CUTOFF),
        }

    @classmethod
    def set_kernel(cls, name: str | None) -> None:
        """Force one kernel for every product (``None`` restores the default)."""
        if name is None:
            cls._FORCED = cls._ENV_KERNEL
            return
        if name not in cls.available_kernels():
            raise ValueError(
                f"unknown kernel {name!r}; one of {sorted(cls.available_kernels())}"
            )
        cls._FORCED = name

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
        """``out_rows = mat . shard_rows`` over separate row buffers.

        The one product entry point: ``shard_rows`` and ``out_rows`` are
        sequences of unit-stride uint8 rows (or 2-D arrays), so a stripe
        encode reads the k payload buffers in place instead of first
        compacting them into a (k, L) matrix.  ``offset``/``length``
        select a column range, which is how parallel passes split one
        large product across workers without slicing copies; with
        ``accumulate`` the product is XORed into the out rows.  The
        native kernel takes the rows as pointer arrays, the numpy kernels
        as ``row[offset:offset + length]`` views.  One call is one kernel
        pass — the unit ``KERNEL_STATS["matmul_calls"]`` counts.
        """
        if length is None:
            length = (len(shard_rows[0]) if len(shard_rows) else 0) - offset
        end = offset + length
        if not accumulate:
            for row in out_rows:
                row[offset:end] = 0
        if length <= 0 or not len(shard_rows) or not len(out_rows):
            return
        mat = np.ascontiguousarray(mat, dtype=np.uint8)
        name = cls._kernel_for(length)
        cls.KERNEL_STATS.inc("matmul_calls")
        cls.KERNEL_STATS.inc(name)
        if name == "native":
            nat = cls._NATIVE
            nat.matmul_ptrs(
                mat,
                nat.row_ptrs(shard_rows, offset),
                nat.row_ptrs(out_rows, offset),
                length,
            )
        else:
            cls._KERNELS[name].__get__(None, cls)(
                mat,
                [row[offset:end] for row in shard_rows],
                [row[offset:end] for row in out_rows],
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
        caller's buffer.  Validation, then one :meth:`matmul_rows` pass.
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
            accumulate = True  # already zero: skip the second clear
        elif out.shape != (r, length) or out.dtype != np.uint8:
            raise ValueError(f"out must be uint8 of shape {(r, length)}")
        elif length > 1 and out.strides[1] != 1:
            raise ValueError("out rows must be unit-stride")
        cls.matmul_rows(mat, shards, out, length=length, accumulate=accumulate)
        return out


# Best-effort native kernel, loaded before the REPRO_GF_KERNEL validation
# so REPRO_GF_KERNEL=native is accepted when it built.
from repro.erasure import native as _native  # noqa: E402  (needs GF256 defined)

GF256._NATIVE = _native.load()
_forced = os.environ.get("REPRO_GF_KERNEL") or None
if _forced is not None and _forced not in GF256.available_kernels():
    raise ValueError(
        f"REPRO_GF_KERNEL={_forced!r} is not one of {sorted(GF256.available_kernels())}"
    )
GF256._ENV_KERNEL = GF256._FORCED = _forced
