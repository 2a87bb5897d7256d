"""Field-axiom and kernel tests for GF(2^8)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.erasure.gf256 import GF256

elem = st.integers(0, 255)
nonzero = st.integers(1, 255)


class TestTables:
    def test_exp_log_roundtrip(self):
        for a in range(1, 256):
            assert GF256.exp(GF256.LOG[a]) == a

    def test_mul_table_shape_and_dtype(self):
        assert GF256.MUL.shape == (256, 256)
        assert GF256.MUL.dtype == np.uint8

    def test_generator_has_full_order(self):
        # 2 must generate all 255 nonzero elements.
        seen = set()
        x = 1
        for _ in range(255):
            seen.add(x)
            x = GF256.mul(x, 2)
        assert len(seen) == 255


class TestFieldAxioms:
    @given(elem, elem)
    def test_addition_commutative(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(elem)
    def test_addition_self_inverse(self, a):
        assert GF256.add(a, a) == 0

    @given(elem, elem)
    def test_multiplication_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elem, elem, elem)
    def test_multiplication_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(elem, elem, elem)
    def test_distributive(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(elem)
    def test_multiplicative_identity(self, a):
        assert GF256.mul(a, 1) == a

    @given(elem)
    def test_zero_annihilates(self, a):
        assert GF256.mul(a, 0) == 0

    @given(nonzero)
    def test_inverse(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(elem, nonzero)
    def test_div_mul_roundtrip(self, a, b):
        assert GF256.mul(GF256.div(a, b), b) == a


class TestScalarEdgeCases:
    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_zero_div_nonzero(self):
        assert GF256.div(0, 7) == 0

    def test_pow_zero_base(self):
        assert GF256.pow(0, 0) == 1
        assert GF256.pow(0, 3) == 0
        with pytest.raises(ZeroDivisionError):
            GF256.pow(0, -1)

    @given(nonzero, st.integers(-10, 10))
    def test_pow_matches_repeated_mul(self, a, n):
        expected = 1
        base = a if n >= 0 else GF256.inv(a)
        for _ in range(abs(n)):
            expected = GF256.mul(expected, base)
        assert GF256.pow(a, n) == expected


class TestVectorKernels:
    @given(elem, st.integers(0, 200))
    def test_mul_bytes_matches_scalar(self, c, n):
        rng = np.random.default_rng(n)
        buf = rng.integers(0, 256, n, dtype=np.uint8)
        out = GF256.mul_bytes(c, buf)
        expected = np.array([GF256.mul(c, int(b)) for b in buf], dtype=np.uint8)
        assert (out == expected).all()

    def test_mul_bytes_zero_scalar(self):
        buf = np.arange(10, dtype=np.uint8)
        assert (GF256.mul_bytes(0, buf) == 0).all()

    def test_mul_bytes_identity_scalar_copies(self):
        buf = np.arange(10, dtype=np.uint8)
        out = GF256.mul_bytes(1, buf)
        assert (out == buf).all()
        out[0] = 99
        assert buf[0] == 0  # must not alias

    @given(elem)
    def test_addmul_matches_manual(self, c):
        rng = np.random.default_rng(c)
        acc = rng.integers(0, 256, 64, dtype=np.uint8)
        buf = rng.integers(0, 256, 64, dtype=np.uint8)
        expected = acc ^ GF256.mul_bytes(c, buf)
        GF256.addmul_bytes(acc, c, buf)
        assert (acc == expected).all()

    def test_addmul_zero_coefficient_is_noop(self):
        acc = np.arange(16, dtype=np.uint8)
        before = acc.copy()
        GF256.addmul_bytes(acc, 0, np.ones(16, dtype=np.uint8))
        assert (acc == before).all()

    def test_matmul_bytes_identity(self):
        rng = np.random.default_rng(0)
        shards = rng.integers(0, 256, (3, 32), dtype=np.uint8)
        out = GF256.matmul_bytes(np.eye(3, dtype=np.uint8), shards)
        assert (out == shards).all()

    def test_matmul_bytes_shape_check(self):
        with pytest.raises(ValueError):
            GF256.matmul_bytes(np.eye(3, dtype=np.uint8), np.zeros((2, 8), np.uint8))

    def test_matmul_bytes_matches_scalar_math(self):
        rng = np.random.default_rng(1)
        mat = rng.integers(0, 256, (2, 3), dtype=np.uint8)
        shards = rng.integers(0, 256, (3, 5), dtype=np.uint8)
        out = GF256.matmul_bytes(mat, shards)
        for i in range(2):
            for col in range(5):
                acc = 0
                for j in range(3):
                    acc ^= GF256.mul(int(mat[i, j]), int(shards[j, col]))
                assert out[i, col] == acc


class TestOutParameter:
    def test_mul_bytes_into_out(self):
        rng = np.random.default_rng(20)
        buf = rng.integers(0, 256, 128, dtype=np.uint8)
        out = np.empty(128, dtype=np.uint8)
        res = GF256.mul_bytes(37, buf, out=out)
        assert res is out
        assert (res == GF256.mul_bytes(37, buf)).all()

    def test_mul_bytes_out_with_zero_and_one(self):
        buf = np.arange(32, dtype=np.uint8)
        out = np.full(32, 0xAB, dtype=np.uint8)
        assert (GF256.mul_bytes(0, buf, out=out) == 0).all()
        out = np.full(32, 0xAB, dtype=np.uint8)
        assert (GF256.mul_bytes(1, buf, out=out) == buf).all()

    def test_matmul_bytes_into_out(self):
        rng = np.random.default_rng(21)
        mat = rng.integers(0, 256, (3, 4), dtype=np.uint8)
        shards = rng.integers(0, 256, (4, 64), dtype=np.uint8)
        out = np.full((3, 64), 0xFF, dtype=np.uint8)
        res = GF256.matmul_bytes(mat, shards, out=out)
        assert res is out
        assert (res == GF256.matmul_bytes(mat, shards)).all()

    def test_matmul_bytes_accumulate_xors_into_out(self):
        rng = np.random.default_rng(22)
        mat = rng.integers(0, 256, (2, 3), dtype=np.uint8)
        shards = rng.integers(0, 256, (3, 16), dtype=np.uint8)
        base = rng.integers(0, 256, (2, 16), dtype=np.uint8)
        out = base.copy()
        GF256.matmul_bytes(mat, shards, out=out, accumulate=True)
        assert (out == (base ^ GF256.matmul_bytes(mat, shards))).all()

    def test_addmul_no_steady_state_allocation(self, monkeypatch):
        # The scratch pool must be reused: two same-size calls, one buffer.
        # The pool is per-thread (threading.local), so read this thread's.
        # The gather path is the one that uses scratch, so mask native.
        from repro.erasure import gf256

        monkeypatch.setattr(GF256, "_NATIVE", None)
        acc = np.zeros(4096, dtype=np.uint8)
        buf = np.ones(4096, dtype=np.uint8)
        GF256.addmul_bytes(acc, 7, buf)
        snapshot = {k: v.ctypes.data for k, v in gf256._SCRATCH.pool.items()}
        GF256.addmul_bytes(acc, 9, buf)
        after = {k: v.ctypes.data for k, v in gf256._SCRATCH.pool.items()}
        assert snapshot == after


# Shapes chosen to cross kernel tails: odd/even column counts (the wide
# kernel fuses coefficient columns two at a time), one and two groups of
# four packed rows, empty dims, single bytes, and payloads crossing
# WIDE_CHUNK column boundaries (16385 = one chunk plus an odd column).
KERNEL_SHAPES = [
    (1, 1, 1),
    (2, 3, 5),
    (3, 6, 64),
    (4, 7, 1000),
    (3, 4, 0),
    (0, 3, 16),
    (2, 5, 40000),
    (5, 5, 16385),
]


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", GF256.available_kernels())
    @pytest.mark.parametrize("r,k,length", KERNEL_SHAPES)
    def test_kernel_matches_reference(self, name, r, k, length):
        rng = np.random.default_rng(r * 1000 + k * 100 + length)
        mat = rng.integers(0, 256, (r, k), dtype=np.uint8)
        if r and k:
            mat[0, 0] = 0  # exercise the zero-coefficient skip
            mat[-1, -1] = 1  # and the xor-only path
        shards = rng.integers(0, 256, (k, length), dtype=np.uint8)
        expected = np.zeros((r, length), dtype=np.uint8)
        GF256._kernel_reference(mat, shards, expected)
        GF256.set_kernel(name)
        try:
            got = GF256.matmul_bytes(mat, shards)
        finally:
            GF256.set_kernel(None)
        assert (got == expected).all()

    def test_set_kernel_rejects_unknown(self):
        with pytest.raises(ValueError):
            GF256.set_kernel("simd9000")

    @pytest.mark.parametrize("name", GF256.available_kernels())
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_matmul_rows_column_range_matches_reference(self, name, accumulate):
        rng = np.random.default_rng(40 + accumulate)
        r, k, length, offset, width = 5, 3, 5000, 1029, 2051
        mat = rng.integers(0, 256, (r, k), dtype=np.uint8)
        shard_rows = [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(k)]
        out_rows = [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(r)]
        want = [row.copy() for row in out_rows]
        cols = slice(offset, offset + width)
        if not accumulate:
            for row in want:
                row[cols] = 0
        GF256._kernel_reference(
            mat, [row[cols] for row in shard_rows], [row[cols] for row in want]
        )
        GF256.set_kernel(name)
        try:
            GF256.matmul_rows(
                mat, shard_rows, out_rows, offset=offset, length=width,
                accumulate=accumulate,
            )
        finally:
            GF256.set_kernel(None)
        for got, exp in zip(out_rows, want):
            assert np.array_equal(got, exp)  # columns outside the range untouched


class TestKernelSelection:
    """Which kernel runs, read back from the per-kernel pass counters."""

    SIZES = (64, 1 << 16)

    def _counts(self) -> dict[str, int]:
        rng = np.random.default_rng(50)
        mat = rng.integers(0, 256, (3, 6), dtype=np.uint8)
        GF256.reset_kernel_stats()
        for length in self.SIZES:
            GF256.matmul_bytes(mat, rng.integers(0, 256, (6, length), dtype=np.uint8))
        stats = GF256.KERNEL_STATS.snapshot()
        return {name: stats.get(name, 0) for name in ("reference", "wide", "native")}

    @pytest.mark.skipif(GF256.native_kernel() is None, reason="native kernel unavailable")
    def test_native_runs_every_width_when_loaded(self):
        assert self._counts() == {"reference": 0, "wide": 0, "native": 2}
        assert GF256.selected_kernels() == {"matrix": "native", "payload": "native"}

    def test_numpy_fallback_splits_at_tiny_cutoff(self, monkeypatch):
        monkeypatch.setattr(GF256, "_NATIVE", None)
        assert GF256.available_kernels() == ("reference", "wide")
        assert self._counts() == {"reference": 1, "wide": 1, "native": 0}
        assert GF256.selected_kernels() == {"matrix": "reference", "payload": "wide"}

    @pytest.mark.parametrize("name", GF256.available_kernels())
    def test_forced_kernel_runs_every_width(self, name):
        GF256.set_kernel(name)
        try:
            counts = self._counts()
            assert GF256.selected_kernels() == {"matrix": name, "payload": name}
        finally:
            GF256.set_kernel(None)
        assert counts == {n: (2 if n == name else 0) for n in counts}

    def test_import_runs_no_kernel_pass(self):
        import os
        import subprocess
        import sys

        # Any kernel pass, counted or not, grows this thread's scratch pool.
        script = (
            "from repro.erasure import gf256\n"
            "assert gf256.GF256.KERNEL_STATS.snapshot() == {'matmul_calls': 0}\n"
            "assert not hasattr(gf256._SCRATCH, 'pool')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestKernelStats:
    def test_matmul_calls_count_each_pass(self):
        rng = np.random.default_rng(30)
        mat = rng.integers(0, 256, (2, 3), dtype=np.uint8)
        shards = rng.integers(0, 256, (3, 2048), dtype=np.uint8)
        GF256.reset_kernel_stats()
        GF256.matmul_bytes(mat, shards)
        GF256.matmul_bytes(mat, shards)
        assert GF256.KERNEL_STATS["matmul_calls"] == 2

    def test_empty_products_do_not_count(self):
        GF256.reset_kernel_stats()
        GF256.matmul_bytes(np.zeros((0, 3), np.uint8), np.zeros((3, 8), np.uint8))
        GF256.matmul_bytes(np.zeros((2, 3), np.uint8), np.zeros((3, 0), np.uint8))
        assert GF256.KERNEL_STATS["matmul_calls"] == 0

    def test_delta_updates_do_not_count(self):
        acc = np.zeros(4096, np.uint8)
        buf = np.arange(4096, dtype=np.uint32).astype(np.uint8)
        GF256.reset_kernel_stats()
        for c in (1, 2, 255):
            GF256.addmul_bytes(acc, c, buf)
        assert GF256.KERNEL_STATS["matmul_calls"] == 0

    @pytest.mark.skipif(GF256.native_kernel() is None, reason="native kernel unavailable")
    def test_concurrent_passes_lose_no_increments(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(31)
        mat = rng.integers(1, 256, (1, 2), dtype=np.uint8)
        rows = [rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(2)]
        threads, per_thread = 8, 400

        def worker(_):
            out = [np.zeros(64, np.uint8)]
            for _ in range(per_thread):
                GF256.matmul_rows(mat, rows, out)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches mid-increment
        GF256.reset_kernel_stats()
        try:
            with ThreadPoolExecutor(threads) as pool:
                list(pool.map(worker, range(threads)))
        finally:
            sys.setswitchinterval(old_interval)
        assert GF256.KERNEL_STATS["matmul_calls"] == threads * per_thread
        assert GF256.KERNEL_STATS["native"] == threads * per_thread


def _addmul_reference(acc: np.ndarray, c: int, buf: np.ndarray) -> np.ndarray:
    return acc ^ GF256.MUL[c][buf]


class _SpyKernel:
    """Wraps the native kernel handle and counts its matrix passes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def matmul_ptrs(self, *args):
        self.calls += 1
        return self.inner.matmul_ptrs(*args)

    def __getattr__(self, name):  # row_ptrs and the tables
        return getattr(self.inner, name)


class TestAddmulBytes:
    @pytest.fixture
    def spy(self, monkeypatch):
        nat = GF256.native_kernel()
        if nat is None:
            pytest.skip("native kernel unavailable")
        spy = _SpyKernel(nat)
        monkeypatch.setattr(GF256, "_NATIVE", spy)
        return spy

    @pytest.mark.parametrize("c", [0, 1, 2, 255])
    @pytest.mark.parametrize("length", [1, 3, 31, 33, 4097, 65537])
    def test_native_matches_table(self, spy, c, length):
        rng = np.random.default_rng(length * 256 + c)
        acc = rng.integers(0, 256, length, dtype=np.uint8)
        buf = rng.integers(0, 256, length, dtype=np.uint8)
        want = _addmul_reference(acc, c, buf)
        GF256.addmul_bytes(acc, c, buf)
        assert np.array_equal(acc, want)
        # c = 0 is a no-op and c = 1 a plain XOR; every other
        # coefficient is one native 1x1 pass.
        assert spy.calls == (1 if c >= 2 else 0)

    @pytest.mark.parametrize("c", [2, 255])
    def test_non_contiguous_input_falls_back(self, spy, c):
        rng = np.random.default_rng(c)
        acc = rng.integers(0, 256, 1001, dtype=np.uint8)
        wide = rng.integers(0, 256, 2002, dtype=np.uint8)
        buf = wide[::2]
        want = _addmul_reference(acc, c, buf)
        GF256.addmul_bytes(acc, c, buf)
        assert np.array_equal(acc, want)
        strided_acc = np.zeros(2002, np.uint8)[::2]
        GF256.addmul_bytes(strided_acc, c, buf)
        assert np.array_equal(strided_acc, GF256.MUL[c][buf])
        assert spy.calls == 0

    def test_numpy_fallback_without_native_kernel(self):
        import os
        import subprocess
        import sys

        script = (
            "import numpy as np\n"
            "from repro.erasure.gf256 import GF256\n"
            "assert GF256.native_kernel() is None\n"
            "rng = np.random.default_rng(5)\n"
            "for c in (0, 1, 2, 255):\n"
            "    for n in (1, 3, 33, 4097):\n"
            "        acc = rng.integers(0, 256, n, dtype=np.uint8)\n"
            "        buf = rng.integers(0, 256, n, dtype=np.uint8)\n"
            "        want = acc ^ GF256.MUL[c][buf]\n"
            "        GF256.addmul_bytes(acc, c, buf)\n"
            "        assert np.array_equal(acc, want), (c, n)\n"
        )
        env = dict(os.environ, REPRO_GF_NATIVE="0")
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
