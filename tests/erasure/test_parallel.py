"""Stripe-parallel codec passes are byte-identical to serial ones.

``RSCode.parallel_map`` splits large kernel products into column-range
tasks.  Columns of a GF(2^8) matrix product are independent, so any
split must reproduce the serial bytes exactly — for every registered
kernel (native included when loaded), every worker count, and the
awkward shapes (zero-length shards, lengths that are not multiples of
k or of the 4 KiB split alignment).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.gf256 import GF256
from repro.erasure.reedsolomon import RSCode, StripeCodec

COMMON = dict(deadline=None, derandomize=True)


def _make_parallel(code: RSCode, pool_map, max_tasks: int = 8) -> None:
    """Force column splits on small payloads so tests stay fast."""
    code.parallel_map = pool_map
    code.parallel_min_bytes = 1
    code.parallel_chunk_bytes = 4096
    code.parallel_max_tasks = max_tasks


def _pool_map(workers: int):
    def run(tasks):
        with ThreadPoolExecutor(max_workers=workers) as ex:
            for fut in [ex.submit(t) for t in tasks]:
                fut.result()

    return run


def _random_stripes(rng, k: int, n_stripes: int) -> list[list[np.ndarray]]:
    stripes = []
    for _ in range(n_stripes):
        # Mix of lengths: big enough to split, plus tiny/empty tails.
        length = int(rng.choice([0, 1, 4097, 20000, 40001]))
        stripes.append(
            [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
        )
    return stripes


@pytest.mark.parametrize("kernel", GF256.available_kernels())
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_parallel_encode_batch_matches_serial(kernel, workers):
    rng = np.random.default_rng(workers * 101 + len(kernel))
    k, m = 4, 2
    stripes = _random_stripes(rng, k, 5)
    GF256.set_kernel(kernel)
    try:
        serial = RSCode(k, m).encode_batch(stripes)
        par_code = RSCode(k, m)
        _make_parallel(par_code, _pool_map(workers))
        parallel = par_code.encode_batch(stripes)
    finally:
        GF256.set_kernel(None)
    assert par_code.parallel_stats["passes"] >= 1
    for want, got in zip(serial, parallel):
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("kernel", GF256.available_kernels())
@pytest.mark.parametrize("workers", [1, 2, 5, 8])
def test_parallel_decode_batch_matches_serial(kernel, workers):
    rng = np.random.default_rng(workers * 211 + len(kernel))
    k, m = 4, 2
    jobs = []
    for stripe in _random_stripes(rng, k, 4):
        if not stripe[0].size:
            continue
        shards = stripe + RSCode(k, m).encode(stripe)
        lost = rng.choice(k + m, size=int(rng.integers(0, m + 1)), replace=False)
        jobs.append({i: shards[i] for i in range(k + m) if i not in lost})
    GF256.set_kernel(kernel)
    try:
        serial = RSCode(k, m).decode_batch(jobs)
        par_code = RSCode(k, m)
        _make_parallel(par_code, _pool_map(workers))
        parallel = par_code.decode_batch(jobs)
    finally:
        GF256.set_kernel(None)
    for want, got in zip(serial, parallel):
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", list(range(1, 9)))
def test_parallel_encode_objects_batch_matches_serial(workers):
    """Variable-size object groups through the padded codec adapter."""
    rng = np.random.default_rng(workers)
    k, m = 3, 2
    groups = []
    for _ in range(4):
        lengths = rng.integers(0, 30000, size=k)
        lengths[int(rng.integers(k))] = 24001  # non-multiple-of-4096 pad target
        groups.append(
            [rng.integers(0, 256, size=int(n), dtype=np.uint8) for n in lengths]
        )
    serial = StripeCodec(k, m).encode_objects_batch(groups)
    par = StripeCodec(k, m)
    _make_parallel(par.code, _pool_map(workers))
    parallel = par.encode_objects_batch(groups)
    for want, got in zip(serial, parallel):
        assert want.lengths == got.lengths
        for a, b in zip(want.shards, got.shards):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_parallel_reconstruct_shard_matches_serial(workers):
    rng = np.random.default_rng(workers * 7)
    k, m = 5, 3
    data = [rng.integers(0, 256, size=30000, dtype=np.uint8) for _ in range(k)]
    code = RSCode(k, m)
    shards = data + code.encode(data)
    par = RSCode(k, m)
    _make_parallel(par, _pool_map(workers))
    for target in range(k + m):
        present = {i: shards[i] for i in range(k + m) if i != target}
        got = par.reconstruct_shard(present, target)
        assert np.array_equal(shards[target], got)


@settings(max_examples=15, **COMMON)
@given(
    st.integers(2, 6),
    st.integers(1, 3),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_parallel_split_property(k, m, workers, seed):
    """Random shapes: the split never changes a byte, pass counters move."""
    rng = np.random.default_rng(seed)
    n_stripes = int(rng.integers(1, 4))
    stripes = []
    for _ in range(n_stripes):
        length = int(rng.integers(1, 50000))
        stripes.append(
            [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
        )
    serial = RSCode(k, m).encode_batch(stripes)
    par = RSCode(k, m)
    _make_parallel(par, _pool_map(workers))
    parallel = par.encode_batch(stripes)
    stats = par.parallel_stats
    assert stats["passes"] + stats["serial_passes"] >= 1
    for want, got in zip(serial, parallel):
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


def test_parallel_task_exception_propagates():
    """A worker failure must surface, not silently corrupt the pass."""
    k, m = 2, 1
    code = RSCode(k, m)

    def broken_map(tasks):
        raise RuntimeError("codec pool down")

    _make_parallel(code, broken_map)
    data = [(np.arange(20000) % 256).astype(np.uint8) for _ in range(k)]
    with pytest.raises(RuntimeError, match="codec pool down"):
        code.encode(data)


def test_serial_below_threshold():
    """Small products never fan out (the split overhead would dominate)."""
    code = RSCode(3, 2)
    calls = []

    def spy_map(tasks):
        calls.append(len(tasks))
        for t in tasks:
            t()

    code.parallel_map = spy_map  # thresholds left at defaults
    data = [(np.arange(512) % 256).astype(np.uint8) for _ in range(3)]
    code.encode(data)
    assert calls == []  # under parallel_min_bytes -> single inline task
    assert code.parallel_stats["serial_passes"] >= 1
