"""Reed-Solomon encode/decode/update tests, including property-based ones."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.reedsolomon import RSCode, StripeCodec


def make_shards(rng, k, length):
    return [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(k)]


class TestRSCodeConstruction:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            RSCode(0, 1)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            RSCode(3, -1)

    def test_field_size_bound(self):
        with pytest.raises(ValueError):
            RSCode(200, 100)

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            RSCode(3, 1, construction="zigzag")

    def test_n_property(self):
        code = RSCode(3, 2)
        assert code.n == 5


@pytest.mark.parametrize("construction", ["cauchy", "vandermonde"])
class TestEncodeDecode:
    def test_roundtrip_no_loss(self, construction):
        rng = np.random.default_rng(0)
        code = RSCode(3, 2, construction)
        data = make_shards(rng, 3, 100)
        present = {i: d for i, d in enumerate(data)}
        rec = code.decode(present)
        assert all((a == b).all() for a, b in zip(rec, data))

    def test_all_single_erasures(self, construction):
        rng = np.random.default_rng(1)
        code = RSCode(4, 2, construction)
        data = make_shards(rng, 4, 64)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        for lost in range(code.n):
            present = {i: s for i, s in full.items() if i != lost}
            rec = code.decode(present)
            assert all((a == b).all() for a, b in zip(rec, data))

    def test_all_double_erasures(self, construction):
        rng = np.random.default_rng(2)
        code = RSCode(4, 2, construction)
        data = make_shards(rng, 4, 32)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        for lost in itertools.combinations(range(code.n), 2):
            present = {i: s for i, s in full.items() if i not in lost}
            rec = code.decode(present)
            assert all((a == b).all() for a, b in zip(rec, data))

    def test_too_many_erasures_raises(self, construction):
        rng = np.random.default_rng(3)
        code = RSCode(3, 1, construction)
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        present = {0: data[0], 3: parity[0]}  # only 2 of 3 needed shards
        with pytest.raises(ValueError, match="unrecoverable"):
            code.decode(present)


class TestEncodeValidation:
    def test_wrong_shard_count(self):
        code = RSCode(3, 1)
        with pytest.raises(ValueError):
            code.encode([np.zeros(8, np.uint8)] * 2)

    def test_unequal_lengths(self):
        code = RSCode(2, 1)
        with pytest.raises(ValueError):
            code.encode([np.zeros(8, np.uint8), np.zeros(9, np.uint8)])

    def test_decode_index_out_of_range(self):
        code = RSCode(2, 1)
        with pytest.raises(IndexError):
            code.decode({0: np.zeros(4, np.uint8), 5: np.zeros(4, np.uint8)})

    def test_zero_parity_code(self):
        code = RSCode(3, 0)
        data = [np.arange(4, dtype=np.uint8)] * 3
        assert code.encode(data) == []


class TestParityUpdate:
    @pytest.mark.parametrize("k,m", [(3, 1), (4, 2), (6, 3)])
    def test_delta_update_matches_reencode(self, k, m):
        rng = np.random.default_rng(k * 10 + m)
        code = RSCode(k, m)
        data = make_shards(rng, k, 50)
        parity = code.encode(data)
        for j in range(k):
            new = rng.integers(0, 256, 50, dtype=np.uint8)
            updated = code.update_parity(parity, j, data[j], new)
            reference = code.encode(data[:j] + [new] + data[j + 1 :])
            assert all((a == b).all() for a, b in zip(updated, reference))

    def test_update_out_of_range(self):
        code = RSCode(3, 1)
        with pytest.raises(IndexError):
            code.update_parity([np.zeros(4, np.uint8)], 3, np.zeros(4, np.uint8), np.zeros(4, np.uint8))

    def test_update_wrong_parity_count(self):
        code = RSCode(3, 2)
        with pytest.raises(ValueError):
            code.update_parity([np.zeros(4, np.uint8)], 0, np.zeros(4, np.uint8), np.zeros(4, np.uint8))

    def test_noop_update(self):
        rng = np.random.default_rng(9)
        code = RSCode(3, 1)
        data = make_shards(rng, 3, 20)
        parity = code.encode(data)
        updated = code.update_parity(parity, 1, data[1], data[1])
        assert (updated[0] == parity[0]).all()


class TestReconstructShard:
    def test_reconstruct_data_shard(self):
        rng = np.random.default_rng(4)
        code = RSCode(3, 2)
        data = make_shards(rng, 3, 24)
        parity = code.encode(data)
        present = {0: data[0], 2: data[2], 3: parity[0]}
        rec = code.reconstruct_shard(present, 1)
        assert (rec == data[1]).all()

    def test_reconstruct_parity_shard(self):
        rng = np.random.default_rng(5)
        code = RSCode(3, 2)
        data = make_shards(rng, 3, 24)
        parity = code.encode(data)
        present = {0: data[0], 1: data[1], 2: data[2]}
        rec = code.reconstruct_shard(present, 4)
        assert (rec == parity[1]).all()

    def test_reconstruct_present_shard_copies(self):
        rng = np.random.default_rng(6)
        code = RSCode(2, 1)
        data = make_shards(rng, 2, 8)
        rec = code.reconstruct_shard({0: data[0], 1: data[1]}, 0)
        assert (rec == data[0]).all()
        rec[0] ^= 0xFF
        assert rec[0] != data[0][0]  # returned buffer must not alias input

    def test_reconstruct_out_of_range(self):
        code = RSCode(2, 1)
        with pytest.raises(IndexError):
            code.reconstruct_shard({0: np.zeros(4, np.uint8)}, 9)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 6),
    m=st.integers(1, 3),
    length=st.integers(1, 128),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_property_any_m_erasures_recoverable(k, m, length, seed, data):
    """MDS property end-to-end: losing any <= m shards is always recoverable."""
    rng = np.random.default_rng(seed)
    code = RSCode(k, m)
    shards = make_shards(rng, k, length)
    parity = code.encode(shards)
    full = {i: s for i, s in enumerate(shards + parity)}
    n_lost = data.draw(st.integers(0, m))
    lost = data.draw(
        st.lists(st.integers(0, code.n - 1), min_size=n_lost, max_size=n_lost, unique=True)
    )
    present = {i: s for i, s in full.items() if i not in lost}
    rec = code.decode(present)
    assert all((a == b).all() for a, b in zip(rec, shards))


class TestStripeCodec:
    def test_unequal_object_sizes(self):
        rng = np.random.default_rng(7)
        sc = StripeCodec(3, 2)
        objs = [rng.integers(0, 256, n, dtype=np.uint8) for n in (50, 64, 33)]
        stripe = sc.encode_objects(objs)
        assert stripe.shard_len == 64
        present = {1: stripe.shards[1], 3: stripe.shards[3], 4: stripe.shards[4]}
        rec = sc.decode_objects(stripe.lengths, present)
        assert all((a == b).all() for a, b in zip(rec, objs))

    def test_wrong_object_count(self):
        sc = StripeCodec(3, 1)
        with pytest.raises(ValueError):
            sc.encode_objects([np.zeros(4, np.uint8)] * 2)

    def test_empty_objects_rejected(self):
        sc = StripeCodec(2, 1)
        with pytest.raises(ValueError):
            sc.encode_objects([np.zeros(0, np.uint8), np.zeros(0, np.uint8)])

    def test_lengths_must_match_k(self):
        sc = StripeCodec(2, 1)
        objs = [np.ones(4, np.uint8), np.ones(4, np.uint8)]
        stripe = sc.encode_objects(objs)
        with pytest.raises(ValueError):
            sc.decode_objects([4], {0: stripe.shards[0], 1: stripe.shards[1]})


class TestXorConstruction:
    def test_parity_is_xor(self):
        rng = np.random.default_rng(0)
        code = RSCode(4, 1, "xor")
        data = make_shards(rng, 4, 32)
        parity = code.encode(data)
        expected = data[0] ^ data[1] ^ data[2] ^ data[3]
        assert (parity[0] == expected).all()

    def test_single_erasure_recovery(self):
        rng = np.random.default_rng(1)
        code = RSCode(3, 1, "xor")
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        for lost in range(4):
            present = {i: s for i, s in full.items() if i != lost}
            rec = code.decode(present)
            assert all((a == b).all() for a, b in zip(rec, data))

    def test_delta_update(self):
        rng = np.random.default_rng(2)
        code = RSCode(3, 1, "xor")
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        new = rng.integers(0, 256, 16, dtype=np.uint8)
        updated = code.update_parity(parity, 1, data[1], new)
        ref = code.encode([data[0], new, data[2]])
        assert (updated[0] == ref[0]).all()

    def test_rejects_multi_parity(self):
        with pytest.raises(ValueError):
            RSCode(3, 2, "xor")

    def test_mds_for_single_parity(self):
        code = RSCode(4, 1, "xor")
        assert code.generator.is_mds_generator(4)

    def test_end_to_end_service_with_xor(self):
        from repro import ReplicationPolicy, ErasurePolicy, StagingConfig, StagingService

        svc = StagingService(
            StagingConfig(
                n_servers=8,
                domain_shape=(32, 32, 32),
                element_bytes=1,
                object_max_bytes=4096,
                rs_construction="xor",
                seed=1,
            ),
            ErasurePolicy(),
        )

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()
            yield from svc.flush()
            svc.fail_server(1)
            _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0


def all_erasure_patterns(n, m):
    """Every way to lose at most m of n shards."""
    for r in range(m + 1):
        yield from itertools.combinations(range(n), r)


def roundtrip_configs():
    for k in (1, 3, 6, 10):
        for m in (0, 1, 3, 4):
            for construction in ("cauchy", "vandermonde"):
                yield k, m, construction
            if m <= 1:
                yield k, m, "xor"


@pytest.mark.parametrize("k,m,construction", list(roundtrip_configs()))
def test_roundtrip_every_erasure_pattern(k, m, construction):
    """Exhaustive MDS check: every erasure pattern of size <= m round-trips,
    and the batch APIs are byte-identical to the per-stripe ones."""
    rng = np.random.default_rng(1000 * k + 10 * m)
    code = RSCode(k, m, construction, decode_cache_capacity=2048)
    data = make_shards(rng, k, 8)
    parity = code.encode(data)
    full = {i: s for i, s in enumerate(data + parity)}

    jobs = []
    for lost in all_erasure_patterns(code.n, m):
        present = {i: s for i, s in full.items() if i not in lost}
        rec = code.decode(present)
        assert all((a == b).all() for a, b in zip(rec, data))
        jobs.append(present)

    # Batch APIs must agree byte-for-byte with the per-stripe calls.
    batch_parity = code.encode_batch([data])[0]
    assert all((a == b).all() for a, b in zip(batch_parity, parity))
    for rec in code.decode_batch(jobs):
        assert all((a == b).all() for a, b in zip(rec, data))


class TestBatchAPIs:
    def test_encode_batch_matches_per_stripe(self):
        rng = np.random.default_rng(40)
        code = RSCode(4, 2)
        # Mixed shard lengths force multiple length groups in one batch.
        stripes = [make_shards(rng, 4, n) for n in (64, 32, 64, 17, 32, 64)]
        batched = code.encode_batch(stripes)
        for shards, parity in zip(stripes, batched):
            ref = code.encode(shards)
            assert all((a == b).all() for a, b in zip(parity, ref))
            assert all(p.flags["C_CONTIGUOUS"] for p in parity)

    def test_encode_batch_empty_and_zero_parity(self):
        code = RSCode(3, 0)
        assert code.encode_batch([]) == []
        stripes = [make_shards(np.random.default_rng(41), 3, 8)]
        assert code.encode_batch(stripes) == [[]]

    def test_encode_batch_validates_each_stripe(self):
        code = RSCode(3, 1)
        good = make_shards(np.random.default_rng(42), 3, 8)
        with pytest.raises(ValueError):
            code.encode_batch([good, good[:2]])

    def test_decode_batch_matches_per_stripe(self):
        rng = np.random.default_rng(43)
        code = RSCode(4, 2)
        jobs = []
        refs = []
        for seed, lost in enumerate([(0,), (1, 3), (), (5,), (1, 3)]):
            data = make_shards(rng, 4, 24 + seed)
            parity = code.encode(data)
            full = {i: s for i, s in enumerate(data + parity)}
            jobs.append({i: s for i, s in full.items() if i not in lost})
            refs.append(data)
        for rec, data in zip(code.decode_batch(jobs), refs):
            assert all((a == b).all() for a, b in zip(rec, data))

    def test_decode_batch_unrecoverable_raises(self):
        code = RSCode(3, 1)
        with pytest.raises(ValueError, match="unrecoverable"):
            code.decode_batch([{0: np.zeros(4, np.uint8)}])

    @staticmethod
    def _pinned_bytes(arr):
        """Largest buffer on ``arr``'s ``.base`` chain: what it keeps alive."""
        pinned = arr.nbytes
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
            pinned = max(pinned, arr.nbytes)
        return pinned

    def test_batch_results_do_not_pin_the_fused_product(self):
        """A stored shard must not keep the rest of its batch's product alive."""
        rng = np.random.default_rng(44)
        code = RSCode(4, 2)
        length = 4096
        # 32 stripes share one length group; the odd length is a lone group.
        stripes = [make_shards(rng, 4, length) for _ in range(32)] + [make_shards(rng, 4, 100)]
        encoded = code.encode_batch(stripes)
        for shards, parity in zip(stripes, encoded):
            assert all((a == b).all() for a, b in zip(parity, code.encode(shards)))
            stripe_bytes = code.m * shards[0].size
            assert max(self._pinned_bytes(p) for p in parity) <= stripe_bytes

        jobs = [
            {i: s for i, s in enumerate(data + parity) if i not in (0, 2)}
            for data, parity in zip(stripes, encoded)
        ]
        for data, rec in zip(stripes, code.decode_batch(jobs)):
            assert all((a == b).all() for a, b in zip(rec, data))
            stripe_bytes = code.k * data[0].size
            assert max(self._pinned_bytes(d) for d in rec) <= stripe_bytes

    def test_encode_objects_batch_matches_per_group(self):
        rng = np.random.default_rng(44)
        sc = StripeCodec(3, 2)
        groups = [
            [rng.integers(0, 256, n, dtype=np.uint8) for n in sizes]
            for sizes in [(50, 64, 33), (16, 16, 16), (50, 64, 33)]
        ]
        batched = sc.encode_objects_batch(groups)
        for group, stripe in zip(groups, batched):
            ref = sc.encode_objects(group)
            assert stripe.lengths == ref.lengths
            assert all((a == b).all() for a, b in zip(stripe.shards, ref.shards))

    def test_encode_objects_batch_validates(self):
        sc = StripeCodec(2, 1)
        with pytest.raises(ValueError):
            sc.encode_objects_batch([[np.ones(4, np.uint8)]])


class TestDecodeCacheLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RSCode(3, 1, decode_cache_capacity=0)

    def test_cache_stays_bounded_and_evicts(self):
        rng = np.random.default_rng(50)
        code = RSCode(4, 4, decode_cache_capacity=4)
        data = make_shards(rng, 4, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        patterns = list(itertools.combinations(range(code.n), 2))
        for lost in patterns:  # 28 distinct patterns through a 4-entry cache
            code.decode({i: s for i, s in full.items() if i not in lost})
        assert len(code._decode_cache) <= 4
        assert code.decode_cache_evictions > 0
        assert code.decode_cache_misses > 4  # more distinct inversions than fit

    def test_hot_pattern_survives_cold_sweep(self):
        rng = np.random.default_rng(51)
        code = RSCode(4, 4, decode_cache_capacity=4)
        data = make_shards(rng, 4, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        hot = {i: s for i, s in full.items() if i not in (1, 2)}
        code.decode(hot)  # one miss to warm the hot pattern
        # Each cold loss pair maps to a distinct chosen-survivor set, so
        # every cold decode below is a genuine miss.
        cold_patterns = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
        for lost in cold_patterns:
            # Re-touching the hot pattern between cold one-offs keeps it at
            # the warm end of the LRU, so it must never be re-inverted.
            code.decode(hot)
            code.decode({i: s for i, s in full.items() if i not in lost})
        misses_for_hot = code.decode_cache_misses - len(cold_patterns) - 1
        assert misses_for_hot == 0
        assert len(code._decode_cache) <= 4

    def test_warm_decode_cache_builds_misses_only(self):
        rng = np.random.default_rng(52)
        code = RSCode(3, 2)
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        survivors = tuple(sorted(i for i in full if i not in (0,)))
        built = code.warm_decode_cache([survivors, survivors, (0, 1, 2)])
        assert built == 1  # duplicate and the all-data fast path build nothing
        code.decode({i: s for i, s in full.items() if i != 0})
        assert code.decode_cache_hits == 1

    def test_warm_decode_cache_skips_short_patterns(self):
        code = RSCode(3, 1)
        assert code.warm_decode_cache([(0, 1)]) == 0


class TestDecodeCache:
    def test_cache_hits_on_repeated_pattern(self):
        rng = np.random.default_rng(11)
        code = RSCode(4, 2)
        data = make_shards(rng, 4, 32)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        present = {i: s for i, s in full.items() if i not in (1, 3)}
        for _ in range(5):
            rec = code.decode(present)
            assert all((a == b).all() for a, b in zip(rec, data))
        assert code.decode_cache_misses == 1
        assert code.decode_cache_hits == 4

    def test_distinct_patterns_distinct_entries(self):
        rng = np.random.default_rng(12)
        code = RSCode(3, 2)
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        code.decode({i: s for i, s in full.items() if i != 0})
        code.decode({i: s for i, s in full.items() if i != 1})
        assert code.decode_cache_misses == 2

    def test_fast_path_skips_cache(self):
        rng = np.random.default_rng(13)
        code = RSCode(3, 1)
        data = make_shards(rng, 3, 8)
        code.decode({i: d for i, d in enumerate(data)})
        assert code.decode_cache_misses == 0
