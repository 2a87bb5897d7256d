"""Tests for the object model (ids, entities, stripes)."""

import numpy as np
import pytest

from repro.staging.domain import BBox
from repro.staging.objects import (
    BlockEntity,
    DataObject,
    ObjectId,
    ResilienceState,
    StripeInfo,
    payload_digest,
)


class TestObjectId:
    def test_key(self):
        oid = ObjectId("temp", 3, 7)
        assert oid.key() == "temp/3@7"

    def test_entity_key(self):
        assert ObjectId("temp", 3, 7).entity_key() == ("temp", 3)

    def test_frozen(self):
        oid = ObjectId("a", 0, 0)
        with pytest.raises(AttributeError):
            oid.version = 1


class TestPayloadDigest:
    def test_deterministic(self):
        a = np.arange(100, dtype=np.uint8)
        assert payload_digest(a) == payload_digest(a.copy())

    def test_distinct(self):
        a = np.zeros(10, dtype=np.uint8)
        b = np.ones(10, dtype=np.uint8)
        assert payload_digest(a) != payload_digest(b)

    @pytest.mark.parametrize(
        "make",
        [
            lambda a: a.ravel(),  # contiguous 1-D
            lambda a: a,  # contiguous n-D
            lambda a: a[:, ::2],  # strided
            lambda a: a.T,  # transposed (Fortran-ordered)
            lambda a: a.ravel()[:0],  # empty
            lambda a: np.zeros((3, 0), dtype=np.uint8),  # empty n-D
            lambda a: a.astype(np.int32),  # non-uint8: values cast, as before
            lambda a: a[0, 0, :4].astype(np.float64),
        ],
        ids=["1d", "nd", "strided", "transposed", "empty", "empty-nd", "int32", "float64"],
    )
    def test_buffer_hash_matches_tobytes_digest(self, make):
        """Hashing the array's buffer gives the digest of its ``.tobytes()`` copy."""
        import hashlib

        a = np.random.default_rng(3).integers(0, 256, size=(4, 6, 5), dtype=np.uint8)
        data = make(a)
        old = hashlib.blake2b(
            np.ascontiguousarray(data, dtype=np.uint8).tobytes(), digest_size=12
        ).hexdigest()
        assert payload_digest(data) == old


class TestDataObject:
    def test_payload_flattened_to_uint8(self):
        obj = DataObject(ObjectId("v", 0, 0), BBox((0,), (4,)), np.arange(4, dtype=np.int64))
        assert obj.payload.dtype == np.uint8
        assert obj.payload.ndim == 1

    def test_nbytes(self):
        obj = DataObject(ObjectId("v", 0, 0), BBox((0,), (4,)), np.zeros(16, np.uint8))
        assert obj.nbytes == 16


class TestBlockEntity:
    def make(self):
        return BlockEntity(name="v", block_id=2, bbox=BBox((0,), (4,)), primary=1)

    def test_initial_state(self):
        e = self.make()
        assert e.version == -1
        assert e.state == ResilienceState.NONE
        assert e.ref_counter == 0

    def test_record_write_increments(self):
        e = self.make()
        e.record_write(1.0, 0, 100, "d1")
        e.record_write(2.0, 1, 100, "d2")
        assert e.version == 1
        assert e.write_count == 2
        assert e.ref_counter == 2
        assert e.last_write_step == 1
        assert e.digest == "d2"

    def test_reset_ref_counter(self):
        e = self.make()
        e.record_write(1.0, 0, 100, "d")
        e.reset_ref_counter()
        assert e.ref_counter == 0
        assert e.write_count == 1  # lifetime count unaffected

    def test_keys(self):
        e = self.make()
        e.record_write(0.0, 0, 4, "d")
        assert e.key == ("v", 2)
        assert e.current_oid == ObjectId("v", 2, 0)
        assert e.primary_key() == "v/2"


class TestStripeInfo:
    def make(self):
        return StripeInfo(
            stripe_id=5,
            k=3,
            m=1,
            members=[("v", 0), None, ("v", 2)],
            member_versions={("v", 0): 1, ("v", 2): 2},
            shard_servers=[0, 1, 2, 3],
            lengths=[10, 0, 8],
            shard_len=10,
        )

    def test_servers(self):
        s = self.make()
        assert s.data_servers() == [0, 1, 2]
        assert s.parity_servers() == [3]

    def test_shard_key(self):
        assert self.make().shard_key(3) == "stripe5/shard3"

    def test_member_index(self):
        s = self.make()
        assert s.member_shard_index(("v", 2)) == 2
        with pytest.raises(ValueError):
            s.member_shard_index(("v", 9))

    def test_vacancy(self):
        s = self.make()
        assert s.vacant_slots() == [1]
        assert not s.is_empty()
        s.members = [None, None, None]
        assert s.is_empty()
