"""Sharded multi-process cluster: routing, conformance, chaos.

The cluster's correctness claim extends the live backend's: a workload
played through the sharded multi-process deployment must reach state
*byte-identical* to the same workload on a single-process run — same
entity metadata, same stripe geometry and ids, same store digests, same
storage accounting.  Group-partitioned stripe ids, group-scoped storage
enforcement and group-confined redirects are what make the claim hold;
these tests are what keep it held.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from repro.live.cluster import LiveCluster, ShardPlan
from repro.live.conformance import (
    WORKLOADS,
    build_config,
    diff_projections,
    normalize_projection,
    policy_spec,
    run_cluster,
    run_live,
    run_sim,
)
from repro.staging.service import build_geometry


def sharded_spec(name: str, n_servers: int):
    """Tape spec adjusted for a sharded run of ``n_servers`` servers.

    CoREC specs get group-scoped storage-bound enforcement — the only
    scope a sharded deployment can evaluate — applied to *both* sides of
    every comparison.
    """
    spec = WORKLOADS[name]
    if spec.policy == "corec":
        spec = spec.with_overrides(enforcement_scope="group")
    if n_servers != 8:
        spec = dataclasses.replace(
            spec, config_overrides={**spec.config_overrides, "n_servers": n_servers}
        )
    return spec


# ---------------------------------------------------------------------------
# shard plan
# ---------------------------------------------------------------------------
def test_shard_plan_partitions_groups():
    config = build_config(WORKLOADS["replication-only"])
    plan = ShardPlan.build(config, 2)
    _, _, _, layout = build_geometry(config)
    assert plan.n_shards == 2
    assert sorted(plan.shard_groups(0) + plan.shard_groups(1)) == list(
        range(layout.n_coding_groups())
    )
    # Every server of a coding group lands on the group's shard.
    for gid in range(layout.n_coding_groups()):
        shard = plan.group_to_shard[gid]
        for sid in layout.coding_group_members(gid):
            assert plan.shard_of_server(sid) == shard
    # Disjoint, exhaustive server ownership.
    assert sorted(plan.shard_servers(0) + plan.shard_servers(1)) == list(
        range(config.n_servers)
    )


def test_shard_plan_rejects_indivisible_group_count():
    config = build_config(WORKLOADS["replication-only"])  # 8 servers, 2 groups
    with pytest.raises(ValueError, match="do not divide"):
        ShardPlan.build(config, 3)
    with pytest.raises(ValueError, match="at least one shard"):
        ShardPlan.build(config, 0)


# ---------------------------------------------------------------------------
# sharded conformance: byte-identical to single-process
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_shard_cluster_matches_single_process(name):
    spec = sharded_spec(name, n_servers=8)
    ref_proj, ref_reads = run_sim(spec)
    cl_proj, cl_reads = run_cluster(spec, 2)
    diffs = diff_projections(normalize_projection(ref_proj), cl_proj)
    assert diffs == [], "cluster state diverged:\n" + "\n".join(diffs[:40])
    assert len(ref_reads) == len(cl_reads) > 0
    assert ref_reads == cl_reads, "read payload digests diverged"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_four_shard_cluster_matches_single_process(name):
    spec = sharded_spec(name, n_servers=16)  # 16 servers -> 4 coding groups
    ref_proj, ref_reads = run_sim(spec)
    cl_proj, cl_reads = run_cluster(spec, 4)
    diffs = diff_projections(normalize_projection(ref_proj), cl_proj)
    assert diffs == [], "cluster state diverged:\n" + "\n".join(diffs[:40])
    assert ref_reads == cl_reads, "read payload digests diverged"


def test_group_scoped_policy_keeps_sim_live_agreement():
    """The group-scoped CoREC variant stays sim-vs-live conformant too."""
    spec = sharded_spec("hybrid", n_servers=8)
    sim_proj, sim_reads = run_sim(spec)
    live_proj, live_reads = run_live(spec)
    assert diff_projections(sim_proj, live_proj) == []
    assert sim_reads == live_reads


# ---------------------------------------------------------------------------
# cross-shard stripe formation + routed data plane
# ---------------------------------------------------------------------------
def test_cross_shard_put_forms_stripes_in_every_shard():
    """Whole-domain puts span both shards; stripes form in each; bytes hold.

    Concurrent multi-block workloads do not have a byte-identical
    reference (even two single-process live runs group stripe members by
    wall-clock completion order — the conformance tapes use single-block
    ops for exactly this reason), so this test pins the guarantees that
    *are* order-independent: every block reads back the bytes written,
    stripes form inside both shards' group ranges with ids minted from
    the owning group's sequence, the quiescent invariants hold and the
    full read audit is clean.
    """
    spec = sharded_spec("hybrid", n_servers=8)
    config = build_config(spec)
    _, domain, _, layout = build_geometry(config)
    n_groups = layout.n_coding_groups()
    plan = ShardPlan.build(config, 2)
    rng = np.random.default_rng(7)
    frames = [rng.integers(0, 256, size=domain.shape, dtype=np.uint8) for _ in range(4)]

    with LiveCluster(config, policy_spec(spec), 2) as cluster:
        with cluster.client(name="w") as client:
            shards_touched = {
                client.shard_of_block(bid, "field") for bid in range(domain.n_blocks)
            }
            assert shards_touched == {0, 1}, "workload must span both shards"
            for frame in frames:
                client.put("field", domain.bbox.lb, domain.bbox.ub, frame)
                client.quiesce()
                client.step()
                client.quiesce()
            client.flush()
            client.quiesce()
            proj = client.projection()
            _, payloads = client.get("field", domain.bbox.lb, domain.bbox.ub)
            reads = {bid: bytes(v) for bid, v in payloads.items()}
            assert client.invariants() == []
            assert client.verify()["unrecoverable"] == []

    # Every block reads back exactly the bytes of the last written frame.
    last = frames[-1]
    assert set(reads) == set(range(domain.n_blocks))
    for bid in range(domain.n_blocks):
        box = domain.block_bbox(bid)
        want = np.ascontiguousarray(
            last[tuple(slice(l, u) for l, u in zip(box.lb, box.ub))]
        ).tobytes()
        assert reads[bid] == want, f"block {bid} bytes diverged"
    # Every entity carries the full write history (4 versions, 0-indexed).
    assert all(e["version"] == 3 for e in proj["entities"].values())
    # Stripes formed in group ranges owned by *both* shards, each with an
    # id minted from its group's own sequence (sid % n_groups == gid).
    assert proj["stripes"], "no stripes formed"
    stripe_shards = set()
    for sid, stripe in proj["stripes"].items():
        gid = int(sid) % n_groups
        assert set(stripe["servers"]) <= set(layout.coding_group_members(gid))
        stripe_shards.add(plan.group_to_shard[gid])
    assert stripe_shards == {0, 1}, "stripes did not form in every shard"


# ---------------------------------------------------------------------------
# shard-process chaos
# ---------------------------------------------------------------------------
def test_shard_kill_is_contained_and_replacement_rejoins():
    """SIGKILL one shard: the other keeps serving, a replacement rejoins.

    Pins the cluster's failure containment (coding groups never span
    shards, so a shard loss cannot corrupt surviving shards' state —
    quiescent invariants still hold) and the membership path (restart +
    reroute makes the dead shard's block range writable again).
    """
    spec = sharded_spec("replication-only", n_servers=8)
    config = build_config(spec)
    with LiveCluster(config, policy_spec(spec), 2) as cluster:
        with cluster.client(name="w") as client:
            domain = client.domain
            by_shard: dict[int, int] = {}
            for bid in range(domain.n_blocks):
                by_shard.setdefault(client.shard_of_block(bid, "v"), bid)
            assert set(by_shard) == {0, 1}
            for bid in by_shard.values():
                box = domain.block_bbox(bid)
                client.put("v", box.lb, box.ub)
            client.quiesce()

            cluster.kill_shard(1)
            assert cluster.alive_shards() == [0]

            # Ops routed to the dead shard surface a typed, bounded error.
            dead_box = domain.block_bbox(by_shard[1])
            with pytest.raises((ConnectionError, TimeoutError)):
                client.get("v", dead_box.lb, dead_box.ub)

            # The surviving shard is fully isolated: its data still reads,
            # its quiescent invariants still hold.
            live_box = domain.block_bbox(by_shard[0])
            _, payloads = client.get("v", live_box.lb, live_box.ub)
            assert payloads
            assert client.shard_client(0).invariants() == []

            # Replacement shard process: same groups, fresh (empty) state.
            host, port = cluster.restart_shard(1)
            client.set_endpoint(1, host, port)
            assert sorted(cluster.alive_shards()) == [0, 1]
            client.put("v", dead_box.lb, dead_box.ub)
            client.quiesce()
            _, payloads = client.get("v", dead_box.lb, dead_box.ub)
            assert payloads
            assert client.invariants() == []
            stats = client.stats()
            assert stats["shards"] == 2
            assert stats["alive_servers"] == list(range(8))


def wait_until_stopped(pid: int, timeout: float = 10.0) -> None:
    """Block until every thread of ``pid`` is in state ``T`` (stopped).

    ``kill(SIGSTOP)`` returns once the signal is queued; the group stop
    takes effect only as each thread of the target next runs, so an
    event-loop thread can still answer a request for a while after the
    call.  Where ``/proc`` is unavailable this returns at once.
    """
    task_dir = f"/proc/{pid}/task"
    if not os.path.isdir(task_dir):
        return
    deadline = time.monotonic() + timeout
    while True:
        states = []
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/stat") as fh:
                    states.append(fh.read().rsplit(")", 1)[1].split()[0])
            except FileNotFoundError:  # thread exited between list and read
                continue
        if states and all(state == "T" for state in states):
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"pid {pid} not stopped after {timeout}s: {states}")
        time.sleep(0.001)


def test_frozen_shard_rpc_hits_client_deadline():
    """A hung (SIGSTOPped) shard turns into ``TimeoutError``, not a hang.

    Regression pin for the client's per-op deadline: before it, an RPC
    already in flight when the server stopped making progress blocked
    its caller forever.  The ping is sent only once the whole shard has
    stopped; otherwise it can be answered in the window before the stop
    reaches the shard's event-loop thread.
    """
    spec = sharded_spec("replication-only", n_servers=8)
    config = build_config(spec)
    with LiveCluster(config, policy_spec(spec), 2) as cluster:
        client = cluster.client(name="w", timeout=1.0)
        try:
            proc = cluster.processes[1]
            os.kill(proc.pid, signal.SIGSTOP)
            try:
                wait_until_stopped(proc.pid)
                with pytest.raises(TimeoutError, match="deadline"):
                    client.shard_client(1).ping()
            finally:
                os.kill(proc.pid, signal.SIGCONT)
            # The deadline condemned the socket; the next op reconnects
            # (bounded, one backoff retry) and succeeds.
            client.shard_client(1).ping()
        finally:
            client.close()
