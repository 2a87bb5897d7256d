"""Count gates on the live backend's worker-pool offloads.

A worker-pool offload is a loop -> thread -> loop round trip that costs
more than hashing a 64 KiB payload, so put and verified-get digests run
inline on the event loop and only GF(2^8) codec passes are offloaded.
These gates count ``LiveEngine.offload`` calls (and what each is charged
to) on an in-process ``LiveStagingService``.
"""

from __future__ import annotations

import asyncio

from repro import ErasurePolicy, ReplicationPolicy
from repro.live.service import LiveStagingService
from repro.staging.domain import BBox
from repro.staging.objects import ResilienceState, payload_digest

from tests.conftest import small_config

FOUR_BLOCKS = BBox((0, 0, 0), (32, 32, 16))


def run_counted(policy, scenario):
    """Run ``await scenario(live, charges)``; every offload appends its charge."""

    async def main():
        live = LiveStagingService(small_config(), policy)
        charges: list[str] = []
        offload = live.engine.offload

        def counted(fn, charge="offload"):
            charges.append(charge)
            return offload(fn, charge)

        live.engine.offload = counted
        try:
            return await scenario(live, charges)
        finally:
            await live.close()

    return asyncio.run(main())


def test_put_makes_no_offload():
    async def scenario(live, charges):
        await live.put("w", "v", live.domain.block_bbox(0))
        await live.quiesce()
        return list(charges)

    assert run_counted(ReplicationPolicy(), scenario) == []


def test_verified_four_block_get_makes_no_offload():
    async def scenario(live, charges):
        assert len(live.domain.blocks_overlapping(FOUR_BLOCKS)) == 4
        await live.put("w", "v", FOUR_BLOCKS)
        await live.quiesce()
        charges.clear()
        _, payloads = await live.get("r", "v", FOUR_BLOCKS, verify=True)
        assert len(payloads) == 4
        return list(charges)

    assert run_counted(ReplicationPolicy(), scenario) == []


def test_degraded_get_offloads_only_codec_passes():
    async def scenario(live, charges):
        for b in range(live.domain.n_blocks):
            await live.put("w", "v", live.domain.block_bbox(b))
        await live.end_step()
        await live.flush()
        await live.quiesce()
        ent = next(
            e for e in live.directory.entities.values()
            if e.state == ResilienceState.ENCODED
        )
        live.fail_server(ent.primary)
        charges.clear()
        _, payloads = await live.get(
            "r", "v", live.domain.block_bbox(ent.block_id), verify=True
        )
        assert payload_digest(payloads[ent.block_id]) == ent.digest
        return list(charges)

    charges = run_counted(ErasurePolicy(), scenario)
    assert charges, "the read was not degraded: no decode pass ran"
    assert set(charges) == {"codec"}
