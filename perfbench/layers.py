"""Per-layer timing from outside the program: wrappers around public functions.

The traced run patches the public entry points of each ``repro`` layer
in the generator process (router, protocol client) and, through the
spawn hook in ``run.py``, in the shard process (server service, engine,
staging flow, policy, runtime, recovery, codec, digest).  Nothing in
``repro`` changes; an untraced run installs no wrapper at all.

Spans nest on a per-thread stack: a span's *self* time is its duration
minus the spans nested inside it on the same thread.  Generator flows
(staging, policy, runtime, recovery) are timed step by step, so their
time is what runs on the event-loop thread, never the waits between
steps.  Samples are kept in memory as ``(t_end, ...)`` tuples on the
``perf_counter`` clock (CLOCK_MONOTONIC, shared by both processes); the
shard writes them at exit and the generator keeps only the samples that
end inside its timed window.

Layers left out, and why: ``repro.sim`` is not on the live path;
``repro.core.tiering`` and ``repro.obs`` are off by default (no tiering
config, ``tracing=False``); the multi-shard fan-out of ``live.router``
needs at least 4 cores and this benchmark runs one shard.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter
_tls = threading.local()

#: layer -> list of sample tuples; list.append is atomic under the GIL.
SAMPLES: dict[str, list[tuple]] = defaultdict(list)


def _stack() -> list:
    st = getattr(_tls, "stack", None)
    if st is None:
        st = _tls.stack = []
    return st


def _close(st: list, frame: list) -> tuple[float, float, float]:
    t1 = _now()
    st.pop()
    dur = t1 - frame[1]
    if st:
        st[-1][2] += dur
    return t1, dur, dur - frame[2]


# ---------------------------------------------------------------------------
# wrapper kinds
# ---------------------------------------------------------------------------
def _nbytes(args) -> int:
    """Bytes of the arrays passed in (directly or in one list/dict level)."""
    total = 0
    for a in args:
        if isinstance(a, np.ndarray):
            total += a.nbytes
        elif isinstance(a, (list, tuple)):
            total += sum(x.nbytes for x in a if isinstance(x, np.ndarray))
        elif isinstance(a, dict):
            total += sum(x.nbytes for x in a.values() if isinstance(x, np.ndarray))
    return total


def _sync(fn, layer: str):
    """Time a plain call; a call nested in the same layer is not re-counted."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _stack()
        if st and st[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, _now(), 0.0]
        st.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1, dur, self_s = _close(st, frame)
            SAMPLES[layer].append((t1, dur, self_s, _nbytes(args)))

    return wrapper


def _timed_steps(gen, layer: str):
    """Drive ``gen`` and time each of its steps; one sample per call."""
    inc = own = 0.0
    send = exc = None
    flow = layer == "staging.flow"
    try:
        while True:
            st = _stack()
            top = flow and not st
            frame = [layer, _now(), 0.0]
            st.append(frame)
            try:
                if exc is not None:
                    err, exc = exc, None
                    item = gen.throw(err)
                else:
                    item = gen.send(send)
            except StopIteration as stop:
                return stop.value
            finally:
                t1, dur, self_s = _close(st, frame)
                inc += dur
                own += self_s
                if top:  # a request flow's step, for the coverage check
                    SAMPLES["flow.step"].append((t1, dur))
            try:
                send = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:
                exc, send = err, None
    finally:
        SAMPLES[layer].append((_now(), inc, own))


def _gen(fn, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _timed_steps(fn(*args, **kwargs), layer)

    return wrapper


def _async(fn, layer: str):
    """Whole-call wall time of a coroutine (spans its awaits; no nesting)."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        t0 = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            t1 = _now()
            SAMPLES[layer].append((t1, t1 - t0, 0.0))

    return wrapper


def _count(fn, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        SAMPLES[layer].append((_now(),))
        return fn(*args, **kwargs)

    return wrapper


def _patch(owner, name: str, make, layer: str) -> None:
    setattr(owner, name, make(getattr(owner, name), layer))


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------
def install_client() -> None:
    """Generator process: router and protocol client."""
    from repro.live.protocol import LiveClient
    from repro.live.router import ClusterClient

    for name in ("put", "get"):
        _patch(ClusterClient, name, _sync, "router")
    for name in ("mput", "mget"):
        _patch(LiveClient, name, _sync, "protocol")


def install_shard() -> None:
    """Shard process: every server-side layer the benchmark reports."""
    import sys

    from repro.core.corec import CoRECPolicy
    from repro.core.runtime import StagingRuntime
    from repro.erasure.gf256 import GF256
    from repro.erasure.reedsolomon import RSCode
    from repro.live.engine import LiveEngine
    from repro.live.service import LiveStagingService
    from repro.staging import objects
    from repro.staging.service import StagingService

    for name in ("put_blocks", "get_blocks"):
        _patch(LiveStagingService, name, _async, "server")
    # The public put/get spawn one block flow per block; those private
    # bodies are where the per-block staging work runs.
    for name in ("put", "get", "_put_block", "_get_block"):
        _patch(StagingService, name, _gen, "staging.flow")
    _patch(CoRECPolicy, "on_write", _gen, "policy.write")
    _patch(CoRECPolicy, "on_step_end", _gen, "policy.step_end")
    for name in ("replicate_entity", "update_encoded_entity", "form_stripe"):
        _patch(StagingRuntime, name, _gen, "runtime.write")
    for name in ("read_entity", "degraded_read"):
        _patch(StagingRuntime, name, _gen, "runtime.read")
    for name in ("recover_primary", "recover_replica", "recover_parity"):
        _patch(StagingRuntime, name, _gen, "recovery")
    for name in (
        "encode", "encode_batch", "decode", "decode_batch",
        "reconstruct_shard", "update_parity",
    ):
        _patch(RSCode, name, _sync, "codec")
    # Delta parity updates call the GF(2^8) kernel directly (inline on the
    # loop thread, inside the atomic apply section), not through RSCode.
    GF256.addmul_bytes = staticmethod(_sync(GF256.addmul_bytes, "codec"))
    _patch(LiveEngine, "codec_map", _count, "engine.codec_map")

    orig_lock = StagingRuntime.with_entity_lock

    @functools.wraps(orig_lock)
    def with_entity_lock(self, key, body):
        t0 = _now()

        def marked():
            t1 = _now()
            SAMPLES["staging.lock_wait"].append((t1, t1 - t0))
            return (yield from body)

        return (yield from orig_lock(self, key, marked()))

    StagingRuntime.with_entity_lock = with_entity_lock

    orig_offload = LiveEngine.offload

    @functools.wraps(orig_offload)
    def offload(self, fn, charge="offload"):
        t_sub = _now()
        # Submitted from inside a request flow: the flow blocks on it.
        blocking = any(f[0] == "staging.flow" for f in _stack())

        def run():
            st = _stack()
            frame = ["engine.offload", _now(), 0.0]
            st.append(frame)
            t_start = frame[1]
            try:
                return fn()
            finally:
                t1, dur, _ = _close(st, frame)
                SAMPLES["engine.offload"].append((t1, t_start - t_sub, dur, blocking))

        return orig_offload(self, run, charge)

    LiveEngine.offload = offload

    orig_digest = objects.payload_digest
    digest = _sync(orig_digest, "digest")
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(
            mod, "payload_digest", None
        ) is orig_digest:
            mod.payload_digest = digest


def dump(path: str, extra: dict) -> None:
    """Write this process's samples (and ``extra`` facts) as JSON."""
    doc = dict(extra)
    doc["samples"] = {layer: rows for layer, rows in SAMPLES.items()}
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def _window(rows, t0: float, t1: float) -> list:
    return [r for r in rows if t0 <= r[0] <= t1]


_GRID_S = 1e-5


def _covered(intervals, t0: float, t1: float) -> np.ndarray:
    """Boolean 10 us grid over [t0, t1): True where any interval is open."""
    n = max(1, int((t1 - t0) / _GRID_S))
    diff = np.zeros(n + 1, dtype=np.int64)
    for end, dur in intervals:
        a = int((end - dur - t0) / _GRID_S)
        b = int((end - t0) / _GRID_S)
        a, b = max(a, 0), min(b, n)
        if a < b:
            diff[a] += 1
            diff[b] -= 1
    return np.cumsum(diff[:n]) > 0


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def parse_prom(text: str) -> dict[str, float]:
    """Prometheus text exposition -> {name: value} (labelled series skipped)."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


def layer_metrics(samples, counters_before, counters_after, gen_copies, out):
    """Per-layer metrics for one traced run.

    ``samples`` merges generator- and shard-side samples; counters are the
    shard's ``metrics`` wire op read at the window's two ends; ``out`` is
    the traced :class:`Outcome`.  Returns ``{name: (value, unit, n)}``.
    """
    t0, t1 = out.window
    s = {layer: _window(rows, t0, t1) for layer, rows in samples.items()}

    def rows(layer):
        return s.get(layer, [])

    def delta(name):
        return counters_after.get(name, 0.0) - counters_before.get(name, 0.0)

    ops = len(out.timed[out.op_kind])
    puts = len(out.timed["put"])
    gets = len(out.timed["get"])
    rounds = len(out.timed["recovery"])

    def per(total, n):
        return total / n if n else 0.0

    ms = 1e3
    router = rows("router")
    proto = rows("protocol")
    server = rows("server")
    offl = rows("engine.offload")
    flow = rows("staging.flow")
    codec = rows("codec")
    digest = rows("digest")
    pw = rows("policy.write")
    pse = rows("policy.step_end")
    rread = rows("runtime.read")
    rec = rows("recovery")
    rpc_p50 = _p([r[1] for r in proto], 50) * ms
    svc_p50 = _p([r[1] for r in server], 50) * ms
    codec_s = sum(r[1] for r in codec)
    codec_bytes = sum(r[3] for r in codec)
    hits, misses = delta("rs_decode_cache_hits"), delta("rs_decode_cache_misses")
    promo = delta("promotions_scheduled")
    flow_self = sum(r[2] for r in flow)
    m = {
        "router.self_ms_p50": (_p([r[2] for r in router], 50) * ms, "ms", len(router)),
        "protocol.rpc_ms_p50": (rpc_p50, "ms", len(proto)),
        "protocol.rpc_ms_p99": (_p([r[1] for r in proto], 99) * ms, "ms", len(proto)),
        "protocol.payload_copies_per_op": (
            per(delta("protocol_payload_copies") + gen_copies, ops), "count", ops),
        "server.service_ms_p50": (svc_p50, "ms", len(server)),
        "server.wire_ms_p50": (rpc_p50 - svc_p50 if server else 0.0, "ms", len(server)),
        "engine.offloads_per_op": (per(len(offl), ops), "count", len(offl)),
        "engine.offload_wait_ms_p50": (_p([r[1] for r in offl], 50) * ms, "ms", len(offl)),
        "engine.offload_run_ms_p50": (_p([r[2] for r in offl], 50) * ms, "ms", len(offl)),
        "engine.codec_map_calls_per_op": (
            per(len(rows("engine.codec_map")), ops), "count", len(rows("engine.codec_map"))),
        "staging.flow_cpu_ms_per_op": (per(flow_self, ops) * ms, "ms", len(flow)),
        "staging.lock_wait_ms_p50": (
            _p([r[1] for r in rows("staging.lock_wait")], 50) * ms, "ms",
            len(rows("staging.lock_wait"))),
        "digest.calls_per_op": (per(len(digest), ops), "count", len(digest)),
        "digest.ms_per_op": (per(sum(r[1] for r in digest), ops) * ms, "ms", len(digest)),
        "policy.write_cpu_ms_per_put": (per(sum(r[2] for r in pw), puts) * ms, "ms", len(pw)),
        "policy.step_end_ms_p50": (_p([r[1] for r in pse], 50) * ms, "ms", len(pse)),
        "policy.promotions_per_put": (per(promo, puts), "count", puts),
        "policy.demotions_per_put": (per(delta("demotions_scheduled"), puts), "count", puts),
        "policy.promotion_yield": (
            per(delta("transitions_to_replicated"), promo), "ratio", int(promo)),
        "runtime.write_cpu_ms_per_put": (
            per(sum(r[2] for r in rows("runtime.write")), puts) * ms, "ms",
            len(rows("runtime.write"))),
        "runtime.replica_writes_per_put": (per(delta("replica_writes"), puts), "count", puts),
        "runtime.parity_updates_per_put": (per(delta("parity_updates"), puts), "count", puts),
        "runtime.stripe_encodes_per_put": (per(delta("stripe_encodes"), puts), "count", puts),
        "runtime.read_cpu_ms_per_get": (
            per(sum(r[2] for r in rread), gets) * ms, "ms", len(rread)),
        "runtime.degraded_reads_per_get": (per(delta("degraded_reads"), gets), "count", gets),
        "recovery.objects_per_round": (
            per(delta("recovered_objects") + delta("recovered_replicas")
                + delta("recovered_parities"), rounds), "count", rounds),
        "recovery.cpu_ms_per_round": (per(sum(r[2] for r in rec), rounds) * ms, "ms", len(rec)),
        "codec.calls_per_op": (per(len(codec), ops), "count", len(codec)),
        "codec.ms_per_op": (per(codec_s, ops) * ms, "ms", len(codec)),
        "codec.MBps": (codec_bytes / codec_s / 1e6 if codec_s else 0.0, "MB/s", len(codec)),
        "codec.decode_cache_hit_ratio": (per(hits, hits + misses), "ratio", int(hits + misses)),
        "directory.touches_per_op": (
            per(delta("directory_entity_touches") + delta("directory_stripe_touches"), ops),
            "count", ops),
    }
    # Trace accounting, in wall time over the window.  A client op is
    # router self + rpc, and the rpc is wire (protocol) + server service,
    # so only service time can be left uncovered.  Inside it, covered
    # means a request flow step is running on the loop thread (staging,
    # policy, runtime and digest spans nest in those steps) or an offload
    # a flow blocks on is queued or running.  The rest is event-loop
    # scheduling, asyncio plumbing, and background work (promotions,
    # recovery sweeps) the request waits behind.
    in_op = _covered([(r[0], r[1]) for r in router], t0, t1)
    in_service = _covered([(r[0], r[1]) for r in server], t0, t1)
    in_layer = _covered(
        [(r[0], r[1]) for r in rows("flow.step")]
        + [(r[0], r[1] + r[2]) for r in offl if r[3]],
        t0, t1,
    )
    uncovered = float(np.count_nonzero(in_service & ~in_layer)) * _GRID_S
    m["trace.uncovered_ms_per_op"] = (per(uncovered, ops) * ms, "ms", ops)
    m["trace.uncovered_share"] = (
        per(uncovered, float(np.count_nonzero(in_op)) * _GRID_S), "ratio", ops)
    return m
