"""The three closed-loop workloads and their output checks.

Every workload drives a fresh 1-shard :class:`repro.live.LiveCluster`
through :class:`repro.live.ClusterClient` only, from this process, with at
most two connections (two threads, one router each).  Payload bytes come
from ``--seed``; the program under test sees only those bytes, and every
byte it hands back is compared with them.

- ``ingest``: BSP timesteps.  Both writers together put the 64 blocks of
  one field into one of 8 rotating slots, then one of them issues
  ``step``.  No reads, no recovery.
- ``analysis``: verified 4-block slab gets at seeded random offsets into
  a pre-staged, quiesced 8-slot dataset.  No writes.
- ``recovery``: rounds of fail server -> both readers read the whole
  dataset (degraded reads) -> ``replace_server`` -> ``quiesce``.

Each workload function returns an :class:`Outcome`; checks done after
the timed window (full read-back, ``verify``, ``invariants``) add to its
failures.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.staging.domain import BBox
from repro.staging.service import StagingConfig, build_geometry

# 16 servers, RS(3,1), 64 KiB blocks: a (256, 256, 64) byte field is an
# 8 x 8 x 1 grid of (32, 32, 64) blocks, i.e. 64 blocks per field.
CONFIG = StagingConfig(
    n_servers=16,
    domain_shape=(256, 256, 64),
    element_bytes=1,
    object_max_bytes=64 * 1024,
    k=3,
    n_level=1,
)
POLICY = ("corec", {"storage_bound": 0.67, "enforcement_scope": "group"})
SLOTS = 8
SLAB_BLOCKS = 4
POOL_BLOCKS = 512  # distinct seeded 64 KiB payloads
CLIENT_TIMEOUT_S = 60.0
BARRIER_TIMEOUT_S = 120.0
# Untimed lead-in: two slot rotations (every entity exists and has been
# rewritten once), a few gets per reader, one full recovery round.
WARM_STEPS = 16
WARM_GETS = 8
WARM_ROUNDS = 1

_, DOMAIN, _, _ = build_geometry(CONFIG)
N_BLOCKS = DOMAIN.n_blocks
BLOCK_BYTES = DOMAIN.nbytes(DOMAIN.block_bbox(0))


def slot_var(slot: int) -> str:
    return f"slot{slot}"


def all_slabs() -> list[tuple[int, BBox]]:
    """Every aligned 1 x SLAB_BLOCKS slab of every slot (covers the dataset)."""
    bx, by, bz = DOMAIN.block_shape
    gx, gy = CONFIG.domain_shape[0] // bx, CONFIG.domain_shape[1] // by
    slabs = []
    for slot in range(SLOTS):
        for x in range(gx):
            for y in range(0, gy, SLAB_BLOCKS):
                lb = (x * bx, y * by, 0)
                ub = ((x + 1) * bx, (y + SLAB_BLOCKS) * by, bz)
                slabs.append((slot, BBox(lb, ub)))
    return slabs


class Payloads:
    """Seeded payload pool plus the bytes each (slot, block) should hold."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.pool = rng.integers(0, 256, (POOL_BLOCKS, BLOCK_BYTES), dtype=np.uint8)
        self.seed = seed
        # (slot, block) -> pool row; None while a failed write left it unknown.
        self.expected: dict[tuple[int, int], int | None] = {}


def blocks_match(got: dict, slot: int, payloads: Payloads) -> list[str]:
    """Compare a get's blocks with the bytes written; returns mismatches."""
    bad = []
    for bid, view in got.items():
        row = payloads.expected.get((slot, bid))
        if row is None:
            continue  # unknown after a failed write (already counted)
        if not np.array_equal(np.frombuffer(view, dtype=np.uint8), payloads.pool[row]):
            bad.append(f"{slot_var(slot)}/{bid}")
    return bad


@dataclass
class Outcome:
    """What one workload run measured and what went wrong.

    Every op counts in ``attempted`` (and, if it failed, in ``failed``);
    only ops inside the timed window add latency samples and bytes.
    """

    #: kind ("put", "get", "step", "recovery") -> [(t_end, seconds, user bytes)]
    timed: dict[str, list[tuple[float, float, int]]] = field(
        default_factory=lambda: {kind: [] for kind in ("put", "get", "step", "recovery")})
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)  # perf_counter bounds
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def op_kind(self) -> str:
        """The workload's op: puts on ingest, gets otherwise."""
        return "put" if self.timed["put"] else "get"

    def count(self, err: str | None, kind: str | None = None, t_end: float = 0.0,
              dt: float = 0.0, nbytes: int = 0) -> None:
        """Count one op; with ``kind`` (timed) a success adds a sample."""
        with self._lock:
            self.attempted += 1
            if err is not None:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(err)
            elif kind is not None:
                self.timed[kind].append((t_end, dt, nbytes))


def _call(what: str, fn, *args) -> str | None:
    """Run one op whose result is not checked; returns what went wrong, or None."""
    try:
        fn(*args)
    except Exception as exc:
        return f"{what}: {exc!r}"
    return None


def checked_get(client, slot: int, slab: BBox, payloads: Payloads):
    """One verified slab get, bytes compared after the clock stops.

    Returns when the get ended, its latency and what went wrong (None if
    nothing).
    """
    var = slot_var(slot)
    t0 = time.perf_counter()
    try:
        _, got = client.get(var, slab.lb, slab.ub, verify=True)
    except Exception as exc:
        t1 = time.perf_counter()
        return t1, t1 - t0, f"get {var} {slab}: {exc!r}"
    t1 = time.perf_counter()
    bad = blocks_match(got, slot, payloads)
    if bad or len(got) != SLAB_BLOCKS:
        return t1, t1 - t0, f"get {var} {slab}: bytes differ in {bad or f'{len(got)} blocks'}"
    return t1, t1 - t0, None


def _run_pair(clients, body, barrier: threading.Barrier) -> None:
    """Run ``body(idx, client)`` for both connections; the caller is thread 0."""
    errors: list[BaseException] = []

    def run(idx: int) -> None:
        try:
            body(idx, clients[idx])
        except BaseException as exc:  # re-raised below, after the join
            errors.append(exc)
            barrier.abort()  # release the other thread

    other = threading.Thread(target=run, args=(1,), name="perfbench-conn1")
    other.start()
    run(0)
    other.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# staging and output checks
# ---------------------------------------------------------------------------
def stage_dataset(client, payloads: Payloads) -> None:
    """Deterministic staging over one connection: slot by slot, one step each."""
    for slot in range(SLOTS):
        for bid in range(N_BLOCKS):
            row = (slot * N_BLOCKS + bid) % POOL_BLOCKS
            box = DOMAIN.block_bbox(bid)
            client.put(slot_var(slot), box.lb, box.ub, payloads.pool[row])
            payloads.expected[(slot, bid)] = row
        client.step()
    client.quiesce()


def read_back(client, payloads: Payloads, out: Outcome) -> None:
    """Read every staged block once and compare it with the seeded bytes."""
    for slot, slab in all_slabs():
        out.count(checked_get(client, slot, slab, payloads)[2])


def audit(client, out: Outcome) -> None:
    """Digest audit of every entity plus the quiescent invariant sweep."""
    lost = client.verify()["unrecoverable"]
    out.count(f"verify: unrecoverable {lost[:5]}" if lost else None)
    violations = client.invariants()
    out.count(f"invariants: {violations[:5]}" if violations else None)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def run_ingest(clients, payloads: Payloads, window) -> Outcome:
    """BSP timesteps; the window opens after ``WARM_STEPS`` steps.

    ``window(edge, client)`` is called at the window's two edges;
    ``window.done(now)`` says when to close it.
    """
    out = Outcome()
    barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT_S)
    state = {"step": 0, "stop": False, "timed": False}

    def body(idx: int, client) -> None:
        rng = np.random.default_rng([payloads.seed, 1, idx])
        while True:
            barrier.wait()
            if state["stop"]:
                return
            slot, timed = state["step"] % SLOTS, state["timed"]
            var = slot_var(slot)
            t_step = time.perf_counter()
            for bid in range(idx, N_BLOCKS, 2):
                key = (slot, bid)
                row = int(rng.integers(POOL_BLOCKS))
                if row == payloads.expected.get(key):  # every rewrite changes bytes
                    row = (row + 1) % POOL_BLOCKS
                box = DOMAIN.block_bbox(bid)
                t0 = time.perf_counter()
                err = _call(f"put {var}/{bid}", client.put, var, box.lb, box.ub, payloads.pool[row])
                t1 = time.perf_counter()
                payloads.expected[key] = None if err else row
                out.count(err, "put" if timed else None, t1, t1 - t0, BLOCK_BYTES)
            barrier.wait()
            if idx == 0:
                out.count(_call("step", client.step))
                now = time.perf_counter()
                state["step"] += 1
                if timed:
                    out.timed["step"].append((now, now - t_step, 0))
                    if window.done(now):
                        state["stop"] = True
                        out.window = (out.window[0], now)
                        window("end", client)
                elif state["step"] >= WARM_STEPS:
                    window("start", client)
                    state["timed"] = True
                    out.window = (time.perf_counter(), 0.0)

    _run_pair(clients, body, barrier)
    clients[0].quiesce()
    return out


def run_analysis(clients, payloads: Payloads, window) -> Outcome:
    """Random slab gets; the window opens once both readers did ``WARM_GETS``."""
    out = Outcome()
    slabs = all_slabs()
    barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT_S)
    start = {}

    def body(idx: int, client) -> None:
        rng = np.random.default_rng([payloads.seed, 2, idx])
        n = 0
        timed = False
        while True:
            slot, slab = slabs[int(rng.integers(len(slabs)))]
            t1, dt, err = checked_get(client, slot, slab, payloads)
            out.count(err, "get" if timed else None, t1, dt, SLAB_BLOCKS * BLOCK_BYTES)
            n += 1
            if not timed and n >= WARM_GETS:
                barrier.wait()
                if idx == 0:
                    window("start", client)
                    start["t0"] = time.perf_counter()
                barrier.wait()
                timed = True
            elif timed and window.done(time.perf_counter()):
                return

    _run_pair(clients, body, barrier)
    out.window = (start["t0"], time.perf_counter())
    window("end", clients[0])
    return out


def run_recovery(clients, payloads: Payloads, window) -> Outcome:
    """Fail / degraded full read / replace / quiesce rounds; the failed server rotates."""
    out = Outcome()
    slabs = all_slabs()
    barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT_S)
    state = {"round": 0, "stop": False, "timed": False}
    first_sid = int(np.random.default_rng([payloads.seed, 3]).integers(CONFIG.n_servers))

    def body(idx: int, client) -> None:
        rng = np.random.default_rng([payloads.seed, 4, idx])
        mine = slabs[idx::2]
        while True:
            timed = state["timed"]
            sid = (first_sid + state["round"]) % CONFIG.n_servers
            if idx == 0:
                out.count(_call(f"fail server {sid}", client.fail_server, sid))
            barrier.wait()
            for i in rng.permutation(len(mine)):
                slot, slab = mine[int(i)]
                t1, dt, err = checked_get(client, slot, slab, payloads)
                if err:
                    err = f"{err} (server {sid} down)"
                out.count(err, "get" if timed else None, t1, dt, SLAB_BLOCKS * BLOCK_BYTES)
            barrier.wait()
            if idx == 0:
                t0 = time.perf_counter()
                out.count(_call(f"replace server {sid}", client.replace_server, sid))
                out.count(_call("quiesce", client.quiesce))
                now = time.perf_counter()
                state["round"] += 1
                if timed:
                    out.timed["recovery"].append((now, now - t0, 0))
                    if window.done(now):
                        state["stop"] = True
                        out.window = (out.window[0], now)
                        window("end", client)
                elif state["round"] >= WARM_ROUNDS:
                    window("start", client)
                    state["timed"] = True
                    out.window = (time.perf_counter(), 0.0)
            barrier.wait()
            if state["stop"]:
                return

    _run_pair(clients, body, barrier)
    return out
