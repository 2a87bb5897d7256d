"""The timed window and what the host did during it.

A shared host runs at a speed that drifts by a quarter and more within
minutes (other guests load the same cores, caches and memory), and it
lends CPU to other guests (hypervisor steal).  Both change every
latency in the window and say nothing about the code.  The window
therefore records two things besides the workload:

- A reference: every ``REF_EVERY_S`` a sampler thread runs a fixed piece
  of interpreter work (:func:`reference_work`) pinned to each usable CPU
  in turn and times it in thread CPU time.  Its mean over the window
  tracks the host's speed at the same moments on the same CPUs, so an
  op's latency divided by it measures the code, not the moment.
- Host slices: every ``SLICE_S`` the share of the host's CPU time that
  went neither to idle nor to this benchmark's two processes (the
  generator and the shard).  The window stays open until it holds
  ``seconds`` of quiet slices, or for at most ``MAX_STRETCH`` times
  ``seconds``, and metrics are taken over the quietest slices that add
  up to ``seconds``: on a quiet host that is the whole window.
"""

from __future__ import annotations

import os
import threading
import time

#: Host readings are taken this often; metrics keep or drop whole slices.
SLICE_S = 1.0
#: One reference measurement this often (about 2 % of one CPU).
REF_EVERY_S = 0.1
#: A slice is quiet when at most this share of the host's CPU time went
#: to others (steal, or busy time outside the benchmark's processes).
QUIET_SHARE = 0.03
#: The window closes after at most this many times ``seconds``.
MAX_STRETCH = 1.3

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def reference_work() -> None:
    """Fixed interpreter work (about 2 ms): integer arithmetic, str-keyed dict inserts."""
    x = 0
    for i in range(15000):
        x += i * i
    table = {}
    for i in range(2500):
        table[str(i)] = i


def host_ticks() -> tuple[int, int, int]:
    """(steal, busy, total) jiffies of the host from /proc/stat."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, _irq, _softirq, steal = f + [0] * (8 - len(f))
    return steal, user + nice + system, sum(f)


def process_ticks(pid: int) -> int:
    """User + system jiffies of a process (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return int(fields[11]) + int(fields[12])


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return 0.0


class Window:
    """The timed window: slices of host readings plus the edge readings.

    The workload calls ``window(edge, client)`` on connection 0 at the
    window's two edges while connection 1 is parked (at a step or round
    barrier, or after the readers joined), so the readings add no time to
    any measured op, and asks ``window.done(now)`` when it may close.
    Traced runs also read the shard's counters through the ``metrics``
    wire op at the edges.
    """

    def __init__(self, pid: int, seconds: float, traced: bool):
        self.pid = pid
        self.seconds = seconds
        self.traced = traced
        # (t, steal, busy, total, shard ticks, generator ticks) per slice edge
        self.points: list[tuple[float, int, int, int, int, int]] = []
        # (t, thread CPU seconds of one reference_work call)
        self.refs: list[tuple[float, float]] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.copies: dict[str, int] = {}
        self.rss_mb = 0.0
        self._stop = threading.Event()
        self._sampler: threading.Thread | None = None

    def _point(self) -> None:
        self.points.append(
            (time.perf_counter(), *host_ticks(), process_ticks(self.pid),
             process_ticks(os.getpid())))

    def _sample(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        n = 0
        while not self._stop.wait(REF_EVERY_S):
            n += 1
            os.sched_setaffinity(0, {cpus[n % len(cpus)]})  # this thread only
            t0 = time.thread_time()
            reference_work()
            self.refs.append((time.perf_counter(), time.thread_time() - t0))
            if self._stop.is_set():
                break
            if time.perf_counter() - self.points[-1][0] >= SLICE_S:
                self._point()

    def __call__(self, edge: str, client) -> None:
        if edge == "start":
            self._point()
            self._sampler = threading.Thread(target=self._sample, name="perfbench-host",
                                             daemon=True)
            self._sampler.start()
        else:
            self.close()
            self._point()
            self.rss_mb = peak_rss_mb(self.pid)
        if self.traced:
            from perfbench.layers import parse_prom
            from repro.live.protocol import PROTO_STATS

            self.counters[edge] = parse_prom(client.shard_client(0).metrics_text())
            self.copies[edge] = PROTO_STATS["payload_copies"]

    def close(self) -> None:
        """Stop the sampler thread (idempotent)."""
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()

    def slices(self) -> list[dict]:
        """One dict per slice: bounds, share of CPU lent to others, CPU used."""
        out = []
        for a, b in zip(self.points, self.points[1:]):
            steal, busy, total = (b[i] - a[i] for i in (1, 2, 3))
            shard, gen = b[4] - a[4], b[5] - a[5]
            others = steal + max(0, busy - shard - gen)
            out.append({
                "t0": a[0], "t1": b[0], "others": others / total if total > 0 else 0.0,
                "shard_cpu_s": shard * _TICK_S, "client_cpu_s": gen * _TICK_S,
            })
        return out

    def done(self, now: float) -> bool:
        """True once the window holds ``seconds`` of quiet time, or is at its limit."""
        elapsed = now - self.points[0][0]
        noisy = sum(s["t1"] - s["t0"] for s in self.slices() if s["others"] > QUIET_SHARE)
        return elapsed - noisy >= self.seconds or elapsed >= MAX_STRETCH * self.seconds

    def ref_ms(self, slices: list[dict]) -> tuple[float, int]:
        """Mean reference time (ms) over the given slices, and its sample count."""
        refs = [dt for t, dt in self.refs if any(s["t0"] <= t <= s["t1"] for s in slices)]
        return (sum(refs) / len(refs) * 1e3 if refs else 0.0), len(refs)

    def kept(self) -> list[dict]:
        """The quietest slices that add up to ``seconds`` (all of them if shorter)."""
        kept, total = [], 0.0
        for s in sorted(self.slices(), key=lambda s: s["others"]):
            if total >= self.seconds:
                break
            kept.append(s)
            total += s["t1"] - s["t0"]
        return sorted(kept, key=lambda s: s["t0"])
