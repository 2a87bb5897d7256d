"""Staging benchmark: ingest, analysis and recovery on the live server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

A run fills the native GF(2^8) kernel cache under ``$CARGO_TARGET_DIR``
(default ``.bench_build``) if it is cold, spawns fresh 1-shard
``LiveCluster`` deployments at ``time_scale=0`` (code cost, not the
paper's paced cost model) and drives them through ``ClusterClient`` from
this process with two connections.  The timed window holds ``--seconds``
of quiet host time (see ``perfbench/host.py``).  See
``perfbench/NOTES.md`` for what each workload and metric means.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (per-layer wrappers in this process
and in the shard), each for half of ``--seconds``, and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines
(provenance, every metric with its unit and sample count) come first;
the last line is one JSON object.  The exit code is non-zero when any
operation or output check failed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _build_dir() -> str:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def _use_checkout() -> None:
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# shard-side hook: a spawned shard re-imports this file as __mp_main__
# ---------------------------------------------------------------------------
def _shard_exit(run_dir: str) -> None:
    from perfbench import layers
    from repro.erasure.gf256 import GF256

    layers.dump(
        os.path.join(run_dir, f"shard-{os.getpid()}.json"),
        {"kernels": GF256.selected_kernels(), "native": GF256.native_kernel() is not None},
    )


if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_RUN_DIR"):
    import multiprocessing.util

    if os.environ.get("PERFBENCH_TRACE") == "1":
        from perfbench import layers as _layers

        _layers.install_shard()
    # Runs when the shard's process target returns (after a graceful drain).
    multiprocessing.util.Finalize(
        None, _shard_exit, args=(os.environ["PERFBENCH_RUN_DIR"],), exitpriority=100
    )


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------
def cpu_reference_s() -> float:
    """Fixed CPU reference: blake2b over 100 MiB (1 MiB x 100)."""
    buf = bytes(range(256)) * 4096
    t0 = time.perf_counter()
    for _ in range(100):
        hashlib.blake2b(buf).digest()
    return time.perf_counter() - t0


def fill_native_cache() -> bool:
    """Point the native-kernel cache into the build dir; True if it was cold.

    Importing ``repro.erasure`` compiles the kernel on a cold cache, so
    the compile is paid here, before any timed set-up.
    """
    cache = os.path.join(_build_dir(), "native")
    os.environ["REPRO_NATIVE_CACHE"] = cache
    cold = not glob.glob(os.path.join(cache, "gf_matmul-*.so"))
    import repro.erasure  # noqa: F401  (builds and loads the kernel)

    return cold


def provenance(cold: bool) -> dict:
    import numpy as np
    from repro.erasure.gf256 import GF256

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_cache_cold": cold,
        "native_kernel": GF256.native_kernel() is not None,
        "generator_gf_kernels": GF256.selected_kernels(),
        "cpu_ref_blake2b_100MiB_s": cpu_reference_s(),
    }


# ---------------------------------------------------------------------------
# one deployment
# ---------------------------------------------------------------------------
class Deployment:
    """A fresh 1-shard cluster plus its two router connections."""

    def __init__(self, run_dir: str, traced: bool):
        from repro.live.cluster import LiveCluster
        from perfbench.workloads import CLIENT_TIMEOUT_S, CONFIG, POLICY

        os.environ["PERFBENCH_RUN_DIR"] = run_dir
        os.environ["PERFBENCH_TRACE"] = "1" if traced else "0"
        self.run_dir = run_dir
        self.clients = []
        t0 = time.perf_counter()
        self.cluster = LiveCluster(CONFIG, POLICY, 1, time_scale=0.0, start_method="spawn")
        try:
            self.pid = self.cluster.processes[0].pid
            first = self.cluster.client("conn0", timeout=CLIENT_TIMEOUT_S)
            self.clients.append(first)
            first.ping()
            self.setup_s = time.perf_counter() - t0
            self.clients.append(self.cluster.client("conn1", timeout=CLIENT_TIMEOUT_S))
        except BaseException:
            self.stop(force=True)
            raise

    def metrics(self) -> dict[str, float]:
        from perfbench.layers import parse_prom

        return parse_prom(self.clients[0].shard_client(0).metrics_text())

    def stop(self, force: bool = False) -> dict:
        """Stop the shard; returns what its exit hook wrote (if anything)."""
        for client in self.clients:
            client.close()
        self.cluster.stop(force=force)
        path = os.path.join(self.run_dir, f"shard-{self.pid}.json")
        if not os.path.exists(path):
            return {}
        with open(path) as fh:
            doc = json.load(fh)
        os.unlink(path)
        return doc


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Deployments stop their shards themselves; this kills and reaps any a
    failure left behind, then stops the resource tracker that the spawn
    start method launches, which would otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    resource_tracker._resource_tracker._stop()


def storage_overhead(counters: dict[str, float]) -> float:
    orig = counters["storage_original_bytes"]
    return (orig + counters["storage_replica_bytes"] + counters["storage_parity_bytes"]) / orig


#: Set-ups of an untraced run (``setup_s`` is their median); each phase
#: of a traced run sets up once.
SETUPS = 9


class Phase:
    """One deployment's workload run: outcome, set-up times, readings."""

    def __init__(self, args, run_dir: str, traced: bool, setups: int):
        from perfbench.host import Window

        self.setup_s = []
        for _ in range(setups - 1):
            dep = Deployment(run_dir, traced)
            self.setup_s.append(dep.setup_s)
            dep.stop()
        dep = Deployment(run_dir, traced)
        self.setup_s.append(dep.setup_s)
        self.window = Window(dep.pid, args.seconds, traced)
        try:
            self.out, self.overhead = self._drive(args, dep)
        finally:
            self.window.close()
            self.shard = dep.stop()

    def _drive(self, args, dep):
        from perfbench import workloads as wl

        payloads = wl.Payloads(args.seed)
        if args.workload != "ingest":
            wl.stage_dataset(dep.clients[0], payloads)
        drive = {
            "ingest": wl.run_ingest, "analysis": wl.run_analysis, "recovery": wl.run_recovery,
        }[args.workload]
        out = drive(dep.clients, payloads, self.window)
        overhead = storage_overhead(dep.metrics())
        wl.read_back(dep.clients[0], payloads, out)
        wl.audit(dep.clients[0], out)
        return out, overhead


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
#: The end-to-end metrics BENCHMARK.json gates (defined on every workload).
CONTRACT = (
    "setup_s", "op_p50_ref", "server_cpu_ref_per_op", "storage_overhead", "server_peak_rss_MB",
)


def _pct(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(phase: Phase) -> dict[str, tuple[float, str, int]]:
    """The end-to-end metrics, over the window's quietest ``--seconds``."""
    out = phase.out
    kept = phase.window.kept()
    kept_s = sum(s["t1"] - s["t0"] for s in kept)

    timed = {
        kind: [r for r in rows if any(s["t0"] <= r[0] <= s["t1"] for s in kept)]
        for kind, rows in out.timed.items()
    }

    def lat(kind):
        return [r[1] for r in timed[kind]]

    ms = 1e3
    ops = timed[out.op_kind]
    n_ops = len(ops)
    op_p50_ms = _pct(lat(out.op_kind), 50) * ms
    cpu_ms_per_op = sum(s["shard_cpu_s"] for s in kept) * ms / max(n_ops, 1)
    ref_ms, n_refs = phase.window.ref_ms(kept)
    attempted = max(out.attempted, 1)
    return {
        # Gated (CONTRACT): defined on every workload.  Times are divided
        # by the reference measured in the same slices (host.py).
        "setup_s": (statistics.median(phase.setup_s), "s", len(phase.setup_s)),
        "op_p50_ref": (op_p50_ms / ref_ms if ref_ms else 0.0, "ref", n_ops),
        "server_cpu_ref_per_op": (cpu_ms_per_op / ref_ms if ref_ms else 0.0, "ref", n_ops),
        "storage_overhead": (phase.overhead, "ratio", 1),
        "server_peak_rss_MB": (phase.window.rss_mb, "MB", 1),
        # Reported only; n=0 where the workload has no such op.
        "ref_ms": (ref_ms, "ms", n_refs),
        "op_p50_ms": (op_p50_ms, "ms", n_ops),
        "server_cpu_ms_per_op": (cpu_ms_per_op, "ms", n_ops),
        "user_MBps": (sum(r[2] for r in ops) / kept_s / 1e6 if kept_s else 0.0, "MB/s", n_ops),
        "client_cpu_ms_per_op": (
            sum(s["client_cpu_s"] for s in kept) * ms / max(n_ops, 1), "ms", n_ops),
        "op_p99_ms": (_pct(lat(out.op_kind), 99) * ms, "ms", n_ops),
        "put_p50_ms": (_pct(lat("put"), 50) * ms, "ms", len(lat("put"))),
        "put_p99_ms": (_pct(lat("put"), 99) * ms, "ms", len(lat("put"))),
        "step_p50_ms": (_pct(lat("step"), 50) * ms, "ms", len(lat("step"))),
        "get_p50_ms": (_pct(lat("get"), 50) * ms, "ms", len(lat("get"))),
        "get_p99_ms": (_pct(lat("get"), 99) * ms, "ms", len(lat("get"))),
        "recovery_p50_ms": (_pct(lat("recovery"), 50) * ms, "ms", len(lat("recovery"))),
        "error_rate": (out.failed / attempted, "ratio", out.attempted),
    }


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"#   {name:34s} {value:14.6f} {unit:6s} n={n}")


def print_window(phase: Phase) -> None:
    """How long the window stayed open and how busy the host was meanwhile."""
    every, kept = phase.window.slices(), phase.window.kept()

    def share(slices):
        return statistics.mean(s["others"] for s in slices) if slices else 0.0

    print(f"# window {every[-1]['t1'] - every[0]['t0']:.2f} s; metrics over the quietest "
          f"{sum(s['t1'] - s['t0'] for s in kept):.2f} s; CPU share lent to others "
          f"{share(kept):.3f} there, {share(every):.3f} over the window")


def measure(args, run_dir: str, phases: list) -> tuple[dict, tuple]:
    """Run the workload (once, or untraced then traced); returns metrics."""
    from perfbench import layers

    if not args.trace:
        phases.append(Phase(args, run_dir, False, SETUPS))
        print_window(phases[0])
        metrics = end_to_end(phases[0])
        print_table(f"{args.workload}: end-to-end (untraced)", metrics)
        return metrics, CONTRACT
    # Half the window untraced, half traced: the two phases share --seconds.
    half = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
    phases.append(Phase(half, run_dir, False, 1))
    layers.install_client()
    phases.append(Phase(half, run_dir, True, 1))
    base, traced = phases
    shard_samples = traced.shard.get("samples", {})
    if not shard_samples.get("server"):
        raise RuntimeError("the traced shard wrote no server samples at exit")
    samples = {k: list(v) for k, v in layers.SAMPLES.items()}
    for layer, rows in shard_samples.items():
        samples.setdefault(layer, []).extend(tuple(r) for r in rows)
    base_e2e, traced_e2e = end_to_end(base), end_to_end(traced)
    print_window(traced)
    print_table(f"{args.workload}: end-to-end (untraced)", base_e2e)
    print_table(f"{args.workload}: end-to-end (traced)", traced_e2e)
    w = traced.window
    metrics = layers.layer_metrics(
        samples, w.counters["start"], w.counters["end"], w.copies["end"] - w.copies["start"],
        traced.out,
    )
    # Tracing overhead: traced minus untraced, from the two phases; the
    # share uses the reference-divided p50 so host drift between the two
    # phases does not count.
    base_ref, traced_ref = base_e2e["op_p50_ref"][0], traced_e2e["op_p50_ref"][0]
    n = traced_e2e["op_p50_ms"][2]
    metrics["trace.overhead_op_p50_ms"] = (
        traced_e2e["op_p50_ms"][0] - base_e2e["op_p50_ms"][0], "ms", n)
    metrics["trace.overhead_share"] = (traced_ref / base_ref - 1 if base_ref else 0.0, "ratio", n)
    print_table(f"{args.workload}: per layer (traced)", metrics)
    return metrics, tuple(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "analysis", "recovery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    _use_checkout()
    cold = fill_native_cache()
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench.host import host_ticks

    prov = provenance(cold)
    ticks = host_ticks()
    run_dir = os.path.join(_build_dir(), f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    phases: list[Phase] = []
    metrics, contract, errors = {}, (), []
    try:
        metrics, contract = measure(args, run_dir, phases)
    except Exception as exc:
        # A run that breaks still reports: one failed op, and no metrics.
        traceback.print_exc()
        errors.append(f"run: {exc!r}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        stop_children()
    attempted = sum(p.out.attempted for p in phases) + len(errors)
    failed = sum(p.out.failed for p in phases) + len(errors)
    errors = [e for p in phases for e in p.out.errors] + errors

    end_ticks = host_ticks()
    if end_ticks[2] > ticks[2]:
        # Share of the host's CPU time the hypervisor gave to others.
        prov["host_steal_share"] = (end_ticks[0] - ticks[0]) / (end_ticks[2] - ticks[2])
    shard = phases[-1].shard if phases else {}
    prov["shard_gf_kernels"] = shard.get("kernels")
    prov["shard_native_kernel"] = shard.get("native")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for err in errors:
        print(f"# FAILED: {err}")
    print(f"# error_rate {failed}/{attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in contract
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
