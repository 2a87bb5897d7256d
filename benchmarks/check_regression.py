#!/usr/bin/env python
"""Codec performance regression gate.

Measures the erasure-kernel data path (the only part of the reproduction
doing real host-side computation) and compares it against the committed
baseline ``benchmarks/BENCH_codec.json``:

- absolute throughputs (MB/s) may not drop more than ``--tolerance``
  (default 30%) below the baseline;
- the machine-relative speedup ratios — fused encode vs the seed per-cell
  kernel, and 32-stripe batched encode vs a per-stripe loop — must stay
  above their acceptance floors (3x and 1.5x) regardless of host speed;
- the stripe-parallel encode path (column splits over a worker pool, the
  configuration the live backend runs) must clear an *absolute* floor of
  2x the pre-native-kernel serial baseline (867.6 MB/s).

Usage:
    PYTHONPATH=src python benchmarks/check_regression.py                  # gate
    PYTHONPATH=src python benchmarks/check_regression.py --write-baseline # record
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.erasure import RSCode
from repro.erasure.gf256 import GF256

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_codec.json")

SHARD = 1 << 20  # single-stripe measurements: 1 MiB shards
BATCH_STRIPES = 32
# Batched measurements use staging-object-sized shards (config
# object_max_bytes is 4 KiB): per-call overhead dominates there, which is
# exactly the regime the batch API exists for.
BATCH_SHARD = 2048

MIN_ENCODE_SPEEDUP_VS_SEED = 3.0
MIN_BATCH_SPEEDUP_VS_LOOP = 1.5
# Absolute (host-independent) floor for the stripe-parallel encode path:
# 2x the serial rs_encode_6_3_mb_s baseline committed before the native
# kernel and the parallel splits landed (433.8 MB/s).
MIN_PARALLEL_ENCODE_MB_S = 867.6


def best_time(fn, reps: int) -> float:
    """Best-of-``reps`` wall time — robust to scheduler noise."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(reps: int) -> dict[str, float]:
    rng = np.random.default_rng(0)
    shards = [rng.integers(0, 256, SHARD, dtype=np.uint8) for _ in range(6)]
    metrics: dict[str, float] = {}

    acc = np.zeros(SHARD, dtype=np.uint8)
    t = best_time(lambda: GF256.addmul_bytes(acc, 0x57, shards[0]), reps)
    metrics["gf_addmul_mb_s"] = SHARD / t / 1e6

    code = RSCode(6, 3)
    code.encode(shards)  # warm kernel table caches
    t = best_time(lambda: code.encode(shards), reps)
    metrics["rs_encode_6_3_mb_s"] = 6 * SHARD / t / 1e6

    # Same product through the seed per-cell kernel: the speedup ratio is
    # machine-relative, so it gates vectorization quality, not host speed.
    GF256.set_kernel("reference")
    try:
        t = best_time(lambda: code.encode(shards), max(1, reps // 2))
    finally:
        GF256.set_kernel(None)
    metrics["rs_encode_seed_kernel_mb_s"] = 6 * SHARD / t / 1e6
    metrics["encode_speedup_vs_seed"] = (
        metrics["rs_encode_6_3_mb_s"] / metrics["rs_encode_seed_kernel_mb_s"]
    )

    stripes = [
        [rng.integers(0, 256, BATCH_SHARD, dtype=np.uint8) for _ in range(6)]
        for _ in range(BATCH_STRIPES)
    ]
    batch_bytes = BATCH_STRIPES * 6 * BATCH_SHARD
    code.encode_batch(stripes)  # warm
    t = best_time(lambda: code.encode_batch(stripes), reps)
    metrics["rs_encode_batch32_mb_s"] = batch_bytes / t / 1e6

    def loop():
        for s in stripes:
            code.encode(s)

    t = best_time(loop, reps)
    metrics["rs_encode_loop32_mb_s"] = batch_bytes / t / 1e6
    metrics["batch_speedup_vs_loop"] = (
        metrics["rs_encode_batch32_mb_s"] / metrics["rs_encode_loop32_mb_s"]
    )

    dec = RSCode(4, 2)
    parity = dec.encode(shards[:4])
    present = {0: shards[0], 2: shards[2], 4: parity[0], 5: parity[1]}
    dec.decode(present)  # warm decode-matrix cache
    t = best_time(lambda: dec.decode(present), reps)
    metrics["rs_decode_4_2_mb_s"] = 4 * SHARD / t / 1e6

    rparity = code.encode(shards)
    full = {i: s for i, s in enumerate(shards + rparity)}
    rec_present = {i: s for i, s in full.items() if i != 3}
    code.reconstruct_shard(rec_present, 3)  # warm row cache
    t = best_time(lambda: code.reconstruct_shard(rec_present, 3), reps)
    metrics["rs_reconstruct_shard_mb_s"] = SHARD / t / 1e6

    # Stripe-parallel encode: the exact configuration the live backend
    # runs — column splits fanned over a small worker pool, first split
    # inline on the calling thread (LiveEngine.codec_map's discipline).
    workers = min(8, os.cpu_count() or 1)
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="bench-codec")
    try:
        pcode = RSCode(6, 3)

        def pool_map(tasks):
            futs = [pool.submit(task) for task in tasks[1:]]
            tasks[0]()
            for fut in futs:
                fut.result()

        pcode.parallel_map = pool_map
        pcode.encode(shards)  # warm + verify the splits actually fan out
        t = best_time(lambda: pcode.encode(shards), reps)
    finally:
        pool.shutdown(wait=True)
    metrics["rs_encode_parallel_mb_s"] = 6 * SHARD / t / 1e6
    metrics["parallel_passes"] = float(pcode.parallel_stats["passes"])

    return metrics


def check_ratios(metrics: dict[str, float]) -> list[str]:
    failures = []
    if metrics["encode_speedup_vs_seed"] < MIN_ENCODE_SPEEDUP_VS_SEED:
        failures.append(
            f"fused encode is only {metrics['encode_speedup_vs_seed']:.2f}x the "
            f"seed kernel (floor {MIN_ENCODE_SPEEDUP_VS_SEED}x)"
        )
    if metrics["batch_speedup_vs_loop"] < MIN_BATCH_SPEEDUP_VS_LOOP:
        failures.append(
            f"batched encode is only {metrics['batch_speedup_vs_loop']:.2f}x the "
            f"per-stripe loop (floor {MIN_BATCH_SPEEDUP_VS_LOOP}x)"
        )
    if metrics["rs_encode_parallel_mb_s"] < MIN_PARALLEL_ENCODE_MB_S:
        failures.append(
            f"stripe-parallel encode at {metrics['rs_encode_parallel_mb_s']:.1f} "
            f"MB/s is below the absolute floor {MIN_PARALLEL_ENCODE_MB_S} MB/s"
        )
    if metrics["parallel_passes"] < 1:
        failures.append("parallel encode never fanned out (0 parallel passes)")
    return failures


def check_baseline(metrics: dict[str, float], baseline: dict, tolerance: float) -> list[str]:
    failures = []
    for key, base in baseline["metrics"].items():
        if not key.endswith("_mb_s"):
            continue  # ratios are gated by their own floors, not the baseline
        now = metrics.get(key)
        if now is None:
            failures.append(f"metric {key} missing from this run")
            continue
        if now < base * (1.0 - tolerance):
            failures.append(
                f"{key}: {now:.1f} MB/s is {(1 - now / base) * 100:.0f}% below "
                f"baseline {base:.1f} MB/s (tolerance {tolerance * 100:.0f}%)"
            )
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=BASELINE_PATH)
    ap.add_argument("--tolerance", type=float, default=0.30)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as the new committed baseline instead of gating",
    )
    args = ap.parse_args()

    metrics = measure(args.reps)
    for key in sorted(metrics):
        unit = " MB/s" if key.endswith("_mb_s") else ""
        print(f"  {key:32s} {metrics[key]:10.2f}{unit}")

    failures = check_ratios(metrics)

    if args.write_baseline:
        if failures:
            print("\nrefusing to record a baseline that fails the ratio floors:")
            for f in failures:
                print(f"  FAIL: {f}")
            return 1
        payload = {
            "note": "codec throughput baseline for benchmarks/check_regression.py",
            "shard_bytes": SHARD,
            "batch_stripes": BATCH_STRIPES,
            "batch_shard_bytes": BATCH_SHARD,
            "kernels": GF256.selected_kernels(),
            "metrics": {k: round(v, 3) for k, v in metrics.items()},
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nbaseline written to {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"\nno baseline at {args.baseline}; run with --write-baseline first")
        return 1
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures += check_baseline(metrics, baseline, args.tolerance)

    if failures:
        print("\ncodec performance regression:")
        for f in failures:
            print(f"  FAIL: {f}")
        return 1
    print("\nok: no codec regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
