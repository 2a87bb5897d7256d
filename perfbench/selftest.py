"""Tiny-size self-test of the staging benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

- the byte comparison flags a deliberately corrupted buffer, both
  directly and end to end (a run whose expected bytes were flipped in
  this process must exit non-zero with ``"correct": false``);
- on every workload, ``--trace 0`` and ``--trace 1`` emit every metric
  ``BENCHMARK.json`` names, with its unit, and print a sample count for
  it in the human-readable table;
- the per-layer figures show each workload's work where it belongs:
  codec calls on ``ingest`` and ``recovery`` but none on ``analysis``,
  recovered objects only on ``recovery``, server service time on all.

Runs are 1 s, so the whole test takes about a minute.  Exit code 0
means every check passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROW = re.compile(r"^#\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?\d+)?)\s+(\S+)\s+n=(\d+)$")


def args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]


def parse(stdout: str) -> tuple[dict, dict]:
    """(last-line JSON, {metric: (unit, n)} from the human-readable table)."""
    lines = stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        m = ROW.match(line)
        if m:
            table[m.group(1)] = (m.group(3), int(m.group(4)))
    return json.loads(lines[-1]), table


def run(workload: str, trace: int) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args(workload, trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if not proc.stdout.strip():
        raise AssertionError(f"{workload}/{trace}: no output\n{proc.stderr[-2000:]}")
    return (proc.returncode, *parse(proc.stdout))


def check_corruption() -> None:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import Payloads, blocks_match

    payloads = Payloads(seed=7)
    payloads.expected[(0, 5)] = 3
    good = payloads.pool[3].copy()
    assert blocks_match({5: memoryview(good)}, 0, payloads) == []
    bad = good.copy()
    bad[1234] ^= 0x01
    assert blocks_match({5: memoryview(bad)}, 0, payloads) == ["slot0/5"]

    # End to end: flip one expected byte just before the post-window
    # read-back, in this process, and run the benchmark here.
    from perfbench import run as bench
    from perfbench import workloads

    read_back = workloads.read_back

    def corrupted_read_back(client, payloads, out):
        payloads.pool[payloads.expected[(0, 0)], 0] ^= 0xFF
        read_back(client, payloads, out)

    workloads.read_back = corrupted_read_back
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = bench.main(args("analysis", 0))
    finally:
        workloads.read_back = read_back
    result, _ = parse(stdout.getvalue())
    assert code != 0, "a corrupted expected buffer must fail the run"
    assert result["correct"] is False and result["failed"] >= 1, result


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, table = run(wl["name"], trace)
            assert code == 0 and result["correct"], (wl["name"], trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            assert set(got) == set(want), (wl["name"], set(got) ^ set(want))
            for name, unit in want.items():
                assert got[name]["unit"] == unit, (name, got[name], unit)
                assert isinstance(got[name]["value"], float), (name, got[name])
                assert name in table and table[name][0] == unit, (name, table.get(name))
            if trace:
                check_layers(wl["name"], {name: m["value"] for name, m in got.items()})
            print(f"ok {wl['name']} --trace {trace}: {len(want)} metrics")


def check_layers(workload: str, value: dict) -> None:
    """Each workload's work shows in the layers it should, and only there."""
    assert value["server.service_ms_p50"] > 0, (workload, value["server.service_ms_p50"])
    codec = value["codec.calls_per_op"]
    assert (codec == 0) if workload == "analysis" else (codec > 0), (workload, codec)
    recovered = value["recovery.objects_per_round"]
    assert (recovered > 0) if workload == "recovery" else (recovered == 0), (workload, recovered)


def main() -> int:
    check_corruption()
    print("ok corruption is flagged")
    check_metrics()
    return 0


if __name__ == "__main__":
    sys.exit(main())
