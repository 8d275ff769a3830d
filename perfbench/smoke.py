"""Smoke check of the benchmark harness at reduced size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with --small for one second, timed
and traced, and checks that each run exits 0 with a last line of the
agreed shape (keys, metric names and units, no failed check).  It also
runs the benchmark in a copy holding only BENCHMARK.json and perfbench/,
where it must fail without printing a result.  Exits 1 on any problem.
"""

from __future__ import annotations

import glob
import json
import math
import os
import shutil
import subprocess
import sys

from common import HERE, ROOT, WORK
import layers


def _problems(result: dict, wanted: dict, positive: bool) -> list:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        out.append(f"checks failed: {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        out.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        out.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != wanted.get(name):
            out.append(f"{name}: unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"{name}: value {value!r}")
        elif positive and value <= 0:
            out.append(f"{name}: value {value} is not positive")
    return out


def _run(root: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=root, capture_output=True, text=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != layers.UNITS:
        failures.append("BENCHMARK.json per_layer differs from layers.UNITS")
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            for p in _problems(result, wanted, positive=trace == 0):
                failures.append(f"{tag}: {p}")
            print(f"ok   {tag}: {result['attempted']} checks", flush=True)

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in glob.glob(os.path.join(HERE, "*.py")):
        shutil.copy(path, os.path.join(bare, "perfbench"))
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("without src/ the benchmark did not fail cleanly")
    else:
        print("ok   without src/: exit", proc.returncode)

    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
