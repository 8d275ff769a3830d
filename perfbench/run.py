"""Benchmark of ipme: one workload per run, timed or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: cauchy-385, radial-oracle, cli-suite (see perfbench/README.md).
The run builds its inputs from the seed, measures set-up in fresh
interpreters, then repeats the workload until S seconds have passed,
checking every output.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it times half of the iterations untraced and
half with spans around every layer's entry points, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

from statistics import median

from common import (HERE, TRACES, WORK, Tally, Tracer, child_env,
                    machine_facts, merge_summaries, peak_rss_mb,
                    source_present, summarize_spans, use_source)
import layers
from workloads import WORKLOADS

PROBE = os.path.join(HERE, "probe.py")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "node_steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "max_rel_err": "ratio"}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the smoke check only")
    return ap.parse_args(argv)


def _setup_times(name: str, inputs_path: str, work: str, reps: int) -> list:
    """Seconds from starting a fresh interpreter until the workload's
    problem objects are built, once per repeat."""
    out = []
    for _ in range(reps):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, PROBE, name, inputs_path, work],
                              cwd=work, env=child_env(), capture_output=True,
                              text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def _iterate(mod, inp, state, ref, work, tally, seconds, min_iters, traced):
    results = []
    t0 = time.monotonic()
    while len(results) < min_iters or time.monotonic() - t0 < seconds:
        res = mod.iteration(inp, state, ref, work, tally, traced)
        if res is None:
            break
        results.append(res)
    return results


def _scipy_import_s(work: str) -> float:
    """Self time of every scipy module imported by `import ipme.cli`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import ipme.cli"], cwd=work, env=child_env(),
                          capture_output=True, text=True, check=True)
    total_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m and m.group(2).split(".")[0] == "scipy":
            total_us += int(m.group(1))
    return total_us / 1e6


def _cli_trace(results: list) -> tuple:
    """Span summary, counters and import times of the traced commands."""
    parts, counters, imports, processes = [], {}, [], []
    for res in results:
        for data in res["runs"]:
            processes.append(data)
            imports.append(data["import_s"])
            parts.append(summarize_spans(data["spans"]))
            for k, v in data["spans"]["counters"].items():
                counters[k] = counters.get(k, 0) + v
    return merge_summaries(parts), counters, imports, processes


def _write_trace(name: str, data) -> None:
    os.makedirs(TRACES, exist_ok=True)
    with open(os.path.join(TRACES, f"{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(data, fh)


def _traced_run(name, mod, inp, state, ref, work, tally, seconds):
    plain = _iterate(mod, inp, state, ref, work, tally, seconds / 2, 1, False)
    if not plain:
        return None, []
    tracer = None
    if mod.IN_PROCESS:
        tracer = Tracer()
        layers.install(tracer)
    traced = _iterate(mod, inp, state, ref, work, tally, seconds / 2, 1, True)
    if not traced:
        return None, []
    plain_s = median([r["wall_s"] for r in plain])
    traced_s = median([r["wall_s"] for r in traced])
    extra = {"trace.wall_s": traced_s, "trace.overhead_s": traced_s - plain_s,
             "trace.overhead_frac": (traced_s - plain_s) / plain_s,
             "cli.import_s": 0.0, "cli.import_scipy_s": 0.0,
             "cli.import_share": 0.0}
    if tracer is not None:
        data = tracer.to_json()
        _write_trace(name, data)
        summary, counters = summarize_spans(data), tracer.counters
    else:
        summary, counters, imports, processes = _cli_trace(traced)
        _write_trace(name, processes)
        extra["cli.import_s"] = median(imports)
        extra["cli.import_scipy_s"] = _scipy_import_s(work)
        extra["cli.import_share"] = sum(imports) / sum(
            r["wall_s"] for r in traced)
    return layers.metrics(summary, counters, len(traced), extra), traced


def _report(metrics: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    args = _args(argv)
    if not source_present():
        print("run.py: src/ipme not found next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    use_source()
    name, mod = args.workload, WORKLOADS[args.workload]
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    # temporary files of the program (and its children) stay in the checkout
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    try:
        inp = mod.inputs(args.seed, args.small)
        inputs_path = os.path.join(work, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inp, fh)
        tally = Tally()
        ref = mod.prepare(inp, work)
        setups = _setup_times(name, inputs_path, work, 2 if args.small else 3)
        state = mod.setup(inp, work) if mod.IN_PROCESS else None
        if args.trace:
            metrics, results = _traced_run(name, mod, inp, state, ref, work,
                                           tally, args.seconds)
        else:
            results = _iterate(mod, inp, state, ref, work, tally,
                               args.seconds, 2, False)
        if not results:
            print("run.py: no iteration completed:\n  "
                  + "\n  ".join(tally.failures), file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [r["wall_s"] for r in results]
    rates = [r["node_steps"] / r["loop_s"] for r in results]
    rss = peak_rss_mb("self" if mod.IN_PROCESS else "children")
    print(f"machine {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"workload {name} seed {args.seed} trace {args.trace} "
          f"inputs {json.dumps(inp, sort_keys=True)}")
    print(f"wall_s           median {median(walls):.4f} s  "
          f"max {max(walls):.4f} s  (n={len(walls)} iterations)")
    print(f"setup_s          median {median(setups):.4f} s  "
          f"max {max(setups):.4f} s  (n={len(setups)} fresh interpreters)")
    print(f"node_steps_per_s median {median(rates):.6g} 1/s  "
          f"min {min(rates):.6g} 1/s  (n={len(rates)}; "
          f"{results[0]['node_steps']} node updates per iteration)")
    print(f"peak_rss_mb      {rss:.1f} MB")
    print(f"fail_frac        {tally.failed / max(tally.attempted, 1):.4g} "
          f"ratio  ({tally.failed} failed / {tally.attempted} attempted)")
    print(f"max_rel_err      {max(r['err'] for r in results):.6g} ratio")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    if args.trace:
        units = layers.UNITS
        for k in sorted(metrics):
            print(f"  {k:44s} {metrics[k]:.6g} {units[k]}")
    else:
        metrics = {"wall_s": median(walls), "setup_s": median(setups),
                   "node_steps_per_s": median(rates), "peak_rss_mb": rss,
                   "max_rel_err": max(r["err"] for r in results)}
        units = END_TO_END_UNITS
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": _report(metrics, units)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
