"""Run the benchmark on a parent commit and on this tree, alternated in
pairs, and write the medians, quartiles, pair wins and verdicts to a JSON file.

    python3 tools/bench_pair.py --parent REV --out BENCH_<n>.json \\
        [--seconds S] [--seed N] WORKLOAD:PAIRS [WORKLOAD:PAIRS ...]

e.g. `--parent HEAD~1 --out BENCH_<n>.json cauchy-385:10
radial-oracle:3 cli-suite:3`.  The parent side is the committed files of
REV, exported with `git archive` into a temporary directory that is
removed at the end; the change side is this working tree as it stands,
uncommitted edits included.  Each pair runs `perfbench/run.py --workload
W --seed N --seconds S` once in each tree, the parent first in even pairs
and the change first in odd ones.  A metric's direction and bound are the
ones `BENCHMARK.json` gives it; a pair is won when the change reads
strictly better, and a tie counts for neither side.  Failed operations
count as `fail_frac`, lower is better, with a bound of 0.

Each metric gets a verdict, the first that holds of:

    gain        the change won at least 9/10 of the pairs, and its median
                is better than the parent's by more than the parent's IQR
    unresolved  the parent's IQR is more than the bound and neither side
                won every pair, so the runs spread too widely to tell
    worse       the change's median is worse than the parent's by more
                than the bound (a share of the parent's median)
    level       otherwise
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, into: str) -> None:
    """The committed files of `rev`, written below `into`."""
    with subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(into, filter="data")
    if proc.returncode != 0:
        raise SystemExit(f"git archive {rev} failed")


def _run(tree: str, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in `tree`: its end-to-end metrics by name, with
    the share of failed operations as `fail_frac`, and its machine
    facts."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    metrics["fail_frac"] = last["failed"] / max(last["attempted"], 1)
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return {"metrics": metrics, "machine": machine}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _verdict(out: dict, bound: float) -> str:
    """gain, unresolved, worse or level: see the module docstring."""
    sign = 1.0 if out["better"] == "higher" else -1.0
    parent, change = out["parent"], out["change"]
    iqr = parent["q3"] - parent["q1"]
    gain = sign * (change["median"] - parent["median"])
    scale = abs(parent["median"])
    if 10 * out["change_wins"] >= 9 * out["pairs"] and gain > iqr:
        return "gain"
    if iqr > bound * scale and out["pairs"] not in (out["change_wins"],
                                                    out["parent_wins"]):
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    return "level"


def _summary(parent: list, change: list, better: str, bound: float) -> dict:
    """Both sides' medians and quartiles, the pairs the change won, and
    the verdict."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    out = {"better": better, "pairs": len(parent), "change_wins": wins,
           "parent_wins": losses}
    for side, values in (("parent", parent), ("change", change)):
        q1, q3 = _quartiles(values)
        out[side] = {"median": statistics.median(values), "q1": q1,
                     "q3": q3, "runs": values}
    base = out["parent"]["median"]
    out["rel_change"] = (out["change"]["median"] - base) / base if base \
        else None
    out["bound"] = bound
    out["verdict"] = _verdict(out, bound)
    return out


def _pairs(spec: str) -> tuple:
    name, _, count = spec.partition(":")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:PAIRS, got {spec!r}")
    return name, int(count)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="the commit to compare against")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="seconds per run, both sides")
    ap.add_argument("--seed", type=int, default=0,
                    help="the seed of every run, both sides")
    ap.add_argument("workloads", nargs="+", type=_pairs,
                    help="WORKLOAD:PAIRS")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        rules = {m["name"]: (m["better"], m["bound"])
                 for m in json.load(fh)["end_to_end"]}
    rules["fail_frac"] = ("lower", 0.0)
    parent_rev = _git("rev-parse", "--verify", args.parent + "^{commit}")
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))

    scratch = tempfile.mkdtemp(prefix="bench_pair_")
    try:
        parent_tree = os.path.join(scratch, "parent")
        _export(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        report = {"command": "python3 tools/bench_pair.py " + " ".join(
                      argv if argv is not None else sys.argv[1:]),
                  "seconds": args.seconds, "seed": args.seed,
                  "commits": {"parent": parent_rev, "change_head": head,
                              "change_has_uncommitted_edits": dirty},
                  "workloads": {}}
        for name, count in args.workloads:
            runs = {"parent": [], "change": []}
            for i in range(count):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    runs[side].append(_run(trees[side], name, args.seconds,
                                           args.seed))
                    print(f"{name} pair {i + 1}/{count} {side}: "
                          f"{runs[side][-1]['metrics']}", flush=True)
            report.setdefault("machine", runs["change"][0]["machine"])
            report["workloads"][name] = {
                "src_sha256": {side: runs[side][0]["machine"]["src_sha256"]
                               for side in runs},
                "metrics": {
                    metric: _summary(
                        [r["metrics"][metric] for r in runs["parent"]],
                        [r["metrics"][metric] for r in runs["change"]],
                        *rules[metric])
                    for metric in runs["parent"][0]["metrics"]}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
