"""Workload cli-suite: `ipme` commands run in sequence, each in a fresh
interpreter, as a user would run them.  Each runs through cli_runner.py,
which calls `ipme.cli.main` and counts the kernel's node updates.

  solve   the three shipped example configs (65^2, exact lateral data);
  exact   a Barenblatt family at 10 times on 129^2, and a separable ball,
          which builds the scipy profile tables;
  asym    support, rate, benilan and barenblatt on the Barenblatt output;
  verify  every suite.

About a second of each command is import, so lazy imports, `exact` and
small-file I/O show here and the stencil kernel barely does.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

from common import HERE, child_env

IN_PROCESS = False
RUNNER = os.path.join(HERE, "cli_runner.py")
THIRD = 1.0 / 3.0
RATE_BOUND = 0.05

# copies of the shipped configs at the time the benchmark was written,
# so later edits to configs/ do not change the workload
REGRESSION_TW = {
    "problem": "dirichlet", "m": 2.0, "eps": 0.001, "delta": 0.001,
    "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [65, 65]},
    "data": {"kind": "traveling-wave", "speed": 1.0, "offset": 0.5},
    "boundary": {"kind": "exact"}, "t_end": 0.1,
    "regression_threshold": 0.01,
}
TRAVELING_WAVE_REGRESSION = {
    "problem": "dirichlet", "m": 2.0, "eps": 0.001, "delta": 0.001,
    "c": 0.001,
    "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [65, 65]},
    "data": {"kind": "traveling-wave", "speed": 1.0, "offset": 0.3},
    "boundary": {"kind": "exact"}, "t_end": 0.25,
    "snapshot_times": [0.125, 0.25], "regression_threshold": 0.008,
}
BARENBLATT_DIRICHLET = {
    "problem": "dirichlet", "m": 2.0, "c": 0.0,
    "grid": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0], "n": [65, 65]},
    "data": {"kind": "barenblatt", "R": 1.2, "t_offset": 1.0},
    "boundary": {"kind": "exact"}, "t_end": 0.5,
    "snapshot_times": [0.25, 0.5],
    "schedule": {"eps_list": [0.01, 0.003], "delta_list": [0.001]},
}
SOLVES = ("regression_tw", "traveling_wave_regression",
          "barenblatt_dirichlet")


def inputs(seed: int, small: bool) -> dict:
    """Seed 0 is the shipped configs; other seeds move the front scale of
    the Barenblatt solve within +-5% of 1.2.

    The inputs behind the accuracy metric stay fixed: a 2% change of the
    regression wave's offset moves its error statistic by up to 25%, and
    a 5% change of the sampled family's R moves the fitted rate's error
    up to 20-fold.  The separable ball keeps R = 0.5: for several radii
    near it the profile-table endpoint check fails (IPME-E13)."""
    rng = random.Random(seed)
    bd_scale = 1.0 + rng.uniform(-0.05, 0.05) if seed else 1.0
    bd = json.loads(json.dumps(BARENBLATT_DIRICHLET))
    bd["data"]["R"] = 1.2 * bd_scale
    times = [8.0 ** (i / 9.0) for i in range(10)]
    n_family = 65 if small else 129
    return {
        "regression_tw": REGRESSION_TW,
        "traveling_wave_regression": TRAVELING_WAVE_REGRESSION,
        "barenblatt_dirichlet": bd,
        "exact_barenblatt": {
            "grid": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5],
                     "n": [n_family, n_family]},
            "exact": {"family": "barenblatt", "m": 2.0,
                      "R": 0.5, "times": times}},
        "exact_ball": {
            "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [65, 65]},
            "exact": {"family": "separable-ball", "m": 2.0, "R": 0.5,
                      "t": 1.0}},
        "asym": {"asym": {"tasks": ["support", "rate", "benilan",
                                    "barenblatt"],
                          "m": 2.0, "center": [0.0, 0.0]}},
    }


def _config_path(work: str, name: str) -> str:
    return os.path.join(work, f"{name}.yaml")


def _commands(work: str) -> list:
    """(name, argv) of one iteration; outputs land under `work`."""
    out = os.path.join(work, "out")

    def run(sub, name, *sets):
        argv = [sub, _config_path(work, name),
                "--set", f"output={os.path.join(out, name)}"]
        for s in sets:
            argv += ["--set", s]
        return name, argv

    family = os.path.join(out, "exact_barenblatt")
    return [run("solve", n) for n in SOLVES] + [
        run("exact", "exact_barenblatt"),
        run("exact", "exact_ball"),
        run("asym", "asym", f"asym.snapshots={family}"),
        ("verify", ["verify"]),
    ]


def setup(inp: dict, work: str) -> dict:
    import ipme.cli

    return {name: ipme.cli.load_config(_config_path(work, name))
            for name in inp}


def prepare(inp: dict, work: str) -> dict:
    """Write the generated configs."""
    for name, cfg in inp.items():
        with open(_config_path(work, name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    return {}


def iteration(inp: dict, state: dict, ref: dict, work: str, tally,
              traced: bool) -> dict | None:
    import yaml

    reports = {}
    mode = "--spans" if traced else "--count"
    t0 = time.perf_counter()
    for name, argv in _commands(work):
        path = os.path.join(work, f"runner_{name}.json")
        proc = subprocess.run([sys.executable, RUNNER, mode, path, "--"]
                              + argv, cwd=work, env=child_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if tally.check(proc.returncode == 0,
                       f"ipme {' '.join(argv)} exited {proc.returncode}: "
                       f"{proc.stderr.strip()}"):
            with open(path, "r", encoding="utf-8") as fh:
                reports[name] = json.load(fh)
    wall = time.perf_counter() - t0
    if len(reports) < len(_commands(work)):
        return None

    out = os.path.join(work, "out")
    try:
        with open(os.path.join(out, "regression_tw", "manifest.yaml"),
                  encoding="utf-8") as fh:
            man = yaml.safe_load(fh)
        with open(os.path.join(out, "asym", "asym_summary.yaml"),
                  encoding="utf-8") as fh:
            rate = float(yaml.safe_load(fh)["rate"]["rate"])
        rel = float(man["error_stat"]["rel"])
        thr = float(man["regression_threshold"])
    except (OSError, KeyError, TypeError, ValueError) as e:
        tally.check(False, f"outputs missing or malformed: {e}")
        return None
    tally.check(rel <= thr, f"regression_tw rel {rel} above {thr}")
    tally.check(abs(rate - THIRD) <= RATE_BOUND,
                f"fitted front rate {rate} not within {RATE_BOUND} of 1/3")
    return {"wall_s": wall,
            "loop_s": sum(reports[n]["main_s"] for n in SOLVES),
            "node_steps": sum(reports[n]["node_steps"] for n in SOLVES),
            "err": max(rel, abs(rate - THIRD) / THIRD),
            "runs": list(reports.values())}
