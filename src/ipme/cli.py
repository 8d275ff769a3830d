"""Command surface: configure, run, verify, and post-process experiments.

    ipme solve  CONFIG [--set key=value ...]
    ipme exact  CONFIG [--set key=value ...]
    ipme verify [--suite NAME ...] [--fault MODE]
    ipme asym   CONFIG [--set key=value ...]

Configs are YAML mappings validated against a fixed schema; `--set`
overrides apply after the file parse, address scalar leaves by dotted
path, and reject unknown keys.  A command records every leaf whose value
it takes while it builds its run, and before it computes anything it
rejects the first leaf, in file order, that it never took (IPME-E50): a
config serves one command.  Exit codes: 0 success, 2 continuation
warning, 1 error; diagnostics go to standard error as one
"IPME-E<code>:" line.  Outputs (snapshots, manifests, CSV) are fully
deterministic: no wall-clock or unseeded randomness is ever recorded.

Each command imports only the modules it runs: importing this module
loads `core`, `io` and `operators`, and `solve`, `exact`, `asym` and
`verify` import `solver`, `exact`, `asymptotics` and `verify` when they
start (an unknown `--suite` imports `verify` to name the known suites).
Every interpreter compiles what it imports when no bytecode is cached,
so `ipme exact` never pays for the solver or the suites.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

import numpy as np
import yaml

from . import io
from .operators import FAULT_MODES
from .core import (BoundaryData, ConfigError, DomainError, GridSpec,
                   IpmeError, NumericError, Params, RegularizationSchedule)

__all__ = ["main", "load_config"]

_NUM = (int, float)
_LIST = (list, tuple)


class Leaf(NamedTuple):
    """The contract of one config leaf: its type, the range a number must
    lie in as (wording, test), and the values a string may take.  SCHEMA
    holds a list leaf as [the Leaf of each entry]."""

    type: type | tuple
    rule: tuple = ()
    values: tuple = ()


def _one_of(*values: str) -> Leaf:
    return Leaf(str, values=values)


# the range each leaf's readers (Params, the problem classes, ball_mask,
# the schedule, the exact families) enforce, the nonnegative data and
# lateral values a pressure solve needs, and a positive regression
# threshold (no error statistic is within one <= 0)
_NUMBER, _TEXT = Leaf(_NUM), Leaf(str)
_ABOVE_ONE = Leaf(_NUM, ("exceed 1", lambda v: v > 1.0))
_POSITIVE = Leaf(_NUM, ("be positive", lambda v: v > 0.0))
_NONNEGATIVE = Leaf(_NUM, ("be >= 0", lambda v: v >= 0.0))

# every config leaf by dotted path; a section is the first part of a path
SCHEMA = {
    "problem": _one_of("dirichlet", "maximal", "cauchy"),
    "m": _ABOVE_ONE, "eps": _NONNEGATIVE, "delta": _NONNEGATIVE,
    "c": _NONNEGATIVE,
    "grid.lo": [_NUMBER], "grid.hi": [_NUMBER], "grid.n": [Leaf(int)],
    "domain.kind": _one_of("box", "ball"), "domain.radius": _POSITIVE,
    "domain.center": [_NUMBER],
    "data.kind": _one_of("constant", "bump", "linear", "barenblatt",
                         "traveling-wave", "separable-ball"),
    "data.value": _NONNEGATIVE, "data.height": _NONNEGATIVE,
    "data.radius": _POSITIVE, "data.slope": _NONNEGATIVE,
    "data.R": _POSITIVE, "data.t_offset": _NUMBER, "data.speed": _POSITIVE,
    "data.offset": _NUMBER,
    "boundary.kind": _one_of("zero", "constant", "exact"),
    "boundary.value": _NONNEGATIVE,
    "t_end": _POSITIVE, "snapshot_times": [_NUMBER],
    "schedule.eps_list": [_POSITIVE], "schedule.delta_list": [_POSITIVE],
    "schedule.n_list": [Leaf(int, ("be >= 1", lambda v: v >= 1))],
    "cauchy.M": _NONNEGATIVE, "cauchy.r": _POSITIVE,
    "regression_threshold": _POSITIVE, "seed": Leaf(int), "output": _TEXT,
    "exact.family": _TEXT, "exact.m": _ABOVE_ONE, "exact.quantity": _TEXT,
    "exact.t": _NUMBER, "exact.times": [_NUMBER], "exact.R": _NUMBER,
    "exact.speed": _POSITIVE, "exact.offset": _NUMBER, "exact.a": _NUMBER,
    "exact.R1": _NONNEGATIVE, "exact.t0": _NUMBER, "exact.C": _NUMBER,
    "asym.snapshots": _TEXT,
    "asym.tasks": [_one_of("support", "rate", "giant", "barenblatt",
                           "benilan")],
    "asym.threshold": _NONNEGATIVE, "asym.r_max": _POSITIVE,
    "asym.center": [_NUMBER], "asym.ball_radius": _POSITIVE,
    "asym.R_estimate": _POSITIVE, "asym.m": _ABOVE_ONE,
}
_SECTIONS = {path.partition(".")[0] for path in SCHEMA if "." in path}


def _leaves(cfg: dict, path: str = ""):
    """(path, value, leaf) of every leaf in file order, a list leaf as a
    whole and then entry by entry; unknown keys and non-mapping sections
    are a ConfigError."""
    for key, val in cfg.items():
        here = f"{path}{key}"
        # a dotted key is no path: sections nest as mappings
        leaf = None if "." in str(key) else SCHEMA.get(here)
        if here in _SECTIONS:
            if not isinstance(val, dict):
                raise ConfigError(f"{here!r} must be a mapping")
            yield from _leaves(val, here + ".")
        elif leaf is None:
            raise ConfigError(f"unknown config key {here!r}")
        elif isinstance(leaf, list):
            yield here, val, Leaf(_LIST)
            if isinstance(val, _LIST):
                for i, item in enumerate(val):
                    yield f"{here}[{i}]", item, leaf[0]
        else:
            yield here, val, leaf


def _check_keys(cfg: dict) -> None:
    """Type-check every leaf (IPME-E50), then check, leaf by leaf, that a
    number is finite and within its range (IPME-E10) and a string among
    its values (IPME-E50), whether or not the chosen command reads it."""
    leaves = list(_leaves(cfg))
    for here, val, leaf in leaves:
        # a YAML null is no leaf's type, and neither is a YAML bool,
        # although bool is a subclass of int
        if isinstance(val, bool) or not isinstance(val, leaf.type):
            got = "null" if val is None else type(val).__name__
            raise ConfigError(f"{here!r} has the wrong type ({got})")
    for here, val, leaf in leaves:
        if isinstance(val, float) and not math.isfinite(val):
            raise DomainError(f"{here} must be finite, got {val}")
        if leaf.rule and not leaf.rule[1](val):
            raise DomainError(f"{here} must {leaf.rule[0]}, got {val}")
        if leaf.values and val not in leaf.values:
            raise ConfigError(f"unknown {here.replace('.', ' ')} {val!r}; "
                              f"known: {', '.join(leaf.values)}")


def load_config(path: str) -> dict:
    """Parse and schema-check a YAML config; an empty body -> {}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = io.load_yaml(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"config {path!r} is not valid YAML: {e}") from e
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a mapping at top level")
    _check_keys(cfg)
    return cfg


def apply_overrides(cfg: dict, pairs: Sequence[str]) -> dict:
    """Apply --set key=value pairs (after the file parse).

    Keys are dotted schema paths; values parse as YAML scalars.  Unknown
    keys and non-scalar targets are hard errors.
    """
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key in _SECTIONS:
            raise ConfigError(f"override {key!r} addresses a section, "
                              f"not a scalar leaf")
        if key not in SCHEMA:
            raise ConfigError(f"unknown override key {key!r}")
        if isinstance(SCHEMA[key], list):
            raise ConfigError(f"override {key!r} addresses a list; flags "
                              f"only override scalar leaves")
        try:
            value = io.load_yaml(raw)
        except yaml.YAMLError as e:
            raise ConfigError(f"cannot parse override value {raw!r}: {e}")
        if isinstance(value, (dict, list)):
            raise ConfigError(f"override {key!r} must be a scalar")
        section, _, leaf = key.rpartition(".")
        node = cfg.setdefault(section, {}) if section else cfg
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r} collides with a "
                              f"non-mapping entry")
        node[leaf] = value
    _check_keys(cfg)
    return cfg


class _Reads(dict):
    """A config section that records the dotted path of every leaf whose
    value a run takes through `[]` or `get`; a membership test, a section
    lookup and `_leaves` take none."""

    def __init__(self, section: dict, taken: set, path: str = ""):
        super().__init__(section)
        self.taken, self.path = taken, path

    def __getitem__(self, key):
        val = super().__getitem__(key)
        if isinstance(val, dict):
            return _Reads(val, self.taken, f"{self.path}{key}.")
        self.taken.add(self.path + key)
        return val

    def get(self, key, default=None):
        return self[key] if key in self else default

    def check(self, run: str) -> None:
        """Reject the first leaf, in file order, that `run` never took."""
        for here, _, _ in _leaves(self):
            if "[" not in here and here not in self.taken:
                raise ConfigError(f"{run} reads no {here!r}")


def _require(cfg: _Reads, key: str):
    if key not in cfg:
        raise ConfigError(f"config key {cfg.path + key!r} is required")
    return cfg[key]


def _finite(section: dict, key: str, default=None) -> float:
    """section[key] as a float, finite because `_check_keys` rejected every
    non-finite number; `default` when the key is absent (None makes the key
    required)."""
    return float(_require(section, key) if default is None
                 else section.get(key, default))


def _build_grid(cfg: dict) -> GridSpec:
    g = _require(cfg, "grid")
    return GridSpec.box(*(_require(g, k) for k in ("lo", "hi", "n")))


def _build_params(cfg: dict, problem_kind: str) -> tuple:
    """(Params of the last stage, schedule or None, rung list or None).  A
    top-level eps or delta is read only where the schedule lists none, `c`
    only on a dirichlet run (the ladders set c = 1/(2n) on each rung), and
    `schedule.n_list` only on the ladders, which check it."""
    s = cfg.get("schedule") or {}
    eps = tuple(float(v) for v in s.get("eps_list", ())) or (
        float(cfg.get("eps", 1e-3)),)
    delta = tuple(float(v) for v in s.get("delta_list", ())) or (
        float(cfg.get("delta", 1e-3)),)
    ladder = problem_kind != "dirichlet"
    params = Params(m=float(_require(cfg, "m")), eps=eps[-1], delta=delta[-1],
                    c=0.0 if ladder else float(cfg.get("c", 0.0)))
    schedule = RegularizationSchedule(eps, delta) if (
        "eps_list" in s or "delta_list" in s) else None
    return params, schedule, s.get("n_list") if ladder else None


def _exact_companion(data: dict, m: float) -> tuple:
    """(spec, t_offset) of the data preset's exact solution, if it has one.

    The preset's keys other than `kind` and `t_offset` are its family's
    keys; the ball preset names its radius `radius`, the family's R, with
    a default of 1.0."""
    from . import exact

    kind = data.get("kind")
    if kind not in exact.FAMILIES:
        return None, 0.0
    keys = {k: data[k] for k in data if k != "kind"}
    # a time shift of the wave is a change of its offset, so the wave
    # preset takes no t_offset
    t_off = 0.0 if kind == "traveling-wave" else float(
        keys.pop("t_offset", 1.0))
    if kind == "separable-ball":
        if "R" in keys:
            raise ConfigError("separable-ball data take 'radius', not 'R'")
        keys["R"] = keys.pop("radius", 1.0)
    return exact.spec(kind, m, **keys), t_off


def _build_data(cfg: dict, grid: GridSpec, m: float) -> tuple:
    """(initial data, companion spec or None, time offset) of the preset."""
    from . import exact

    data = _require(cfg, "data")
    kind = _require(data, "kind")
    spec, t_off = _exact_companion(data, m)

    if kind == "constant":
        value = _finite(data, "value", 1.0)
        u0_fn = lambda X: np.full(len(X), value)  # noqa: E731
    elif kind == "bump":
        height = _finite(data, "height", 0.5)
        radius = _finite(data, "radius", 0.2)

        def u0_fn(X):
            r2 = np.sum(X * X, axis=1)
            return height * np.maximum(1.0 - r2 / radius ** 2, 0.0)
    elif kind == "linear":
        slope = _finite(data, "slope", 1.0)
        lo0 = grid.origin[0]
        u0_fn = lambda X: slope * (X[:, 0] - lo0)  # noqa: E731
    else:
        u0_fn = lambda X: exact.evaluate_u(spec, X, t_off)  # noqa: E731
    return u0_fn, spec, t_off


def _build_boundary(cfg: dict, u0_fn, spec, t_off: float) -> BoundaryData:
    """The data of a dirichlet or maximal run, under the boundary kind of
    the config."""
    from . import exact

    bc = cfg.get("boundary") or {}
    bkind = bc.get("kind", "zero")
    if bkind == "zero":
        g_fn = lambda X, t: np.zeros(len(X))  # noqa: E731
    elif bkind == "constant":
        bval = _finite(bc, "value", 0.0)
        g_fn = lambda X, t: np.full(len(X), bval)  # noqa: E731
    elif spec is None:
        raise ConfigError(f"boundary kind 'exact' needs a data preset with "
                          f"an exact companion, not {cfg['data']['kind']!r}")
    else:
        g_fn = lambda X, t: exact.evaluate_u(spec, X, t_off + t)  # noqa: E731
    return BoundaryData(initial=u0_fn, lateral=g_fn, kind=bkind,
                        time_dependent=bkind == "exact")


def _domain_mask(cfg: dict, grid: GridSpec):
    dom = cfg.get("domain") or {}
    if dom.get("kind", "box") == "box":
        return None
    from .solver import ball_mask

    return ball_mask(grid, _finite(dom, "radius"), dom.get("center"))


def _write_run(outdir: str, snapshots, manifest: dict, cfg: dict) -> None:
    """<quantity>_<index>.snap per snapshot, then the manifest naming them."""
    os.makedirs(outdir, exist_ok=True)
    names = []
    for i, snap in enumerate(snapshots):
        name = f"{snap.quantity}_{i:04d}.snap"
        io.write_snapshot(os.path.join(outdir, name), snap)
        names.append(name)
    manifest["snapshots"] = names
    manifest["config"] = cfg
    io.write_manifest(os.path.join(outdir, "manifest.yaml"), manifest)


def cmd_solve(plain: dict) -> int:
    from . import exact
    from .solver import (CauchyProblem, DirichletProblem, solve_cauchy,
                         solve_dirichlet, solve_maximal)

    cfg = _Reads(plain, set())
    problem_kind = cfg.get("problem", "dirichlet")
    grid = _build_grid(cfg)
    params, schedule, n_list = _build_params(cfg, problem_kind)
    t_end = float(_require(cfg, "t_end"))
    snaps = tuple(float(t) for t in cfg.get("snapshot_times", (t_end,)))
    cc = cfg.get("cauchy") or {}
    if problem_kind == "cauchy" and ("M" not in cc or "r" not in cc):
        raise ConfigError("cauchy.M and cauchy.r are required")
    u0_fn, spec, t_off = _build_data(cfg, grid, params.m)
    outdir = _require(cfg, "output")
    failure = None

    if problem_kind == "cauchy":
        prob = CauchyProblem(grid, params, u0_fn,
                             M=_finite(cc, "M"), r=_finite(cc, "r"),
                             t_end=t_end, snapshot_times=snaps)
    else:
        prob = DirichletProblem(grid, params,
                                _build_boundary(cfg, u0_fn, spec, t_off),
                                t_end=t_end, snapshot_times=snaps,
                                domain_mask=_domain_mask(cfg, grid))
    # only these runs record an error statistic, which a threshold gates
    stat = problem_kind != "cauchy" and spec is not None
    thr = cfg.get("regression_threshold") if stat else None
    # the seed only labels the run: taking it here passes the unread-leaf
    # check, and the manifest records it in the embedded config
    cfg.get("seed")
    cfg.check(f"a {problem_kind} run")

    if problem_kind == "cauchy":
        report = solve_cauchy(prob, schedule, n_list)
    elif problem_kind == "maximal":
        report = solve_maximal(prob, schedule, n_list)
    else:
        report = solve_dirichlet(prob, schedule)
    if stat:
        U = exact.evaluate_u(spec, grid.points(),
                             t_off + t_end).reshape(grid.shape)
        err = float(np.max(np.abs(
            report.final.values - report.ladder_floor - U)))
        rel = err / max(float(np.max(U)), 1e-300)
        report.manifest["error_stat"] = {"abs": err, "rel": rel}
        if thr is not None:
            report.manifest["regression_threshold"] = float(thr)
            if not rel <= float(thr):
                failure = (f"regression error statistic {rel:.6f} "
                           f"exceeds threshold {thr}")

    # a failing run is written in full too, then reported
    _write_run(outdir, report.snapshots, report.manifest, plain)
    if failure is not None:
        raise NumericError(failure)
    return 2 if report.manifest["warnings"] else 0


# the `exact` leaves that choose the run rather than the family member
_EXACT_RUN_KEYS = ("family", "m", "quantity", "t", "times")


def _build_exact_spec(ex: dict) -> exact.ExactSolutionSpec:
    """The spec of an `exact` section, whose other leaves are the family's
    keys."""
    from . import exact

    keys = {k: ex[k] for k in ex if k not in _EXACT_RUN_KEYS}
    return exact.spec(ex.get("family"), _finite(ex, "m"), **keys)


def cmd_exact(plain: dict) -> int:
    from . import exact

    cfg = _Reads(plain, set())
    ex = _require(cfg, "exact")
    grid = _build_grid(cfg)
    spec = _build_exact_spec(ex)
    quantity = ex.get("quantity", "u")
    times = ex.get("times")
    if times is None:
        times = [_finite(ex, "t", 1.0)]
    elif "t" in ex:
        raise ConfigError("exact.t and exact.times exclude each other; "
                          "give one of them")
    elif not times:
        raise ConfigError("exact.times must list at least one time")
    outdir = _require(cfg, "output")
    cfg.check("an exact run")
    # every time is sampled before anything is written
    snaps = [exact.sample_field(spec, grid, float(t), quantity=quantity)
             for t in times]
    _write_run(outdir, snaps, {
        "format": "ipme-manifest v1",
        "problem": "exact",
        "family": spec.kind,
        "params": {"m": spec.params.m},
        "grid": {"n": list(grid.n), "h": list(grid.h),
                 "origin": list(grid.origin)},
        "times": [float(t) for t in times],
        "quantity": quantity,
    }, plain)
    return 0


def cmd_verify(suites: Sequence[str], fault: Optional[str]) -> int:
    from . import verify

    rows, all_ok = verify.run_suites(suites, fault=fault)
    width = max(len(f"{s}/{c}") for s, c, _, _ in rows)
    for s, c, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {f'{s}/{c}':{width}}  {detail}")
    n_fail = sum(1 for r in rows if not r[2])
    print(f"{len(rows) - n_fail}/{len(rows)} cases passed")
    if not all_ok:
        failing = ", ".join(f"{s}/{c}" for s, c, ok, _ in rows if not ok)
        print(f"IPME-E1: failing cases: {failing}", file=sys.stderr)
        return 1
    return 0


def _read_snapshot_dir(path: str) -> list:
    """The snapshots of a run directory on one grid, in time order, less
    the ladder floor that its manifest records (none without one)."""
    if not os.path.isdir(path):
        raise DomainError(f"snapshot directory {path!r} does not exist")
    names = sorted(n for n in os.listdir(path) if n.endswith(".snap"))
    if not names:
        raise DomainError(f"no snapshots found in {path!r}")
    snaps = [io.read_snapshot(os.path.join(path, n)) for n in names]
    for name, s in zip(names, snaps):
        if s.grid != snaps[0].grid:
            raise DomainError(f"snapshots {names[0]!r} and {name!r} lie on "
                              f"different grids")
    manifest = os.path.join(path, "manifest.yaml")
    if os.path.exists(manifest):
        floor = io.read_manifest(manifest).get("ladder_floor", 0.0)
        if floor:
            snaps = [replace(s, values=np.maximum(s.values - floor, 0.0))
                     for s in snaps]
    return sorted(snaps, key=lambda s: s.t)


def cmd_asym(plain: dict) -> int:
    from . import asymptotics

    cfg = _Reads(plain, set())
    acfg = cfg.get("asym") or {}
    tasks = list(acfg.get("tasks", ["support", "rate"]))
    if not tasks:
        raise ConfigError("asym.tasks must list at least one task")
    snaps = _read_snapshot_dir(acfg.get("snapshots")
                               or _require(cfg, "output"))
    # a leaf is read only for the tasks that use it
    write_trace = "support" in tasks or "rate" in tasks
    giant, bb = "giant" in tasks, "barenblatt" in tasks
    fronts = write_trace or bb
    center = acfg.get("center") if fronts or giant else None
    r_max = float(acfg["r_max"]) if fronts and "r_max" in acfg else None
    m = acfg.get("m") if giant or bb else None
    br = acfg.get("ball_radius") if giant else None
    R_est = acfg.get("R_estimate") if bb else None
    # one support trace serves the written trace, the rate and the
    # barenblatt task's front scale when no R_estimate is given
    need_trace = write_trace or (bb and R_est is None)
    threshold = acfg.get("threshold") if need_trace else None
    # every task's inputs are checked before anything is written
    for task in ("giant", "barenblatt"):
        if task in tasks and m is None:
            raise ConfigError(f"asym.m is required for the {task} task")
    params = Params(m=float(m)) if m is not None else None
    if center is not None or r_max is not None:
        radii = snaps[0].grid.radii(center)
        if r_max is not None and not np.any(radii <= r_max):
            raise DomainError(f"r_max={r_max} keeps no node of the "
                              f"snapshot grid")
    outdir = _require(cfg, "output")
    cfg.check(f"an asym run of {', '.join(tasks)}")
    summary: dict = {"format": "ipme-asym v1", "tasks": tasks}
    # every output is computed before the first is written: CSV name ->
    # (header, rows)
    csvs = {}

    trace = None
    if need_trace:
        trace = asymptotics.track_support(snaps, threshold, center, r_max)
    if write_trace:
        csvs["support_trace.csv"] = asymptotics.trace_rows(trace)
        summary["support"] = {"threshold": trace.threshold,
                              "degenerate": trace.degenerate}
    fit = None
    if "rate" in tasks:
        fit = asymptotics.fit_rate(trace.times, trace.r_outer)
        csvs["rate_fit.csv"] = (
            ["rate", "amplitude", "residual", "t_lo", "t_hi", "n_used"],
            [[fit.rate, fit.amplitude, fit.residual,
              fit.window[0], fit.window[1], fit.n_used]])
        summary["rate"] = {"rate": fit.rate, "amplitude": fit.amplitude,
                           "residual": fit.residual, "n_used": fit.n_used}
    if giant:
        fg = asymptotics.friendly_giant(
            snaps, params, None if br is None else float(br), center)
        rows = []
        for i, t in enumerate(fg.times):
            err = "" if fg.errors is None else fg.errors[i]
            diff = fg.stabilization_diffs[i - 1] if i > 0 else ""
            rows.append([t, err, diff])
        csvs["giant_curve.csv"] = (["t", "error", "stabilization_diff"],
                                   rows)
        summary["giant"] = {"is_ball": fg.is_ball}
        if fg.errors is not None:
            summary["giant"]["final_error"] = float(fg.errors[-1])
    if bb:
        if R_est is None:
            if fit is None:
                fit = asymptotics.fit_rate(trace.times, trace.r_outer)
            R_est = fit.amplitude
        ts, errs = asymptotics.barenblatt_convergence(
            snaps, float(R_est), params, center=center, r_max=r_max)
        csvs["barenblatt_curve.csv"] = (["t", "e"],
                                        [[t, e] for t, e in zip(ts, errs)])
        summary["barenblatt"] = {"R_estimate": float(R_est),
                                 "final_e": float(errs[-1])}
    if "benilan" in tasks:
        worst = asymptotics.benilan_crandall_check(snaps)
        summary["benilan"] = {"worst": worst}
    os.makedirs(outdir, exist_ok=True)
    for name, (header, rows) in csvs.items():
        io.write_trace_csv(os.path.join(outdir, name), header, rows)
    io.write_manifest(os.path.join(outdir, "asym_summary.yaml"), summary)
    return 0


def _suite(name: str) -> str:
    """argparse type of `--suite`: a known verify suite, else a usage
    error; `verify` is imported only when the flag is given."""
    from . import verify

    if name not in verify.SUITES:
        raise argparse.ArgumentTypeError(
            f"unknown suite {name!r}; known: {', '.join(verify.SUITES)}")
    return name


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ipme",
        description="Pressure-form porous-medium / infinity-Laplacian "
                    "experiment driver")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in ("solve", "exact", "asym"):
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML config file")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="override a scalar config leaf (repeatable)")
    p = sub.add_parser("verify")
    p.add_argument("--suite", dest="suites", action="append", default=[],
                   type=_suite, metavar="NAME",
                   help="run only the named suite (repeatable)")
    p.add_argument("--fault", default=None,
                   help="fault-injection mode (sensitivity hook): "
                        + ", ".join(FAULT_MODES))
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.subcommand == "verify":
            return cmd_verify(args.suites, args.fault)
        cfg = apply_overrides(load_config(args.config), args.overrides)
        if args.subcommand == "solve":
            return cmd_solve(cfg)
        if args.subcommand == "exact":
            return cmd_exact(cfg)
        return cmd_asym(cfg)
    except IpmeError as e:
        print(f"IPME-E{e.code}: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - map to the generic error code
        print(f"IPME-E1: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
