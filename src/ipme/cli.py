"""Command surface: configure, run, verify, and post-process experiments.

    ipme solve  CONFIG [--set key=value ...]
    ipme exact  CONFIG [--set key=value ...]
    ipme verify [CONFIG] [--suite NAME ...] [--fault MODE]
    ipme asym   CONFIG [--set key=value ...]

Configs are YAML mappings validated against a fixed schema; `--set`
overrides apply after the file parse, address scalar leaves by dotted
path, and reject unknown keys.  Exit codes: 0 success, 2 continuation
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
from typing import Optional, Sequence

import numpy as np
import yaml

from . import io
from .operators import FAULT_MODES
from .core import (BoundaryData, ConfigError, DomainError, GridSpec,
                   IpmeError, NumericError, Params, RegularizationSchedule)

__all__ = ["main", "load_config"]

_NUM = (int, float)
_LIST = (list, tuple)

# allowed keys and leaf types; sections are nested dicts, and a one-element
# list [T] is a list leaf whose every entry has type T
SCHEMA = {
    "problem": str,
    "m": _NUM, "eps": _NUM, "delta": _NUM, "c": _NUM,
    "grid": {"lo": [_NUM], "hi": [_NUM], "n": [int]},
    "domain": {"kind": str, "radius": _NUM, "center": [_NUM]},
    "data": {"kind": str, "value": _NUM, "height": _NUM, "radius": _NUM,
             "slope": _NUM, "R": _NUM, "t_offset": _NUM, "speed": _NUM,
             "offset": _NUM},
    "boundary": {"kind": str, "value": _NUM},
    "t_end": _NUM,
    "snapshot_times": [_NUM],
    "schedule": {"eps_list": [_NUM], "delta_list": [_NUM], "n_list": [int]},
    "cauchy": {"M": _NUM, "r": _NUM},
    "regression_threshold": _NUM,
    "seed": int,
    "output": str,
    "exact": {"family": str, "m": _NUM, "quantity": str, "t": _NUM,
              "times": [_NUM], "R": _NUM, "speed": _NUM, "offset": _NUM,
              "a": _NUM, "R1": _NUM, "t0": _NUM, "C": _NUM},
    "asym": {"snapshots": str, "tasks": [str], "threshold": _NUM,
             "r_max": _NUM, "floor": _NUM, "center": [_NUM],
             "ball_radius": _NUM, "R_estimate": _NUM, "m": _NUM},
    "verify": {"suites": [str], "fault": str},
}

# the range each leaf's readers (Params, the problem classes, ball_mask,
# the schedule, the exact families) enforce, the nonnegative data and
# lateral values a pressure solve needs, and a positive regression
# threshold (no error statistic is within one <= 0); `_check_keys`
# applies it to every leaf present, read or not, and to each entry of a
# list leaf
_ABOVE_ONE = ("exceed 1", lambda v: v > 1.0)
_POSITIVE = ("be positive", lambda v: v > 0.0)
_NONNEGATIVE = ("be >= 0", lambda v: v >= 0.0)
RANGES = {
    "m": _ABOVE_ONE, "eps": _NONNEGATIVE, "delta": _NONNEGATIVE,
    "c": _NONNEGATIVE, "t_end": _POSITIVE, "domain.radius": _POSITIVE,
    "data.value": _NONNEGATIVE, "data.height": _NONNEGATIVE,
    "data.slope": _NONNEGATIVE, "data.radius": _POSITIVE,
    "data.R": _POSITIVE, "data.speed": _POSITIVE,
    "boundary.value": _NONNEGATIVE,
    "schedule.eps_list": _POSITIVE, "schedule.delta_list": _POSITIVE,
    "schedule.n_list": ("be >= 1", lambda v: v >= 1),
    "cauchy.M": _NONNEGATIVE, "cauchy.r": _POSITIVE,
    "exact.m": _ABOVE_ONE, "exact.speed": _POSITIVE, "exact.R1": _NONNEGATIVE,
    "asym.m": _ABOVE_ONE, "asym.ball_radius": _POSITIVE,
    "asym.R_estimate": _POSITIVE, "asym.threshold": _NONNEGATIVE,
    "asym.floor": _NONNEGATIVE, "asym.r_max": _POSITIVE,
    "regression_threshold": _POSITIVE,
}

# each preset kind and the keys it reads besides `kind`; a companion
# preset (None here) reads its exact family's keys, which `exact.spec`
# checks
DATA_KINDS = {"constant": ("value",), "bump": ("height", "radius"),
              "linear": ("slope",), "barenblatt": None,
              "traveling-wave": None, "separable-ball": None}
BOUNDARY_KINDS = {"zero": (), "constant": ("value",), "exact": ()}


def _leaves(cfg: dict, schema: dict, path: str = ""):
    """(path, value, type) of every leaf and list entry, in file order;
    unknown keys and non-mapping sections are a ConfigError."""
    for key, val in cfg.items():
        here = f"{path}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key {here!r}")
        want = schema[key]
        if isinstance(want, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{here!r} must be a mapping")
            yield from _leaves(val, want, here + ".")
        elif isinstance(want, list):
            yield here, val, _LIST
            if isinstance(val, _LIST):
                for i, item in enumerate(val):
                    yield f"{here}[{i}]", item, want[0]
        else:
            yield here, val, want


def _check_keys(cfg: dict) -> None:
    """Type-check every leaf (IPME-E50), then check every number is finite
    and within its RANGES entry (IPME-E10), whether or not the chosen
    command reads the leaf."""
    leaves = list(_leaves(cfg, SCHEMA))
    for here, val, want in leaves:
        # a YAML null is no leaf's type, and neither is a YAML bool,
        # although bool is a subclass of int
        if isinstance(val, bool) or not isinstance(val, want):
            got = "null" if val is None else type(val).__name__
            raise ConfigError(f"{here!r} has the wrong type ({got})")
    for here, val, _ in leaves:
        if isinstance(val, float) and not math.isfinite(val):
            raise DomainError(f"{here} must be finite, got {val}")
    for here, val, _ in leaves:
        rule = RANGES.get(here.partition("[")[0])
        if rule and isinstance(val, _NUM) and not rule[1](val):
            raise DomainError(f"{here} must {rule[0]}, got {val}")


def load_config(path: Optional[str]) -> dict:
    """Parse and schema-check a YAML config; None or missing body -> {}."""
    if path is None:
        return {}
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
        parts = key.strip().split(".")
        schema = SCHEMA
        for i, part in enumerate(parts):
            if not isinstance(schema, dict) or part not in schema:
                raise ConfigError(f"unknown override key {key!r}")
            schema = schema[part]
            last = i == len(parts) - 1
            if last and isinstance(schema, dict):
                raise ConfigError(f"override {key!r} addresses a section, "
                                  f"not a scalar leaf")
        if isinstance(schema, list):
            raise ConfigError(f"override {key!r} addresses a list; flags "
                              f"only override scalar leaves")
        try:
            value = io.load_yaml(raw)
        except yaml.YAMLError as e:
            raise ConfigError(f"cannot parse override value {raw!r}: {e}")
        if isinstance(value, (dict, list)):
            raise ConfigError(f"override {key!r} must be a scalar")
        node = cfg
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} collides with a "
                                  f"non-mapping entry")
        node[parts[-1]] = value
    _check_keys(cfg)
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required")
    return cfg[key]


def _finite(section: dict, key: str, default=None) -> float:
    """section[key] as a float, finite because `_check_keys` rejected every
    non-finite number; `default` when the key is absent (None makes the key
    required)."""
    return float(_require(section, key) if default is None
                 else section.get(key, default))


def _build_grid(cfg: dict) -> GridSpec:
    g = _require(cfg, "grid")
    for k in ("lo", "hi", "n"):
        if k not in g:
            raise ConfigError(f"grid.{k} is required")
    return GridSpec.box(g["lo"], g["hi"], g["n"])


def _build_params(cfg: dict) -> Params:
    return Params(m=float(_require(cfg, "m")),
                  eps=float(cfg.get("eps", 1e-3)),
                  delta=float(cfg.get("delta", 1e-3)),
                  c=float(cfg.get("c", 0.0)))


def _build_schedule(cfg: dict) -> Optional[RegularizationSchedule]:
    s = cfg.get("schedule")
    if not s:
        return None
    return RegularizationSchedule(
        eps_list=tuple(float(v) for v in s.get("eps_list", ())) or
        (float(cfg.get("eps", 1e-3)),),
        delta_list=tuple(float(v) for v in s.get("delta_list", ())) or
        (float(cfg.get("delta", 1e-3)),),
        n_list=tuple(int(v) for v in s.get("n_list", ())))


def _exact_companion(data: dict, m: float) -> tuple:
    """(spec, t_offset) of the data preset's exact solution, if it has one.

    The preset's keys other than `kind` and `t_offset` are its family's
    keys; the ball preset names its radius `radius`, the family's R, with
    a default of 1.0."""
    from . import exact

    kind = data.get("kind")
    if kind not in exact.FAMILIES:
        return None, 0.0
    keys = {k: v for k, v in data.items() if k != "kind"}
    # a time shift of the wave is a change of its offset, so the wave
    # preset takes no t_offset
    t_off = 0.0 if kind == "traveling-wave" else float(
        keys.pop("t_offset", 1.0))
    if kind == "separable-ball":
        if "R" in keys:
            raise ConfigError("separable-ball data take 'radius', not 'R'")
        keys["R"] = keys.pop("radius", 1.0)
    return exact.spec(kind, m, **keys), t_off


def _only_keys(section: dict, name: str, kind: str, keys: tuple) -> None:
    """A ConfigError for the first key of `section` that its kind does
    not read, as `exact.spec` rejects one for a family."""
    extra = [k for k in section if k != "kind" and k not in keys]
    if extra:
        known = f"; its keys: {', '.join(keys)}" if keys else ""
        raise ConfigError(f"{name} kind {kind!r} takes no key "
                          f"{extra[0]!r}{known}")


def _build_data(cfg: dict, grid: GridSpec, params: Params) -> tuple:
    """Initial/lateral data from the preset; returns (BoundaryData,
    companion spec or None, time offset)."""
    from . import exact

    data = _require(cfg, "data")
    kind = data.get("kind")
    if kind not in DATA_KINDS:
        raise ConfigError(f"unknown data kind {kind!r}; "
                          f"known: {', '.join(DATA_KINDS)}")
    if DATA_KINDS[kind] is not None:
        _only_keys(data, "data", kind, DATA_KINDS[kind])
    spec, t_off = _exact_companion(data, params.m)

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

    bc = cfg.get("boundary") or {"kind": "zero"}
    bkind = bc.get("kind", "zero")
    if bkind not in BOUNDARY_KINDS:
        raise ConfigError(f"unknown boundary kind {bkind!r}; "
                          f"known: {', '.join(BOUNDARY_KINDS)}")
    _only_keys(bc, "boundary", bkind, BOUNDARY_KINDS[bkind])
    if bkind == "zero":
        g_fn = lambda X, t: np.zeros(len(X))  # noqa: E731
        time_dep = False
    elif bkind == "constant":
        bval = _finite(bc, "value", 0.0)
        g_fn = lambda X, t: np.full(len(X), bval)  # noqa: E731
        time_dep = False
    else:
        if spec is None:
            raise ConfigError(f"boundary kind 'exact' needs a data preset "
                              f"with an exact companion, not {kind!r}")
        g_fn = lambda X, t: exact.evaluate_u(spec, X, t_off + t)  # noqa: E731
        time_dep = True
    return (BoundaryData.from_functions(u0=u0_fn, g=g_fn,
                                        time_dependent=time_dep),
            spec, t_off)


def _domain_mask(cfg: dict, grid: GridSpec):
    dom = cfg.get("domain")
    if not dom or dom.get("kind", "box") == "box":
        return None
    if dom.get("kind") != "ball":
        raise ConfigError(f"unknown domain kind {dom.get('kind')!r}")
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


def cmd_solve(cfg: dict) -> int:
    from . import exact
    from .solver import (CauchyProblem, DirichletProblem, solve_cauchy,
                         solve_dirichlet, solve_maximal)

    problem_kind = cfg.get("problem", "dirichlet")
    if problem_kind not in ("dirichlet", "maximal", "cauchy"):
        raise ConfigError(f"unknown problem kind {problem_kind!r}")
    grid = _build_grid(cfg)
    params = _build_params(cfg)
    schedule = _build_schedule(cfg)
    t_end = float(_require(cfg, "t_end"))
    snaps = tuple(float(t) for t in cfg.get("snapshot_times", (t_end,)))
    cc = cfg.get("cauchy") or {}
    if problem_kind == "cauchy" and ("M" not in cc or "r" not in cc):
        raise ConfigError("cauchy.M and cauchy.r are required")
    bdata, spec, t_off = _build_data(cfg, grid, params)
    thr = cfg.get("regression_threshold")
    if thr is not None and (problem_kind == "cauchy" or spec is None):
        # a gate with no statistic to check would pass every run
        companions = [k for k in DATA_KINDS if k in exact.FAMILIES]
        raise ConfigError(
            f"regression_threshold needs an error statistic, which a "
            f"{problem_kind} run of {cfg['data']['kind']!r} data does not "
            f"record; only dirichlet and maximal runs of "
            f"{', '.join(companions)} data do")
    outdir = _require(cfg, "output")
    failure = None

    if problem_kind == "cauchy":
        prob = CauchyProblem(grid, params, bdata.initial,
                             M=_finite(cc, "M"), r=_finite(cc, "r"),
                             t_end=t_end, snapshot_times=snaps)
        report = solve_cauchy(prob, schedule)
    else:
        prob = DirichletProblem(grid, params, bdata, t_end=t_end,
                                snapshot_times=snaps,
                                domain_mask=_domain_mask(cfg, grid))
        if problem_kind == "maximal":
            report = solve_maximal(prob, schedule=schedule)
        else:
            report = solve_dirichlet(prob, schedule)

        if spec is not None:
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

    if "seed" in cfg:
        report.manifest["seed"] = int(cfg["seed"])
    # a failing run is written in full too, then reported
    _write_run(outdir, report.snapshots, report.manifest, cfg)
    if failure is not None:
        raise NumericError(failure)
    return 2 if report.manifest["warnings"] else 0


# the `exact` leaves that choose the run rather than the family member
_EXACT_RUN_KEYS = ("family", "m", "quantity", "t", "times")


def _build_exact_spec(ex: dict) -> exact.ExactSolutionSpec:
    """The spec of an `exact` section, whose other leaves are the family's
    keys."""
    from . import exact

    keys = {k: v for k, v in ex.items() if k not in _EXACT_RUN_KEYS}
    return exact.spec(ex.get("family"), _finite(ex, "m"), **keys)


def cmd_exact(cfg: dict) -> int:
    from . import exact

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
    }, cfg)
    return 0


def cmd_verify(cfg: dict, suites: Sequence[str],
               fault: Optional[str]) -> int:
    from . import verify

    vcfg = cfg.get("verify") or {}
    names = list(suites) or list(vcfg.get("suites") or [])
    fault = fault or vcfg.get("fault")
    rows, all_ok = verify.run_suites(names or None, fault=fault)
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
    if not os.path.isdir(path):
        raise DomainError(f"snapshot directory {path!r} does not exist")
    names = sorted(n for n in os.listdir(path) if n.endswith(".snap"))
    if not names:
        raise DomainError(f"no snapshots found in {path!r}")
    return [io.read_snapshot(os.path.join(path, n)) for n in names]


ASYM_TASKS = ("support", "rate", "giant", "barenblatt", "benilan")


def cmd_asym(cfg: dict) -> int:
    from . import asymptotics

    acfg = cfg.get("asym") or {}
    tasks = list(acfg.get("tasks") or ["support", "rate"])
    for task in tasks:
        if task not in ASYM_TASKS:
            raise ConfigError(f"unknown asym task {task!r}; "
                              f"known: {', '.join(ASYM_TASKS)}")
    snaps = _read_snapshot_dir(acfg.get("snapshots")
                               or _require(cfg, "output"))
    snaps.sort(key=lambda s: s.t)
    floor = float(acfg.get("floor", 0.0))
    center = acfg.get("center")
    r_max = float(acfg["r_max"]) if "r_max" in acfg else None
    m = acfg.get("m")
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
    os.makedirs(outdir, exist_ok=True)
    summary: dict = {"format": "ipme-asym v1", "tasks": tasks}

    write_trace = "support" in tasks or "rate" in tasks
    R_est = acfg.get("R_estimate")
    # one support trace serves the written trace, the rate and the
    # barenblatt task's front scale when no R_estimate is given
    trace = None
    if write_trace or ("barenblatt" in tasks and R_est is None):
        trace = asymptotics.track_support(
            snaps, threshold=acfg.get("threshold"), center=center,
            r_max=r_max, floor=floor)
    if write_trace:
        header, rows = asymptotics.trace_rows(trace)
        io.write_trace_csv(os.path.join(outdir, "support_trace.csv"),
                           header, rows)
        summary["support"] = {"threshold": trace.threshold,
                              "degenerate": trace.degenerate}
    fit = None
    if "rate" in tasks:
        fit = asymptotics.fit_rate(trace.times, trace.r_outer)
        io.write_trace_csv(
            os.path.join(outdir, "rate_fit.csv"),
            ["rate", "amplitude", "residual", "t_lo", "t_hi", "n_used"],
            [[fit.rate, fit.amplitude, fit.residual,
              fit.window[0], fit.window[1], fit.n_used]])
        summary["rate"] = {"rate": fit.rate, "amplitude": fit.amplitude,
                           "residual": fit.residual, "n_used": fit.n_used}
    if "giant" in tasks:
        br = acfg.get("ball_radius")
        fg = asymptotics.friendly_giant(
            snaps, params, ball_radius=None if br is None else float(br),
            center=center, floor=floor)
        rows = []
        for i, t in enumerate(fg.times):
            err = "" if fg.errors is None else fg.errors[i]
            diff = fg.stabilization_diffs[i - 1] if i > 0 else ""
            rows.append([t, err, diff])
        io.write_trace_csv(os.path.join(outdir, "giant_curve.csv"),
                           ["t", "error", "stabilization_diff"], rows)
        summary["giant"] = {"is_ball": fg.is_ball}
        if fg.errors is not None:
            summary["giant"]["final_error"] = float(fg.errors[-1])
    if "barenblatt" in tasks:
        if R_est is None:
            if fit is None:
                fit = asymptotics.fit_rate(trace.times, trace.r_outer)
            R_est = fit.amplitude
        ts, errs = asymptotics.barenblatt_convergence(
            snaps, float(R_est), params, floor=floor, center=center,
            r_max=r_max)
        io.write_trace_csv(os.path.join(outdir, "barenblatt_curve.csv"),
                           ["t", "e"], [[t, e] for t, e in zip(ts, errs)])
        summary["barenblatt"] = {"R_estimate": float(R_est),
                                 "final_e": float(errs[-1])}
    if "benilan" in tasks:
        worst = asymptotics.benilan_crandall_check(snaps, floor=floor)
        summary["benilan"] = {"worst": worst}
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
    for name, needs_config in (("solve", True), ("exact", True),
                               ("verify", False), ("asym", True)):
        p = sub.add_parser(name)
        p.add_argument("config", nargs=None if needs_config else "?",
                       help="YAML config file")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="override a scalar config leaf (repeatable)")
        if name == "verify":
            p.add_argument("--suite", dest="suites", action="append",
                           default=[], type=_suite, metavar="NAME",
                           help="run only the named suite (repeatable)")
            p.add_argument("--fault", default=None,
                           help="fault-injection mode (sensitivity hook): "
                                + ", ".join(FAULT_MODES))
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.overrides)
        if args.subcommand == "solve":
            return cmd_solve(cfg)
        if args.subcommand == "exact":
            return cmd_exact(cfg)
        if args.subcommand == "verify":
            return cmd_verify(cfg, args.suites, args.fault)
        return cmd_asym(cfg)
    except IpmeError as e:
        print(f"IPME-E{e.code}: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - map to the generic error code
        print(f"IPME-E1: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
