"""Per-layer tracing: which public entry points of each ipme module get
a span, and how the spans become per-layer metrics.

Spans are recorded around calls into the package from outside it, by
rebinding module and class attributes; nothing inside the package is
edited.  Spans inside the program (the Cauchy monitor closure,
`_police_values`, the time-loop bookkeeping) have none, so their time
counts toward the self time of the solver span that encloses them.
"""

from __future__ import annotations

import os
import sys

# (span name, module, attribute); functions are rebound in every ipme
# module that imported them by name.
FUNCTIONS = (
    ("operators.rhs_core", "ipme.operators", "rhs_core"),
    ("solver.solve_dirichlet", "ipme.solver", "solve_dirichlet"),
    ("solver.solve_maximal", "ipme.solver", "solve_maximal"),
    ("solver.solve_cauchy", "ipme.solver", "solve_cauchy"),
    ("pme1d.pme1d_solve", "ipme.pme1d", "pme1d_solve"),
    ("pme1d.pme1d_step", "ipme.pme1d", "pme1d_step"),
    ("exact.evaluate_u", "ipme.exact", "evaluate_u"),
    ("exact.sample_field", "ipme.exact", "sample_field"),
    ("io.write_snapshot", "ipme.io", "write_snapshot"),
    ("io.read_snapshot", "ipme.io", "read_snapshot"),
    ("io.write_manifest", "ipme.io", "write_manifest"),
    ("asymptotics.track_support", "ipme.asymptotics", "track_support"),
    ("asymptotics.fit_rate", "ipme.asymptotics", "fit_rate"),
    ("asymptotics.barenblatt_convergence", "ipme.asymptotics",
     "barenblatt_convergence"),
    ("cli.main", "ipme.cli", "main"),
)

# (span name, module, class): construction of these objects
CONSTRUCTORS = (
    ("core.ScalarField", "ipme.core", "ScalarField"),
    ("exact.ProfileTable", "ipme.exact", "ProfileTable"),
)

VERIFY_SUITES = ("operators", "exact", "comparison", "scaling", "io")

# every per-layer metric with its unit; values are per traced iteration
UNITS = {
    "operators.rhs_core.calls": "count",
    "operators.rhs_core.self_s": "s",
    "operators.rhs_core.ns_per_node": "ns",
    "operators.rhs_core.share": "ratio",
    "solver.steps": "count",
    "solver.self_s": "s",
    "solver.overhead_us_per_step": "us",
    "core.ScalarField.count": "count",
    "core.ScalarField.self_s": "s",
    "core.fields_per_step": "ratio",
    "core.boundary_callback.self_s": "s",
    "pme1d.steps": "count",
    "pme1d.pme1d_step.calls": "count",
    "pme1d.pme1d_step.self_s": "s",
    "pme1d.us_per_step": "us",
    "pme1d.loop_self_s": "s",
    "exact.evaluate_u.calls": "count",
    "exact.evaluate_u.self_s": "s",
    "exact.profile_build_s": "s",
    "exact.sample_field.self_s": "s",
    "io.write_snapshot.calls": "count",
    "io.write_snapshot.bytes": "B",
    "io.write_snapshot.self_s": "s",
    "io.read_snapshot.calls": "count",
    "io.read_snapshot.self_s": "s",
    "io.write_manifest.self_s": "s",
    "asymptotics.track_support.self_s": "s",
    "asymptotics.fit_rate.self_s": "s",
    "asymptotics.barenblatt_convergence.self_s": "s",
    **{f"verify.{s}.wall_s": "s" for s in VERIFY_SUITES},
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_share": "ratio",
    "cli.main.self_s": "s",
    "cli.calls": "count",
    "cli.exit_nonzero": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def _observe_rhs(tracer, args, out):
    tracer.count("operators.rhs_core.nodes", out[0].size)


def _observe_dirichlet(tracer, args, out):
    tracer.count("solver.steps", out.n_steps)


def _observe_pme1d(tracer, args, out):
    tracer.count("pme1d.steps", out.n_steps)


def _observe_write(tracer, args, out):
    tracer.count("io.write_snapshot.bytes", os.path.getsize(args[0]))


def _observe_main(tracer, args, out):
    tracer.count("cli.exit_nonzero", int(out != 0))


OBSERVERS = {
    "operators.rhs_core": _observe_rhs,
    "solver.solve_dirichlet": _observe_dirichlet,
    "pme1d.pme1d_solve": _observe_pme1d,
    "io.write_snapshot": _observe_write,
    "cli.main": _observe_main,
}


def install(tracer) -> None:
    """Import every traced module and wrap its entry points."""
    import importlib

    from common import patch_everywhere

    for _, mod_name, _ in FUNCTIONS + CONSTRUCTORS:
        importlib.import_module(mod_name)
    for span, mod_name, attr in FUNCTIONS:
        orig = getattr(sys.modules[mod_name], attr)
        patch_everywhere(orig, tracer.wrap(span, orig, OBSERVERS.get(span)))
    for span, mod_name, cls_name in CONSTRUCTORS:
        cls = getattr(sys.modules[mod_name], cls_name)
        cls.__init__ = tracer.wrap(span, cls.__init__)

    # lateral and initial data callables are boundary callbacks
    from ipme.core import BoundaryData
    bd_init = BoundaryData.__init__

    def init(self, *args, **kwargs):
        bd_init(self, *args, **kwargs)
        self.initial = tracer.wrap("core.boundary_callback", self.initial)
        self.lateral = tracer.wrap("core.boundary_callback", self.lateral)

    BoundaryData.__init__ = init

    from ipme import verify
    for suite in VERIFY_SUITES:
        verify.SUITES[suite] = [
            (case, tracer.wrap(f"verify.{suite}", fn))
            for case, fn in verify.SUITES[suite]]


def _row(summary: dict, name: str) -> dict:
    return summary.get(name, {"calls": 0, "ns": 0, "self_ns": 0,
                              "outer_ns": 0})


def metrics(summary: dict, counters: dict, iterations: int,
            extra: dict) -> dict:
    """Per-layer metrics, each per traced iteration.  `extra` carries
    what the spans cannot: the cli import times and the trace overhead."""
    it = float(iterations)

    def calls(name):
        return _row(summary, name)["calls"] / it

    def self_s(*names):
        return sum(_row(summary, n)["self_ns"] for n in names) / 1e9 / it

    def incl_s(name):
        return _row(summary, name)["ns"] / 1e9 / it

    solver = [n for n in summary if n.startswith("solver.")]
    solve_s = sum(_row(summary, n)["outer_ns"] for n in solver) / 1e9 / it
    rhs_calls = calls("operators.rhs_core")
    rhs_s = incl_s("operators.rhs_core")
    nodes = counters.get("operators.rhs_core.nodes", 0) / it
    steps_1d = counters.get("pme1d.steps", 0) / it
    field_count = calls("core.ScalarField")
    loops = rhs_calls + calls("pme1d.pme1d_step")
    solver_self = self_s(*solver)

    out = {
        "operators.rhs_core.calls": rhs_calls,
        "operators.rhs_core.self_s": self_s("operators.rhs_core"),
        "operators.rhs_core.ns_per_node":
            rhs_s * 1e9 / nodes if nodes else 0.0,
        "operators.rhs_core.share": rhs_s / solve_s if solve_s else 0.0,
        "solver.steps": counters.get("solver.steps", 0) / it,
        "solver.self_s": solver_self,
        "solver.overhead_us_per_step":
            solver_self * 1e6 / rhs_calls if rhs_calls else 0.0,
        "core.ScalarField.count": field_count,
        "core.ScalarField.self_s": self_s("core.ScalarField"),
        "core.fields_per_step": field_count / loops if loops else 0.0,
        "core.boundary_callback.self_s": self_s("core.boundary_callback"),
        "pme1d.steps": steps_1d,
        "pme1d.pme1d_step.calls": calls("pme1d.pme1d_step"),
        "pme1d.pme1d_step.self_s": self_s("pme1d.pme1d_step"),
        "pme1d.us_per_step":
            incl_s("pme1d.pme1d_solve") * 1e6 / steps_1d if steps_1d else 0.0,
        "pme1d.loop_self_s": self_s("pme1d.pme1d_solve"),
        "exact.evaluate_u.calls": calls("exact.evaluate_u"),
        "exact.evaluate_u.self_s": self_s("exact.evaluate_u"),
        "exact.profile_build_s": incl_s("exact.ProfileTable"),
        "exact.sample_field.self_s": self_s("exact.sample_field"),
        "io.write_snapshot.calls": calls("io.write_snapshot"),
        "io.write_snapshot.bytes":
            counters.get("io.write_snapshot.bytes", 0) / it,
        "io.write_snapshot.self_s": self_s("io.write_snapshot"),
        "io.read_snapshot.calls": calls("io.read_snapshot"),
        "io.read_snapshot.self_s": self_s("io.read_snapshot"),
        "io.write_manifest.self_s": self_s("io.write_manifest"),
        "asymptotics.track_support.self_s":
            self_s("asymptotics.track_support"),
        "asymptotics.fit_rate.self_s": self_s("asymptotics.fit_rate"),
        "asymptotics.barenblatt_convergence.self_s":
            self_s("asymptotics.barenblatt_convergence"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.calls": calls("cli.main"),
        "cli.exit_nonzero": counters.get("cli.exit_nonzero", 0) / it,
    }
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.wall_s"] = incl_s(f"verify.{suite}")
    out.update(extra)
    return out
