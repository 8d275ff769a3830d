"""Built-in invariant suites behind the `verify` subcommand.

Five suites, each a list of quick self-contained cases:

  operators   stencil consistency: quadratics are differentiated exactly,
              pointwise and by the field kernel, the field kernel matches
              the pointwise kernel, beta_c obeys its floor.  Sensitive to
              sign faults in the mixed terms.
  exact       frozen point values and discrete residuals of the explicit
              solution families, plus profile-table endpoint/inverse checks.
              The residuals run the solver's stencil kernel, so the ball
              case also fails under a sign fault in the mixed terms.
  comparison  discrete ordering of solves from ordered data and the
              maximal-solution ladder.
  scaling     the two rescaling families u -> A u(x/L, A t/L^2) reproduce
              solver output exactly (A and L powers of two).
  io          bit-exact snapshot/manifest/trace round-trips.

Every case returns (ok, detail); run_suites collects rows for the CLI
table.  Cases must stay cheap: the whole default battery is a few seconds.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import yaml

from . import exact, io
from .core import (BoundaryData, ConfigError, GridSpec, Params,
                   RegularizationSchedule, RunManifest, ScalarField,
                   SnapshotFormatError)
from .operators import (beta_c, rhs_core, rhs_full, set_fault_injection,
                        stencil_eval)
from .solver import DirichletProblem, solve_dirichlet, solve_maximal

__all__ = ["SUITES", "run_suites", "suite_names"]


# ── operators ────────────────────────────────────────────────────────────

def _case_beta_floor():
    z = np.linspace(-3.0, 3.0, 601)
    for c in (0.5, 1.0, 2.0):
        b = beta_c(z, c)
        if float(np.min(b)) < c / 2 - 1e-15:
            return False, f"beta_{c} dips below c/2"
        outer = np.abs(z) >= c
        if float(np.max(np.abs(b[outer] - np.abs(z[outer])))) > 1e-15:
            return False, f"beta_{c} != |z| outside the cutoff"
        if abs(float(beta_c(0.0, c)) - c / 2) > 1e-15:
            return False, f"beta_{c}(0) != c/2"
    return True, "floor c/2 and |z| tail hold"


def _case_quadratic_quotient():
    # centered differences are exact on quadratics, so the discrete
    # quotient must match the analytic one to rounding; the mixed A01
    # entry makes this case fail under a stencil sign flip
    A = np.array([[1.3, -0.6], [-0.6, 0.8]])
    b = np.array([0.4, 1.1])
    grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (17, 17))
    X = grid.points()
    vals = (0.5 * np.einsum("ni,ij,nj->n", X, A, X) + X @ b + 2.0)
    u = ScalarField(grid, vals.reshape(grid.shape), 0.0)
    worst = 0.0
    for node in ((3, 5), (8, 8), (12, 4), (5, 13)):
        st = stencil_eval(u, node)
        x = grid.node_point(node)
        g = A @ x + b
        quotient = float(g @ A @ g) / float(g @ g)
        got = st.inf_lap_reg(0.0)
        worst = max(worst, abs(got - quotient))
        if abs(float(st.lap) - np.trace(A)) > 1e-10:
            return False, f"laplacian off at {node}"
    if worst > 1e-10:
        return False, f"quotient error {worst:.2e} on a quadratic"
    return True, f"quadratic quotient exact to {worst:.1e}"


def _case_field_matches_pointwise():
    rng = np.random.default_rng(20240817)
    grid = GridSpec.box((0.0, 0.0), (1.0, 1.0), (13, 13))
    vals = 1.0 + rng.random(grid.shape)
    u = ScalarField(grid, vals, 0.0)
    par = Params(m=2.5, eps=0.7, delta=0.3, c=0.2)
    field = rhs_core(vals, grid, par)[0]
    for node in ((1, 1), (4, 7), (11, 11), (6, 2)):
        want = rhs_full(u, node, par)
        got = field[node[0] - 1, node[1] - 1]
        if abs(got - want) > 1e-13 * max(1.0, abs(want)):
            return False, f"field kernel disagrees at {node}"
    return True, "field kernel == pointwise kernel"


def _case_field_quadratic():
    # the field kernel on a quadratic u = x.Ax/2 + b.x + c0, where every
    # centered difference is exact: at each interior node
    # rhs = eps tr A + k beta_c(u) g.Ag / (|g|^2 + delta^2) + |g|^2 with
    # g = Ax + b, to rounding; the non-square grid with unequal spacings
    # catches stride and run-boundary faults, the A01 entry a sign flip
    A = np.array([[1.3, -0.6], [-0.6, 0.8]])
    b = np.array([0.4, 1.1])
    grid = GridSpec(n=(17, 23), h=(0.11, 0.07), origin=(-0.9, -0.8))
    par = Params(m=2.5, eps=0.3, delta=0.2, c=1.5)
    X = grid.points()
    vals = (0.5 * np.einsum("ni,ij,nj->n", X, A, X) + X @ b + 2.0
            ).reshape(grid.shape)
    got = rhs_core(vals, grid, par)[0]
    g = X.reshape(grid.shape + (2,))[grid.interior()] @ A + b
    g2 = np.einsum("...i,...i->...", g, g)
    quad = np.einsum("...i,ij,...j->...", g, A, g)
    want = (par.eps * np.trace(A) + g2 + par.k * beta_c(
        vals[grid.interior()], par.c) * quad / (g2 + par.delta ** 2))
    worst = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if worst > 1e-10:
        return False, f"field rhs error {worst:.2e} on a quadratic"
    return True, f"field rhs exact on a quadratic to {worst:.1e}"


def _case_traveling_wave_operator():
    # on the wave's wet set u = c(a + ct - x1) gives L[u] = 0 and
    # rhs = |Du|^2 = c^2 exactly (linear in space)
    spec = exact.traveling_wave(m=2.0, c=1.5, a=0.5)
    grid = GridSpec.box((0.0, 0.0), (0.4, 0.4), (9, 9))
    u = exact.sample_field(spec, grid, 0.0)
    par = Params(m=2.0, eps=0.0, delta=0.0, c=0.0)
    for node in ((2, 3), (4, 4), (6, 1)):
        got = rhs_full(u, node, par)
        if abs(got - 1.5 ** 2) > 1e-11:
            return False, f"wave rhs {got} != c^2 at {node}"
    return True, "rhs == c^2 on the wave"


# ── exact ────────────────────────────────────────────────────────────────

def _case_barenblatt_value():
    spec = exact.barenblatt(m=2.0, R=1.0)
    got = float(exact.evaluate_u(spec, np.array([[0.0, 0.0]]), 1.0)[0])
    if abs(got - 1.0 / 6.0) > 1e-15:
        return False, f"u(0,1) = {got}, want 1/6"
    return True, "u(0,1) = 1/6 for m=2, R=1"


def _residual_case(spec, lo, hi, t=1.0, bound=0.05):
    grid = GridSpec.box(lo, hi, (65, 65))
    res, count = exact.pde_residual(spec, grid, t)
    if count == 0:
        return False, "empty residual set"
    if res > bound:
        return False, f"residual {res:.3e} exceeds {bound}"
    return True, f"residual {res:.3e} on {count} nodes"


def _case_barenblatt_residual():
    return _residual_case(exact.barenblatt(m=2.0, R=1.0),
                          (-1.5, -1.5), (1.5, 1.5), bound=0.02)


def _case_wave_residual():
    return _residual_case(exact.traveling_wave(m=2.0, c=1.0, a=0.3),
                          (0.0, 0.0), (1.0, 1.0), t=0.25, bound=0.02)


def _case_ball_residual():
    spec = exact.separable_ball(m=2.0, a=1.0)
    return _residual_case(spec, (-0.7, -0.7), (0.7, 0.7), t=1.0, bound=0.05)


def _case_neg_lambda_zero_residual():
    spec = exact.neg_lambda_a_zero(m=2.0, R=0.5, t0=2.0)
    return _residual_case(spec, (0.6, 0.6), (1.4, 1.4), t=1.0, bound=0.05)


def _case_profile_endpoint():
    for a, p in ((1.0, 0.5), (2.0, 1.0 / 3.0)):
        tab = exact.build_H_profile(a, p)
        want = exact.endpoint_A(a, p)
        got = tab.y_max
        if abs(got - want) > 1e-9:
            return False, f"endpoint off by {abs(got - want):.2e}"
    return True, "H endpoint matches the Gamma formula"


def _case_profile_roundtrip():
    worst = 0.0
    for build, args in ((exact.build_H_profile, (1.0, 0.5)),
                        (exact.build_I_profile, (1.0, 0.5, 2.0)),
                        (exact.build_K_profile, (-1.0, 0.5, 2.0))):
        tab = build(*args)
        z = np.linspace(tab.domain[0], tab.domain[1], 321)[1:-1]
        back = tab.invert(tab.forward(z))
        worst = max(worst, float(np.max(np.abs(back - z))))
    if worst > 1e-9:
        return False, f"roundtrip error {worst:.2e}"
    return True, f"H/I/K inverse roundtrips to {worst:.1e}"


# ── comparison ───────────────────────────────────────────────────────────

def _held(fn) -> BoundaryData:
    """Data fn on the initial slice and, frozen in time, on the boundary."""
    return BoundaryData.from_functions(u0=fn, g=lambda X, t: fn(X),
                                       time_dependent=False)


def _mini_problem(fn):
    grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (17, 17))
    par = Params(m=2.0, eps=1e-2, delta=1e-2, c=0.0)
    return DirichletProblem(grid, par, _held(fn), t_end=0.02,
                            snapshot_times=(0.01, 0.02))


def _case_ordered_pair():
    rng = np.random.default_rng(7)
    coef = rng.random(4)

    def lo_fn(X):
        return 0.2 + 0.3 * (np.sin(coef[0] + 2 * X[:, 0])
                            * np.cos(coef[1] + X[:, 1]) + 1.0)

    def hi_fn(X):
        return lo_fn(X) + 0.1 + 0.2 * (np.cos(coef[2] + X[:, 0]) + 1.0)

    rep_lo = solve_dirichlet(_mini_problem(lo_fn))
    rep_hi = solve_dirichlet(_mini_problem(hi_fn))
    worst = max(float(np.max(a.values - b.values))
                for a, b in zip(rep_lo.snapshots, rep_hi.snapshots))
    if worst > 1e-8 + 1e-3:
        return False, f"ordering violated by {worst:.2e}"
    return True, f"ordered pair stays ordered (excess {worst:.1e})"


def _case_ladder_monotone():
    spec = exact.barenblatt(m=2.0, R=1.0)
    grid = GridSpec.box((-1.5, -1.5), (1.5, 1.5), (33, 33))
    bd = BoundaryData.from_functions(
        u0=lambda X: exact.evaluate_u(spec, X, 1.0),
        g=lambda X, t: exact.evaluate_u(spec, X, 1.0 + t))
    prob = DirichletProblem(grid, Params(m=2.0, eps=3e-3, delta=1e-3),
                            bd, t_end=0.1, snapshot_times=(0.05, 0.1))
    rep = solve_maximal(prob, n_list=(2, 4, 8))
    excess = max(rep.monotonicity.values())
    if excess > 1e-8 + 1e-3:
        return False, f"ladder ordering violated by {excess:.2e}"
    return True, f"ladder monotone (worst headroom {excess:.1e})"


# ── scaling ──────────────────────────────────────────────────────────────

def _scaling_case(A: float, L: float) -> float:
    """max |v - A u| for solver runs u and v, v from the data A u0(x/L):
    v = A u(x/L, A t/L^2) scales the box, eps, delta, c and the horizon by
    L, A, A/L, A and L^2/A, exact for powers of two, so 0.0 is expected."""
    base = Params(m=2.0, eps=1e-2, delta=1e-2, c=1e-2)
    n = 17

    def u0(X):
        return 0.5 + 0.25 * np.sin(2.0 * X[:, 0]) * np.cos(X[:, 1])

    def u0_s(X):
        return A * u0(X / L)

    grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (n, n))
    rep = solve_dirichlet(DirichletProblem(grid, base, _held(u0), t_end=1.0))
    grid_s = GridSpec.box((-L, -L), (L, L), (n, n))
    par_s = base.with_(eps=A * base.eps, delta=(A / L) * base.delta,
                       c=A * base.c)
    rep_s = solve_dirichlet(DirichletProblem(grid_s, par_s, _held(u0_s),
                                             t_end=L * L / A))
    return float(np.max(np.abs(rep_s.final.values - A * rep.final.values)))


def _case_scaling_parabolic():
    # u -> 8 u(x/2, 2t): lambda = 2, gamma = 1 in lam^(2+gamma) u(x/lam,
    # lam^gamma t)
    diff = _scaling_case(8.0, 2.0)
    if diff != 0.0:
        return False, f"gamma=1.0: rescaled run differs by {diff:.2e}"
    return True, "gamma=1.0: bit-identical rescaled run"


def _case_scaling_time():
    # u -> 2 u(x, 2t): space fixed
    diff = _scaling_case(2.0, 1.0)
    if diff != 0.0:
        return False, f"time family differs by {diff:.2e}"
    return True, "time family: bit-identical rescaled run"


# ── io ───────────────────────────────────────────────────────────────────

def _case_snapshot_roundtrip():
    rng = np.random.default_rng(4242)
    grid = GridSpec(n=(7, 5, 3), h=(0.1, 0.2, 1.0 / 3.0),
                    origin=(-0.3, 0.0, 1.0))
    vals = rng.random(grid.shape) * 1e3
    f = ScalarField(grid, vals, t=0.125, quantity="rho")
    back = io.parse_snapshot_text(io.snapshot_text(f))
    if not np.array_equal(back.values, f.values):
        return False, "values not bit-identical"
    if back.grid != grid or back.t != f.t or back.quantity != f.quantity:
        return False, "header fields drifted"
    if io.snapshot_text(back) != io.snapshot_text(f):
        return False, "re-serialization differs"
    return True, "bit-identical snapshot roundtrip"


def _case_manifest_roundtrip():
    man = RunManifest.build(Params(m=3.0, eps=1e-3), GridSpec.box(
        (0.0,), (1.0,), (9,)), "dirichlet",
        RegularizationSchedule((1e-2, 1e-3), (1e-2,), (1, 2)),
        note="verify", values=[1, 2.5, "x"])
    text = io.manifest_text(man)
    back = io.manifest_text(io.RunManifest(yaml.safe_load(text)))
    if back != text:
        return False, "manifest text not stable under reparse"
    return True, "manifest roundtrip stable"


def _case_trace_roundtrip():
    import os
    import tempfile  # lazily: `ipme` start-up time is import-bound
    header = ["t", "r_inner", "r_outer"]
    rows = [[0.1, 0.0, 0.5], [0.2, 0.1, 0.625]]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.csv")
        io.write_trace_csv(path, header, rows)
        h2, r2 = io.read_trace_csv(path)
    if h2 != header or r2 != [[float(v) for v in row] for row in rows]:
        return False, "trace csv drifted"
    return True, "trace csv roundtrip"


def _case_reject_bad_quantity():
    grid = GridSpec.box((0.0,), (1.0,), (5,))
    f = ScalarField(grid, np.zeros(5), 0.0)
    text = io.snapshot_text(f).replace("quantity=u", "quantity=w")
    try:
        io.parse_snapshot_text(text)
    except SnapshotFormatError:
        return True, "unknown quantity rejected"
    return False, "unknown quantity accepted"


SUITES = {
    "operators": [
        ("beta-floor", _case_beta_floor),
        ("quadratic-quotient", _case_quadratic_quotient),
        ("field-vs-pointwise", _case_field_matches_pointwise),
        ("field-quadratic", _case_field_quadratic),
        ("traveling-wave-rhs", _case_traveling_wave_operator),
    ],
    "exact": [
        ("barenblatt-origin-value", _case_barenblatt_value),
        ("barenblatt-residual", _case_barenblatt_residual),
        ("traveling-wave-residual", _case_wave_residual),
        ("separable-ball-residual", _case_ball_residual),
        ("neg-lambda-a0-residual", _case_neg_lambda_zero_residual),
        ("profile-endpoint", _case_profile_endpoint),
        ("profile-roundtrip", _case_profile_roundtrip),
    ],
    "comparison": [
        ("ordered-pair", _case_ordered_pair),
        ("ladder-monotone", _case_ladder_monotone),
    ],
    "scaling": [
        ("parabolic-family", _case_scaling_parabolic),
        ("time-family", _case_scaling_time),
    ],
    "io": [
        ("snapshot-roundtrip", _case_snapshot_roundtrip),
        ("manifest-roundtrip", _case_manifest_roundtrip),
        ("trace-roundtrip", _case_trace_roundtrip),
        ("reject-bad-quantity", _case_reject_bad_quantity),
    ],
}


def suite_names() -> tuple:
    return tuple(SUITES)


def run_suites(names: Optional[Sequence[str]] = None,
               fault: Optional[str] = None) -> tuple:
    """Run the named suites (all by default); returns (rows, all_ok).

    Rows are (suite, case, ok, detail).  `fault` switches on the named
    operator fault for the duration (a sensitivity hook: the operator
    suite must then fail).
    """
    if names is None or not names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suite(s): {', '.join(unknown)}; "
                          f"known: {', '.join(SUITES)}")
    rows = []
    all_ok = True
    set_fault_injection(fault)
    try:
        for name in names:
            for case, fn in SUITES[name]:
                try:
                    ok, detail = fn()
                except Exception as e:  # noqa: BLE001 - report, don't crash
                    ok, detail = False, f"{type(e).__name__}: {e}"
                rows.append((name, case, bool(ok), detail))
                all_ok &= bool(ok)
    finally:
        set_fault_injection(None)
    return rows, all_ok
