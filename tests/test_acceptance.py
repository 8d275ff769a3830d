"""Acceptance battery: eleven end-to-end gates, one test per gate.

Each gate prints the measured numbers next to its bound, so a failure
shows the distance to the line, and reuses the session-scoped reference
runs from conftest where an evolution is expensive.
"""

from dataclasses import replace

import numpy as np
import pytest
import yaml

from ipme import asymptotics, cli, exact, io
from ipme.core import (BoundaryData, GridSpec, Params,
                       density_from_pressure)
from ipme.pme1d import RadialProblem, pme1d_solve
from ipme.solver import DirichletProblem, solve_dirichlet, solve_maximal


def _grids(lo, hi, hs):
    return [GridSpec.box(lo, hi, tuple(int(round((b - a) / h)) + 1
                                       for a, b in zip(lo, hi)))
            for h in hs]


# ---------------------------------------------------------------------------
# 1. residuals of the closed-form solutions vanish at second order


def test_c01_exact_solution_residuals_converge_at_second_order():
    hs = (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)
    report = []
    for m in (1.5, 2.0, 3.0):
        cases = {
            "source": (exact.spec("barenblatt", m, R=1.0),
                       (-1.5, -1.5), (1.5, 1.5), 1.0),
            "wave": (exact.spec("traveling-wave", m, speed=1.0, offset=0.3),
                     (0.0, 0.0), (1.0, 1.0), 0.25),
            "ball": (exact.spec("separable-ball", m, a=1.0),
                     (-0.5, -0.5), (0.5, 0.5), 1.0),
        }
        for name, (spec, lo, hi, t) in cases.items():
            res = [exact.pde_residual(spec, g, t)[0]
                   for g in _grids(lo, hi, hs)]
            if max(res) <= 1e-12:
                # piecewise-linear-in-space solutions are reproduced to
                # roundoff at every h; there is no decay left to order
                report.append((m, name, "roundoff", max(res)))
                continue
            orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
            report.append((m, name, "order", min(orders)))
            assert min(orders) >= 1.8, (m, name, res, orders)
    worst = min(v for _, _, kind, v in report if kind == "order")
    print(f"C01 PASS residual orders >= 1.8 (worst {worst:.2f}; "
          "wave exact to roundoff)")


# ---------------------------------------------------------------------------
# 2. a radial 2-d run reproduces the 1-d line oracle along rays


def test_c02_radial_solver_matches_line_oracle():
    m, t_end = 2.0, 0.15
    c = 1.0 / 256.0

    def u0_radial(r):
        return 0.8 * np.maximum(1.0 - (r / 0.6) ** 2, 0.0)

    line = GridSpec.box((0.0,), (1.0,), (513,))
    r_ax = line.axes()[0]
    oracle = pme1d_solve(
        RadialProblem(m=m, grid=line,
                      initial=density_from_pressure(u0_radial(r_ax), m),
                      boundary="symmetry-at-0", right=0.0),
        t_end=t_end, snapshot_times=(t_end,))
    rho_ref = oracle.snapshots[-1].values
    scale = float(np.max(rho_ref))

    errs = []
    for n in (65, 129, 257):
        grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (n, n))

        def u0(X):
            return u0_radial(np.hypot(X[:, 0] - c, X[:, 1] - c))

        rep = solve_dirichlet(DirichletProblem(
            grid, Params(m=m, eps=1e-3, delta=1e-3),
            BoundaryData.from_functions(
                u0=u0, g=lambda X, t: np.zeros(len(X)),
                time_dependent=False),
            t_end=t_end, snapshot_times=(t_end,)))
        x_ax, y_ax = grid.axes()
        j = int(np.argmin(np.abs(y_ax - c)))
        ray_r = np.hypot(x_ax - c, y_ax[j] - c)
        rho_2d = density_from_pressure(
            np.maximum(rep.final.values[:, j], 0.0), m)
        errs.append(float(np.max(np.abs(
            rho_2d - np.interp(ray_r, r_ax, rho_ref)))) / scale)

    assert errs[0] > errs[1] > errs[2], errs
    assert errs[-1] <= 0.05, errs
    print("C02 PASS radial-vs-line-oracle errors "
          + " > ".join(f"{e:.2%}" for e in errs) + " (final <= 5%)")


# ---------------------------------------------------------------------------
# 3. free-boundary growth exponent 1/(m+1)


def test_c03_front_growth_exponent(cauchy_run_m2, cauchy_run_m3,
                                   pme1d_rate_runs):
    lines = []
    for label, run in (("2-d m=2", cauchy_run_m2), ("2-d m=3", cauchy_run_m3)):
        m = run["m"]
        rate, want = run["fit"].rate, 1.0 / (m + 1.0)
        assert abs(rate - want) <= 0.05, (label, rate, want)
        lines.append(f"{label}: {rate:.4f}")
    for m, run in pme1d_rate_runs.items():
        rate, want = run["fit"].rate, 1.0 / (m + 1.0)
        assert abs(rate - want) <= 0.05, (m, rate, want)
        lines.append(f"1-d m={m:g}: {rate:.4f}")
    print("C03 PASS front exponents within 0.05 of 1/(m+1): "
          + "; ".join(lines))


# ---------------------------------------------------------------------------
# 4. zero-lateral-data ball run: t*u stabilizes to the separable profile


def test_c04_rescaled_pressure_stabilizes_to_ball_profile(fg_run, tmp_path):
    rep = fg_run["report"]
    fg = asymptotics.friendly_giant(rep.snapshots, fg_run["params"],
                                    ball_radius=fg_run["radius"],
                                    center=fg_run["center"])
    errs = np.asarray(fg.errors)
    assert np.all(np.diff(errs) < 0.0), errs
    rel = errs[-1] / fg.profile_max
    assert rel <= 0.10, (errs[-1], fg.profile_max)

    # the same curve through the post-processing command
    snap_dir = tmp_path / "snaps"
    snap_dir.mkdir()
    for i, s in enumerate(rep.snapshots):
        io.write_snapshot(str(snap_dir / f"u_{i:04d}.snap"), s)
    out = tmp_path / "out"
    cfg = tmp_path / "a.yaml"
    cx, cy = fg_run["center"]
    cfg.write_text(
        "output: %s\n"
        "asym:\n"
        "  snapshots: %s\n"
        "  tasks: [giant]\n"
        "  m: 2.0\n"
        "  ball_radius: %r\n"
        "  center: [%r, %r]\n"
        % (out, snap_dir, fg_run["radius"], cx, cy))
    assert cli.main(["asym", str(cfg)]) == 0
    _, rows = io.read_trace_csv(out / "giant_curve.csv")
    curve = [row[1] for row in rows]
    assert curve == pytest.approx(list(errs))
    print(f"C04 PASS t*u distance decreasing {errs[0]:.4f} -> {errs[-1]:.4f} "
          f"({rel:.2%} of profile max, <= 10%)")


# ---------------------------------------------------------------------------
# 5. discrete lower bound u_t >= -u/t on the same run


def test_c05_time_derivative_lower_bound(fg_run):
    rep = fg_run["report"]
    worst = asymptotics.benilan_crandall_check(rep.snapshots)
    bound = -1e-2 * float(np.max(rep.snapshots[-1].values))
    assert worst >= bound, (worst, bound)
    print(f"C05 PASS min(u_t + u/t) = {worst:.3e} >= {bound:.3e}")


# ---------------------------------------------------------------------------
# 6. ordering: 100 random ordered data pairs, and the truncation ladder


def test_c06_ordering_preserved():
    allowance = 1e-8 + 1e-3
    grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (17, 17))
    params = Params(m=2.0, eps=1e-2, delta=1e-2)
    rng = np.random.default_rng(20260814)
    worst = -np.inf
    for _ in range(100):
        coef = rng.random(4)

        def lo_fn(X, coef=coef):
            return 0.2 + 0.3 * (np.sin(coef[0] + 2.0 * X[:, 0])
                                * np.cos(coef[1] + X[:, 1]) + 1.0)

        def hi_fn(X, coef=coef, lo=lo_fn):
            return lo(X) + 0.1 + 0.2 * (np.cos(coef[2] + X[:, 0]
                                               + coef[3] * X[:, 1]) + 1.0)

        reps = [solve_dirichlet(DirichletProblem(
            grid, params,
            BoundaryData.from_functions(u0=fn, g=lambda X, t, fn=fn: fn(X),
                                        time_dependent=False),
            t_end=0.05, snapshot_times=(0.025, 0.05)))
            for fn in (lo_fn, hi_fn)]
        worst = max(worst, max(
            float(np.max(a.values - b.values))
            for a, b in zip(reps[0].snapshots, reps[1].snapshots)))
    assert worst <= allowance, worst

    spec = exact.spec("barenblatt", 2.0, R=1.0)
    bd = BoundaryData.from_functions(
        u0=lambda X: exact.evaluate_u(spec, X, 1.0),
        g=lambda X, t: exact.evaluate_u(spec, X, 1.0 + t))
    rep = solve_maximal(
        DirichletProblem(GridSpec.box((-1.5, -1.5), (1.5, 1.5), (33, 33)),
                         Params(m=2.0, eps=3e-3, delta=1e-3), bd,
                         t_end=0.1, snapshot_times=(0.05, 0.1)),
        n_list=(2, 4, 8))
    monotonicity = rep.manifest["monotonicity"]
    excess = max(monotonicity.values())
    assert excess <= allowance, monotonicity
    print(f"C06 PASS 100 ordered pairs (worst excess {worst:.1e}) and "
          f"ladder monotone (excess {excess:.1e})")


# ---------------------------------------------------------------------------
# 7. scaling equivariance: rescaled reruns reproduce the scaled solution


def test_c07_scaling_equivariance():
    m, lam = 2.0, 2.0
    spec = exact.spec("traveling-wave", m, speed=1.0, offset=0.3)
    base_par = Params(m=m, eps=1e-2, delta=1e-2, c=1e-2)
    n, t_end = 33, 0.25
    grid = GridSpec.box((0.0, 0.0), (1.0, 1.0), (n, n))

    def run(g, par, u0, bc, T):
        return solve_dirichlet(DirichletProblem(
            g, par, BoundaryData.from_functions(u0=u0, g=bc), t_end=T))

    base = run(grid, base_par,
               lambda X: exact.evaluate_u(spec, X, 0.0),
               lambda X, t: exact.evaluate_u(spec, X, t), t_end)
    X = grid.points()
    e_base = float(np.max(np.abs(
        base.final.values
        - exact.evaluate_u(spec, X, t_end).reshape(grid.shape))))

    # space-time family: lam^(2+gamma) u(x/lam, lam^gamma t), gamma = 1
    A = lam ** 3.0
    grid_s = GridSpec.box((0.0, 0.0), (lam, lam), (n, n))
    par_s = base_par.with_(eps=A * base_par.eps,
                           delta=(A / lam) * base_par.delta,
                           c=A * base_par.c)
    rep_s = run(grid_s, par_s,
                lambda X: A * exact.evaluate_u(spec, X / lam, 0.0),
                lambda X, t: A * exact.evaluate_u(spec, X / lam, lam * t),
                t_end / lam)
    diff_s = float(np.max(np.abs(rep_s.final.values
                                 - A * base.final.values)))
    e_s = float(np.max(np.abs(
        rep_s.final.values
        - A * exact.evaluate_u(spec, grid_s.points() / lam,
                               t_end).reshape(grid.shape)))) / A
    assert diff_s == 0.0
    assert e_s <= 2.0 * e_base + 1e-15, (e_s, e_base)

    # time-only family: lam u(x, lam t)
    par_t = base_par.with_(eps=lam * base_par.eps,
                           delta=lam * base_par.delta, c=lam * base_par.c)
    rep_t = run(grid, par_t,
                lambda X: lam * exact.evaluate_u(spec, X, 0.0),
                lambda X, t: lam * exact.evaluate_u(spec, X, lam * t),
                t_end / lam)
    diff_t = float(np.max(np.abs(rep_t.final.values
                                 - lam * base.final.values)))
    e_t = float(np.max(np.abs(
        rep_t.final.values
        - lam * exact.evaluate_u(spec, X, t_end).reshape(grid.shape)))) / lam
    assert diff_t == 0.0
    assert e_t <= 2.0 * e_base + 1e-15, (e_t, e_base)
    print(f"C07 PASS rescaled reruns bit-identical (base error {e_base:.2e}; "
          "pulled-back errors equal)")


# ---------------------------------------------------------------------------
# 8. profile-table self-consistency


def test_c08_profile_tables_self_consistent():
    for p in (2.0 / 3.0, 0.5, 1.0 / 3.0):
        for a in (0.5, 1.0, 2.0):
            tab = exact.build_H_profile(a, p)
            assert abs(tab.y_max - exact.endpoint_A(a, p)) <= 1e-9, (a, p)

    for build, args in ((exact.build_H_profile, (1.0, 0.5)),
                        (exact.build_I_profile, (1.0, 0.5, 2.0)),
                        (exact.build_K_profile, (-1.0, 0.5, 2.0))):
        tab = build(*args)
        z = np.linspace(tab.domain[0], tab.domain[1], 257)[1:-1]
        back = tab.invert(tab.forward(z))
        assert float(np.max(np.abs(back - z))) <= 1e-9

    drops = {}
    for kind, a, zmax in (("H", 1.0, None), ("I", 1.0, 2.0), ("K", -1.0, 2.0)):
        res = [exact.ode_residual(
            exact.ProfileTable(kind, a, 0.5, n=nn, z_max=zmax), n_samples=ns)
            for nn, ns in ((2048, 100), (4096, 200), (8192, 400))]
        assert res[0] > res[1] > res[2], (kind, res)
        drops[kind] = res
    print("C08 PASS endpoints/roundtrips <= 1e-9; ODE residuals fall "
          + "; ".join(f"{k} {v[0]:.1e}->{v[-1]:.1e}"
                      for k, v in drops.items()))


# ---------------------------------------------------------------------------
# 9. whole-space runs stay bounded and their support never retreats


def test_c09_cauchy_bound_and_support_monotone(cauchy_run_m2, cauchy_run_m3):
    lines = []
    for run in (cauchy_run_m2, cauchy_run_m3):
        rep = run["report"]
        # the rung's data are the data raised by its floor
        bound = run["data_max"] + rep.ladder_floor + 1e-6
        peak = float(np.max(rep.max_trace))
        assert peak <= bound, (peak, bound)
        # the collar holds the bound's value, so bound the solution also
        # inside |x| < r, where the collar does not sit
        grid = rep.snapshots[0].grid
        inside = grid.radii() < rep.manifest["truncation_radius"]
        core = max(float(np.max(s.values[inside])) for s in rep.snapshots)
        assert core <= bound, (core, bound)
        r_inner = np.asarray(run["trace"].r_inner)
        assert np.all(np.diff(r_inner) >= 0.0), r_inner
        lines.append(f"m={run['m']:g}: peak {peak:.6f} (inside |x| < r "
                     f"{core:.4f}) <= {bound:.6f}, "
                     f"front {r_inner[0]:.3f}->{r_inner[-1]:.3f}")
    print("C09 PASS " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 10. attraction to the source solution in scaled sup norm


def test_c10_source_solution_attracts(cauchy_run_m2):
    # 1-d: asymmetric two-bump density on the line
    m = 2.0
    g1 = GridSpec.box((-3.0,), (3.0,), (769,))
    x = g1.axes()[0]
    rho0 = 0.4 * np.maximum(1.0 - ((x + 0.3) / 0.2) ** 2, 0.0) \
        + 0.3 * np.maximum(1.0 - ((x - 0.3) / 0.2) ** 2, 0.0)
    mass = float(np.trapezoid(rho0, x))
    xbar = float(np.trapezoid(x * rho0, x)) / mass
    res = pme1d_solve(RadialProblem(m=m, grid=g1, initial=rho0,
                                    boundary="dirichlet",
                                    left=0.0, right=0.0),
                      t_end=4.0, snapshot_times=(0.5, 1.0, 2.0, 4.0))
    # front scale of the mass-matched source solution: for m = 2 the
    # density is the parabola (R^2 t^(2/3) - x^2)/(12 t), whose integral
    # over its support is R^3/9 at every t, so R = (9 mass)^(1/3)
    R1 = (9.0 * mass) ** (1.0 / 3.0)
    _, errs1 = asymptotics.barenblatt_convergence(
        res.snapshots, R1, Params(m=m), center=(xbar,))
    assert all(a > b for a, b in zip(errs1, errs1[1:])), errs1

    # 2-d: the radial reference run against its fitted front scale
    rep = cauchy_run_m2["report"]
    snaps = [replace(s, values=np.maximum(s.values - rep.ladder_floor, 0.0))
             for s in (rep.snapshots[i] for i in (0, 4, 8, 12))]
    _, errs2 = asymptotics.barenblatt_convergence(
        snaps, cauchy_run_m2["fit"].amplitude, Params(m=m),
        center=cauchy_run_m2["center"], r_max=1.25)
    assert all(a > b for a, b in zip(errs2, errs2[1:])), errs2
    print(f"C10 PASS scaled sup distance falls: 1-d {errs1[0]:.4f}->"
          f"{errs1[-1]:.4f}, 2-d {errs2[0]:.5f}->{errs2[-1]:.5f} "
          "over 3 doubling times")


# ---------------------------------------------------------------------------
# 11. deterministic artifacts: byte-identical roundtrips and reruns


def test_c11_bitstable_io_and_reruns(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "c.yaml"
    cfg.write_text("""\
problem: dirichlet
m: 2.0
eps: 1.0e-2
delta: 1.0e-2
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
data: {kind: bump, height: 0.5, radius: 0.6}
boundary: {kind: zero}
t_end: 0.02
snapshot_times: [0.01, 0.02]
output: %s
""" % out)
    assert cli.main(["solve", str(cfg)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(["solve", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second

    # parse -> serialize is the identity on bytes for every artifact kind
    snap_path = out / "u_0001.snap"
    field = io.read_snapshot(snap_path)
    assert io.snapshot_text(field).encode() == snap_path.read_bytes()
    man = io.read_manifest(out / "manifest.yaml")
    round2 = tmp_path / "man2.yaml"
    io.write_manifest(str(round2), man)
    assert round2.read_bytes() == (out / "manifest.yaml").read_bytes()
    assert yaml.safe_load(round2.read_text())["problem"] == "dirichlet"
    print(f"C11 PASS reruns and roundtrips byte-identical "
          f"({len(first)} files)")
