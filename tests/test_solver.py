"""Time-stepping battery: CFL policing, lateral-data handling, the
continuation and ladder drivers, truncation monitoring, and barriers."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from ipme.core import (BoundaryData, DomainError, GridSpec, InstabilityError,
                       OrderingError, Params, RegularizationSchedule,
                       ScalarField, TruncationError)
from ipme import operators, solver
from ipme.solver import (CauchyProblem, DirichletProblem, ball_mask,
                         barrier_check, cauchy_initial, solve_cauchy,
                         solve_dirichlet, solve_maximal)

GRID = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (17, 17))
# 201^2 interior nodes: just above SPLIT_NODES, so two slabs
SPLIT_GRID = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (203, 203))
PARAMS = Params(m=2.0, eps=1e-2, delta=1e-2)


def bump_boundary(height=0.5, radius=0.6, base=0.0):
    """Quartic bump over a constant pedestal, constant lateral data."""
    def u0(X):
        r2 = np.sum(X * X, axis=1)
        return base + height * np.maximum(1.0 - (r2 / radius**2) ** 2, 0.0)
    return BoundaryData.from_functions(
        u0=u0, g=lambda X, t: np.full(len(X), base), time_dependent=False)


def _alive(pid):
    """True while `pid` runs: it exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def first_dt(values):
    """The stage loop's first step from `values` under zero lateral data:
    the CFL bound of that field, as the horizon is longer than the step."""
    bd = BoundaryData.from_functions(
        u0=lambda X: values.ravel(), g=lambda X, t: np.zeros(len(X)),
        time_dependent=False)
    dts = solve_dirichlet(DirichletProblem(GRID, PARAMS, bd,
                                           t_end=1.0)).dt_history
    assert dts[0] < 1.0
    return dts[0]


class TestProblemValidation:

    def test_t_end_must_be_positive(self):
        with pytest.raises(DomainError, match="t_end"):
            DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.0)

    def test_snapshots_must_lie_in_window(self):
        with pytest.raises(DomainError, match="snapshot"):
            DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.1,
                             snapshot_times=(0.2,))

    def test_mask_shape_must_match_grid(self):
        with pytest.raises(DomainError, match="mask"):
            DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.1,
                             domain_mask=np.ones((5, 5), dtype=bool))

    def test_ball_mask_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError, match="radius"):
            ball_mask(GRID, 0.0)

    def test_cauchy_box_must_cover_twice_r(self):
        with pytest.raises(DomainError, match="cover"):
            CauchyProblem(grid=GRID, params=PARAMS,
                          u0=lambda X: np.zeros(len(X)), M=0.1, r=0.8)


class TestCfl:

    def test_flat_field_bound_set_by_linear_viscosity(self):
        h = min(GRID.h)
        want = solver.SAFETY * h * h / (2.0 * PARAMS.eps * GRID.dim)
        assert first_dt(np.zeros(GRID.shape)) == pytest.approx(want,
                                                               rel=1e-12)

    def test_bound_shrinks_with_field_amplitude(self):
        X = GRID.points()
        bump = 0.5 * np.maximum(
            1.0 - ((X[:, 0] ** 2 + X[:, 1] ** 2) / 0.36) ** 2, 0.0)
        assert first_dt(4.0 * bump) < first_dt(bump)


class TestEulerStep:

    def test_boundary_nodes_stamped_at_new_time(self):
        # one step, well inside the CFL bound: the interior stays put, the
        # lateral data are those of the step's end
        bd = BoundaryData.from_functions(
            u0=lambda X: np.full(len(X), 0.7),
            g=lambda X, t: np.full(len(X), 0.7 + 0.1 * t))
        rep = solve_dirichlet(DirichletProblem(GRID, PARAMS, bd, t_end=0.002))
        assert rep.n_steps == 1 and rep.final.t == 0.002
        bmask = GRID.boundary_mask()
        assert np.allclose(rep.final.values[bmask], 0.7 + 0.1 * 0.002)
        assert np.all(rep.final.values[~bmask] == 0.7)

    @pytest.mark.parametrize("n", [(17, 17), (7, 6, 5)])
    def test_workspace_tail_is_never_touched(self, n):
        # the buffers are np.empty and neither the kernel nor the advance
        # writes the rhs buffer past the last interior node (2 positions
        # in 2-d, 12 here in 3-d), nor a temporary past the longest
        # chunk's run; an advance that scaled them would overflow a tail
        grid = GridSpec(n=n, h=(0.1,) * len(n), origin=(-0.3,) * len(n))
        held = np.flatnonzero(grid.boundary_mask())
        work = operators.StencilWork(grid, held)
        run = (np.ravel_multi_index(tuple(k - 2 for k in n), n)
               - np.ravel_multi_index((1,) * len(n), n) + 1)
        chunk, = work.slabs[0].chunks
        assert chunk.c0.stop - chunk.c0.start == run
        tails = [b[run:] for b in [work.flat_rhs] + work.temps]
        assert all(t.size > 0 for t in tails)
        for t in tails:
            t[...] = 1e300
        work.mask[run:] = True
        bd = BoundaryData.from_functions(
            u0=lambda X: 0.5 + np.sum(X * X, axis=1),
            g=lambda X, t: 0.5 + np.sum(X * X, axis=1), time_dependent=False)
        vals = bd.initial(grid.points()).reshape(grid.shape)
        dt = 1e10
        with np.errstate(all="raise"):
            rhs = operators.rhs_core(vals, grid, PARAMS, work)[0]
            want = vals.copy()
            want[grid.interior()] += rhs * dt
            work.lateral[:] = bd.lateral(grid.points()[held], dt)
            extrema = work.run(solver._advance, vals, dt)
        assert np.array_equal(vals, want)
        assert extrema == [(vals.max(), vals.min())]
        assert all(np.all(t == 1e300) for t in tails)
        assert np.all(work.mask[run:])


class TestSolveDirichlet:

    def test_split_stage_workers_end_with_the_stage(self, monkeypatch,
                                                    workers):
        # a grid above the split threshold and a two-stage schedule: each
        # stage forks one slab worker and waits for it when it ends
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (233, 233))
        assert (grid.n[0] - 2) ** 2 >= operators.SPLIT_NODES
        bd = bump_boundary(base=0.05)
        schedule = RegularizationSchedule(eps_list=(2e-2, 1e-2),
                                          delta_list=(1e-2,))
        rep = solve_dirichlet(DirichletProblem(
            grid, PARAMS, bd, t_end=2e-4, snapshot_times=(1e-4,)), schedule)
        assert len(workers) == 2 and workers.reaped()
        assert rep.n_steps >= 2

    def test_constant_data_preserved_exactly(self):
        bd = BoundaryData.from_functions(
            u0=lambda X: np.full(len(X), 0.7),
            g=lambda X, t: np.full(len(X), 0.7), time_dependent=False)
        prob = DirichletProblem(GRID, PARAMS, bd, t_end=0.05,
                                snapshot_times=(0.025, 0.05))
        rep = solve_dirichlet(prob)
        assert np.all(rep.final.values == 0.7)
        assert np.all(rep.max_trace == 0.7)
        assert all(np.all(s.values == 0.7) for s in rep.snapshots)
        assert rep.n_steps >= 1

    def test_snapshots_do_not_alias_the_running_field(self):
        # the loop updates one array in place, so each snapshot must be
        # its own copy: the last one equals the final field without
        # sharing its memory, and the earlier one keeps its own time
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(base=0.05),
                                t_end=0.05, snapshot_times=(0.01, 0.05))
        rep = solve_dirichlet(prob)
        first, last = rep.snapshots
        assert np.array_equal(last.values, rep.final.values)
        assert not np.shares_memory(last.values, rep.final.values)
        assert not np.shares_memory(first.values, last.values)
        assert np.any(first.values != last.values)
        assert rep.max_trace[0] == float(np.max(first.values))

    def test_snapshots_land_exactly_on_requested_times(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05,
                                snapshot_times=(0.013, 0.027, 0.05))
        rep = solve_dirichlet(prob)
        assert [s.t for s in rep.snapshots] == [0.013, 0.027, 0.05]
        assert rep.final.t == 0.05
        assert rep.n_steps == len(rep.dt_history)
        assert rep.dt_history.sum() == pytest.approx(0.05, rel=1e-12)

    def test_bump_obeys_discrete_extremum_bounds(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.1,
                                snapshot_times=(0.05, 0.1))
        rep = solve_dirichlet(prob)
        assert float(np.max(rep.max_trace)) <= 0.5 + 1e-6
        # the bump genuinely decays under degenerate diffusion
        assert rep.max_trace[-1] < 0.5

    def test_nan_in_initial_data_raises(self):
        bad = BoundaryData.from_functions(
            u0=lambda X: np.full(len(X), np.nan),
            g=lambda X, t: np.zeros(len(X)))
        with pytest.raises(InstabilityError, match="non-finite"):
            solve_dirichlet(DirichletProblem(GRID, PARAMS, bad, t_end=0.01))

    def test_negative_initial_data_raises(self):
        bad = BoundaryData.from_functions(
            u0=lambda X: np.full(len(X), -0.5),
            g=lambda X, t: np.zeros(len(X)))
        with pytest.raises(InstabilityError, match="negative"):
            solve_dirichlet(DirichletProblem(GRID, PARAMS, bad, t_end=0.01))

    def test_masked_nodes_held_at_lateral_data(self):
        mask = ball_mask(GRID, 0.8)
        prob = DirichletProblem(GRID, PARAMS,
                                bump_boundary(radius=0.5, base=0.05),
                                t_end=0.05, domain_mask=mask)
        rep = solve_dirichlet(prob)
        assert np.all(rep.final.values[~mask] == 0.05)
        assert np.any(rep.final.values[mask] != 0.05)
        assert rep.manifest["masked"] is True

    def test_stage_differences_recorded_per_pair(self):
        sched = RegularizationSchedule(eps_list=(1e-1, 1e-2, 1e-3),
                                       delta_list=(1e-2,))
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05)
        data = solve_dirichlet(prob, schedule=sched).manifest
        assert len(data["stage_diffs"]) == len(sched.pairs()) - 1
        assert all(d > 0.0 for d in data["stage_diffs"])
        assert data["warnings"] == []

    def test_growing_stage_differences_warn(self):
        # the middle stage barely moves eps, the last one jumps, so the
        # stage differences cannot decrease and the driver must say so
        sched = RegularizationSchedule(eps_list=(1e-1, 9.9e-2, 1e-3),
                                       delta_list=(1e-2,))
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05)
        warnings = solve_dirichlet(prob, schedule=sched).manifest["warnings"]
        assert any("continuation-failure" in w for w in warnings)

    def test_manifest_records_the_run(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05)
        data = solve_dirichlet(prob).manifest
        assert data["format"] == "ipme-manifest v1"
        assert data["problem"] == "dirichlet"
        assert data["params"]["m"] == 2.0
        assert data["grid"]["n"] == [17, 17]
        assert data["t_end"] == 0.05


class TestSolveMaximal:

    def test_ladder_floor_diffs_and_ordering(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05,
                                snapshot_times=(0.025, 0.05))
        rep = solve_maximal(prob, n_list=(1, 2, 4))
        data = rep.manifest
        assert rep.ladder_floor == 0.25
        assert len(data["ladder_diffs"]) == 2
        # rungs approach a limit from above: gaps shrink with the floor
        assert data["ladder_diffs"][1] < data["ladder_diffs"][0]
        assert max(data["monotonicity"].values()) <= solver.MONO_TOL
        assert data["problem"] == "maximal"
        assert data["n_list"] == [1, 2, 4]

    def test_n_list_must_increase(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.01)
        with pytest.raises(DomainError, match="n_list"):
            solve_maximal(prob, n_list=(4, 2))
        with pytest.raises(DomainError, match="n_list"):
            solve_maximal(prob, n_list=(0, 1))

    def test_ordering_guard_is_live(self, monkeypatch):
        # shrink the tolerance below the natural rung gap so the guard
        # must trip; a silent pass here would mean ordering is unpoliced
        monkeypatch.setattr(solver, "MONO_TOL", -1.0)
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.01,
                                snapshot_times=(0.01,))
        with pytest.raises(OrderingError, match="ladder rung"):
            solve_maximal(prob, n_list=(1, 2))


class TestCauchyInitial:

    GRID_C = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (33, 33))

    def bump(self, X, height=0.3, radius=0.2):
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        return height * np.maximum(1.0 - (r2 / radius**2) ** 2, 0.0)

    def test_truncated_data_values(self):
        prob = CauchyProblem(grid=self.GRID_C, params=PARAMS, u0=self.bump,
                             M=0.3, r=0.5)
        vals = cauchy_initial(prob)
        X = self.GRID_C.points()
        rr = np.sqrt(np.sum(X * X, axis=1)).reshape(self.GRID_C.shape)
        assert np.allclose(vals[rr <= 0.5], self.bump(X).reshape(
            self.GRID_C.shape)[rr <= 0.5])
        assert np.all(vals[rr >= 1.0] == 0.3)
        # ramp interpolates between the sphere trace (zero here) and M
        ax = self.GRID_C.axes()
        i = int(np.argmin(np.abs(ax[0] - 0.75)))
        j = int(np.argmin(np.abs(ax[1])))
        assert vals[i, j] == pytest.approx(0.15)

    def test_negative_data_rejected(self):
        prob = CauchyProblem(grid=self.GRID_C, params=PARAMS,
                             u0=lambda X: -self.bump(X), M=0.3, r=0.5)
        with pytest.raises(DomainError, match="nonnegative"):
            cauchy_initial(prob)

    def test_support_must_fit_in_r(self):
        prob = CauchyProblem(grid=self.GRID_C, params=PARAMS,
                             u0=lambda X: self.bump(X, radius=0.7),
                             M=0.3, r=0.5)
        with pytest.raises(DomainError, match="supported"):
            cauchy_initial(prob)

    def test_m_must_dominate_data(self):
        prob = CauchyProblem(grid=self.GRID_C, params=PARAMS, u0=self.bump,
                             M=0.1, r=0.5)
        with pytest.raises(DomainError, match="dominate"):
            cauchy_initial(prob)

    @pytest.mark.parametrize("u0", [0.3, [0.0, 0.1, 0.0]],
                             ids=["constant", "list"])
    def test_non_callable_data_rejected(self, u0):
        with pytest.raises(DomainError, match="callable"):
            CauchyProblem(grid=self.GRID_C, params=PARAMS, u0=u0, M=0.3,
                          r=0.5)

    def test_sampled_data_rejected(self):
        # the collar ramp samples u0 on the sphere |x| = r, which an array
        # of node values cannot give
        samples = self.bump(self.GRID_C.points()).reshape(self.GRID_C.shape)
        with pytest.raises(DomainError, match="callable"):
            CauchyProblem(grid=self.GRID_C, params=PARAMS, u0=samples,
                          M=0.3, r=0.5)


class TestSolveCauchy:

    def test_truncation_mid_stage_leaves_no_worker(self, monkeypatch,
                                                   workers):
        # a two-slab stage whose monitor raises at its first snapshot,
        # before t_end: every node is wet, so the bump reaches 1.5 r at
        # once; the slab worker must end with the stage
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        prob = CauchyProblem(
            grid=SPLIT_GRID, params=PARAMS, M=1.0, r=0.5, t_end=2e-4,
            u0=lambda X: (np.sum(X * X, axis=1) <= 0.25).astype(float),
            snapshot_times=(1e-4,))
        assert len(operators.StencilWork(SPLIT_GRID).slabs) == 2
        with pytest.raises(TruncationError, match="t=0.0001;"):
            solve_cauchy(prob, n_list=(1,))
        assert len(workers) == 1 and workers.reaped()

    def test_crowded_truncation_trips_the_monitor(self):
        # moat foot and bump front merge quickly when the dead band is
        # thin and the ladder floor conducts; the run must refuse
        grid = GridSpec.box((-0.6, -0.6), (0.6, 0.6), (49, 49))
        def u0(X):
            r2 = X[:, 0] ** 2 + X[:, 1] ** 2
            return 0.2 * np.maximum(1.0 - (r2 / 0.2 ** 2) ** 2, 0.0)
        prob = CauchyProblem(grid=grid, params=PARAMS, u0=u0, M=0.2, r=0.25,
                             t_end=0.1, snapshot_times=(0.05, 0.1))
        with pytest.raises(TruncationError, match="enlarge r"):
            solve_cauchy(prob, n_list=(4,))

    @staticmethod
    def roomy_problem():
        grid = GridSpec.box((-0.62, -0.62), (0.62, 0.62), (49, 49))
        def u0(X):
            r2 = X[:, 0] ** 2 + X[:, 1] ** 2
            return 0.05 * np.maximum(1.0 - (r2 / 0.1 ** 2) ** 2, 0.0)
        return CauchyProblem(grid=grid,
                             params=Params(m=2.0, eps=1e-4, delta=1e-2),
                             u0=u0, M=0.05, r=0.3, t_end=0.05,
                             snapshot_times=(0.025, 0.05))

    def test_roomy_truncation_runs_and_reports(self):
        prob = self.roomy_problem()
        rep = solve_cauchy(prob, n_list=(128, 256))
        data = rep.manifest
        assert rep.ladder_floor == 1.0 / 256.0
        assert len(data["ladder_diffs"]) == 1
        assert max(data["monotonicity"].values()) <= solver.MONO_TOL
        # lateral value plus floor bounds the whole evolution
        assert float(np.max(rep.max_trace)) <= 0.05 + rep.ladder_floor + 1e-6
        assert data["problem"] == "cauchy"
        assert data["M"] == 0.05
        assert data["truncation_radius"] == 0.3
        assert barrier_check(rep, "cauchy-V", prob)

    def test_manifest_records_ladder_diffs_and_ordering(self):
        rep = solve_cauchy(self.roomy_problem(), n_list=(128, 256))
        data = rep.manifest
        gap = float(np.max(np.abs(rep.final.values - solve_cauchy(
            self.roomy_problem(), n_list=(128,)).final.values)))
        assert data["ladder_diffs"] == [gap]
        assert list(data["monotonicity"]) == ["u^256 <= u^128"]

    def test_n_list_must_increase(self):
        # the ladder is checked before any rung runs
        prob = self.roomy_problem()
        with pytest.raises(DomainError, match="n_list"):
            solve_cauchy(prob, n_list=(4, 2))
        with pytest.raises(DomainError, match="n_list"):
            solve_cauchy(prob, n_list=(0, 1))


@pytest.fixture(scope="module")
def paraboloid_run():
    """Gentle paraboloid data with small k: the rate constant of the
    time-growth barrier converges to a moderate value, so halving it
    demonstrably breaks the bound."""
    grid = GridSpec.box((0.0, 0.0), (1.0, 1.0), (33, 33))
    params = Params(m=1.05, eps=5e-2, delta=1e-2)
    def g0(X):
        return 0.5 - 0.25 * (X[:, 0] ** 2 + X[:, 1] ** 2)
    bd = BoundaryData.from_functions(u0=g0, g=lambda X, t: g0(X),
                                     time_dependent=False)
    prob = DirichletProblem(grid=grid, params=params, boundary=bd,
                            t_end=0.5, snapshot_times=(0.25, 0.5))
    return prob, solve_dirichlet(prob)


class TestBarriers:

    def test_time_growth_barrier_holds_at_full_rate(self, paraboloid_run):
        prob, rep = paraboloid_run
        assert barrier_check(rep, "time-lipschitz", prob)

    def test_undersized_rate_constant_fails(self, paraboloid_run):
        prob, rep = paraboloid_run
        assert not barrier_check(rep, "time-lipschitz", prob,
                                 lambda_scale=0.3)

    def test_boundary_hoelder_barrier_holds(self):
        # a large cutoff keeps the comparison radius at grid scale, so
        # the near sets contain genuine interior nodes
        params = Params(m=2.0, eps=1e-2, delta=1e-2, c=4.0)
        prob = DirichletProblem(GRID, params, bump_boundary(radius=0.9),
                                t_end=0.05, snapshot_times=(0.025, 0.05))
        rep = solve_dirichlet(prob)
        assert barrier_check(rep, "hoelder", prob)

    def test_unknown_barrier_rejected(self, paraboloid_run):
        prob, rep = paraboloid_run
        with pytest.raises(DomainError, match="unknown barrier"):
            barrier_check(rep, "parabolic", prob)

    def test_hoelder_needs_positive_cutoff(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.01)
        rep = solve_dirichlet(prob)
        with pytest.raises(DomainError, match="cutoff"):
            barrier_check(rep, "hoelder", prob)


# ---------------------------------------------------------------------------
# reference: the stamp, the update, the value police and the stage loop as
# they were before the update ran over one contiguous span, kept verbatim
# but for names and the report fields since deleted, to pin bit identity;
# they call none of the functions under test

def reference_stamp(grid, boundary, domain_mask):
    held = np.flatnonzero(solver._inactive_nodes(grid, domain_mask))
    X_in = grid.points()[held]
    fixed = None if boundary.time_dependent else \
        np.asarray(boundary.lateral(X_in, 0.0), dtype=float)

    def stamp(vals, t):
        vals.reshape(-1)[held] = boundary.lateral(X_in, t) \
            if fixed is None else fixed
    return stamp


def reference_euler(vals, work, dt, t_new, grid, stamp, quantity):
    work.flat_rhs *= dt
    vals[grid.interior()] += work.rhs
    stamp(vals, t_new)
    reference_police(vals, quantity)


def reference_police(vals, quantity):
    top = float(np.max(vals))
    low = float(np.min(vals))
    if not (np.isfinite(top) and np.isfinite(low)):
        raise InstabilityError("non-finite values during time stepping")
    if quantity in ("u", "rho"):
        if low < -solver.NEG_TOL * max(1.0, abs(top)):
            raise InstabilityError(
                f"negative value {low} beyond tolerance during stepping")
        if not low > 0.0:
            np.clip(vals, 0.0, None, out=vals)


def reference_run_stage(grid, params, boundary, t_end, snapshot_times,
                        domain_mask, monitor=None):
    targets = sorted(set(float(t) for t in snapshot_times) | {float(t_end)})
    vals = np.asarray(boundary.initial(grid.points()),
                      dtype=float).reshape(grid.shape).copy()
    stamp = reference_stamp(grid, boundary, domain_mask)
    stamp(vals, 0.0)
    reference_police(vals, "u")

    dts = []
    snaps = []
    t = 0.0
    with operators.StencilWork(grid) as work:
        for target in targets:
            while t < target - 1e-13 * max(1.0, target):
                _, bmax, g2max = operators.rhs_core(vals, grid, params, work)
                dt = min(solver._cfl_from_bounds(grid, params, bmax, g2max),
                         target - t)
                if not np.isfinite(dt):
                    dt = target - t
                t += dt
                reference_euler(vals, work, dt, t, grid, stamp, "u")
                dts.append(dt)
                if monitor is not None and len(dts) % 128 == 0:
                    monitor(ScalarField(grid=grid, values=vals.copy(), t=t,
                                        quantity="u"))
            t = target
            snaps.append(ScalarField(grid=grid, values=vals.copy(), t=t,
                                     quantity="u"))
            if monitor is not None:
                monitor(snaps[-1])
    return solver.SolveReport(
        final=ScalarField(grid=grid, values=vals, t=t, quantity="u"),
        snapshots=snaps, dt_history=np.asarray(dts),
        max_trace=np.asarray([float(np.max(s.values)) for s in snaps]),
        n_steps=len(dts))


def stage_case(name):
    """(grid, params, boundary, t_end, snapshot_times, domain_mask)."""
    if name == "ball-mask":
        return (GRID, PARAMS, bump_boundary(radius=0.5, base=0.05), 0.05,
                (0.02,), ball_mask(GRID, 0.8))
    if name == "time-dependent":
        bd = BoundaryData.from_functions(
            u0=bump_boundary(base=0.05).initial,
            g=lambda X, t: 0.05 + t * (1.0 + X[:, 0]))
        return GRID, PARAMS, bd, 0.05, (0.02,), None
    if name == "delta-zero":
        # the gradient (0.3, 0.2 y) vanishes at no node
        def g(X, t=0.0):
            return 0.3 + 0.3 * X[:, 0] + 0.1 * X[:, 1] ** 2
        bd = BoundaryData.from_functions(u0=g, g=g, time_dependent=False)
        return GRID, PARAMS.with_(delta=0.0), bd, 0.01, (0.005,), None
    if name.startswith("clipped"):
        # held nodes at -1e-14, inside NEG_TOL, and positive evolving
        # nodes: the clip runs every step only for the held ones; masked
        # nodes make it move the interior minimum, box-boundary nodes
        # alone are seen only through the stamp's extremes
        bd = BoundaryData.from_functions(
            u0=bump_boundary(radius=0.5, base=0.05).initial,
            g=lambda X, t: np.full(len(X), -1e-14), time_dependent=False)
        mask = ball_mask(GRID, 0.8) if name == "clipped-undershoot" else None
        return GRID, PARAMS, bd, 0.02, (0.01,), mask
    if name == "1-d":
        grid = GridSpec.box((-1.0,), (1.0,), (33,))
        return (grid, PARAMS, bump_boundary(base=0.01), 0.05, (0.02,), None)
    if name == "3-d":
        grid = GridSpec.box((-1.0,) * 3, (1.0,) * 3, (9, 8, 7))
        return (grid, PARAMS, bump_boundary(base=0.01), 0.02, (0.01,), None)
    if name == "split":
        return (SPLIT_GRID, PARAMS, bump_boundary(base=0.05), 2e-4, (1e-4,),
                None)
    if name.startswith("split-"):
        # the data of a one-slab case on the two-slab grid, over a few
        # steps; a mask is the same ball
        base = {"split-ball-mask": "ball-mask",
                "split-time-dependent": "time-dependent",
                "split-clipped": "clipped-undershoot"}[name]
        _, params, bd, _, _, mask = stage_case(base)
        if mask is not None:
            mask = ball_mask(SPLIT_GRID, 0.8)
        return SPLIT_GRID, params, bd, 2e-4, (1e-4,), mask
    raise KeyError(name)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStageMatchesReference:

    @pytest.mark.parametrize("name", [
        "ball-mask", "time-dependent", "delta-zero", "clipped-undershoot",
        "clipped-box-undershoot", "1-d", "3-d", "split", "split-ball-mask",
        "split-time-dependent", "split-clipped"])
    def test_bit_identical_to_reference_loop(self, name, monkeypatch):
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        case = stage_case(name)
        grid = case[0]
        split = name.startswith("split")
        if split:
            assert (grid.n[0] - 2) * (grid.n[1] - 2) >= operators.SPLIT_NODES
        assert len(operators.StencilWork(grid).slabs) == (2 if split else 1)
        got = solver._run_stage(*case)
        want = reference_run_stage(*case)
        assert got.n_steps == want.n_steps >= 2
        assert same_bits(got.dt_history, want.dt_history)
        assert same_bits(got.max_trace, want.max_trace)
        assert len(got.snapshots) == len(want.snapshots)
        for a, b in zip(got.snapshots, want.snapshots):
            assert a.t == b.t and same_bits(a.values, b.values)
        assert same_bits(got.final.values, want.final.values)
        if "clipped" in name:
            # the clip ran: every snapshot holds zeros, and inside the box
            # boundary only where masked nodes are held
            assert all(np.min(s.values) == 0.0 for s in want.snapshots)
            interior = want.final.values[grid.interior()]
            assert (np.min(interior) == 0.0) == \
                (name != "clipped-box-undershoot")

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "non-finite values during time stepping"),
        (np.inf, "non-finite values during time stepping"),
        (-np.inf, "non-finite values during time stepping"),
        (-0.1, "negative value -0.1 beyond tolerance during stepping")])
    def test_bad_lateral_data_raise_the_same_error(self, bad, message):
        bd = BoundaryData.from_functions(
            u0=bump_boundary(base=0.05).initial,
            g=lambda X, t: np.where((X[:, 0] > 0.9) & (t > 0.0), bad, 0.05))
        args = (GRID, PARAMS, bd, 0.01, (), None)
        messages = []
        for run in (solver._run_stage, reference_run_stage):
            with pytest.raises(InstabilityError) as info:
                run(*args)
            messages.append(str(info.value))
        assert messages == [message, message]

    def test_split_stage_repeats_bit_for_bit(self, monkeypatch, workers):
        # both slab processes write the one shared field, each only
        # inside its cover; for a second, repeated stages must match the
        # reference bit for bit, and each must end its worker
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        case = stage_case("split-time-dependent")
        want = reference_run_stage(*case)
        runs = 0
        deadline = time.monotonic() + 1.0
        while runs < 2 or time.monotonic() < deadline:
            got = solver._run_stage(*case)
            assert same_bits(got.final.values, want.final.values)
            assert same_bits(got.dt_history, want.dt_history)
            runs += 1
        assert len(workers) == runs + 1 and workers.reaped()

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "non-finite values during time stepping"),
        (-0.1, "negative value -0.1 beyond tolerance during stepping")])
    def test_bad_values_in_the_worker_cover_raise_alike(self, bad, message,
                                                        monkeypatch,
                                                        workers):
        # the bad lateral values sit only in the second slab's cover, which
        # the worker stamps and reduces; the error, raised by the police
        # in this process, and its text are those of one slab, and the
        # worker ends with the stage
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        bd = BoundaryData.from_functions(
            u0=bump_boundary(base=0.05).initial,
            g=lambda X, t: np.where((X[:, 0] > 0.9) & (t > 0.0), bad, 0.05))
        args = (SPLIT_GRID, PARAMS, bd, 2e-4, (), None)
        work = operators.StencilWork(SPLIT_GRID)
        assert len(work.slabs) == 2
        X = SPLIT_GRID.points()
        bad_nodes = np.flatnonzero(SPLIT_GRID.boundary_mask().ravel()
                                   & (X[:, 0] > 0.9))
        assert bad_nodes.min() >= work.slabs[1].cover.start
        messages = []
        for split_nodes in (operators.SPLIT_NODES, 10**9):
            monkeypatch.setattr(operators, "SPLIT_NODES", split_nodes)
            with pytest.raises(InstabilityError) as info:
                solver._run_stage(*args)
            messages.append(str(info.value))
        assert messages == [message, message]
        assert len(workers) == 1 and workers.reaped()


class TestSlabWorker:
    """The worker process of a two-slab stage ends with it, however the
    stage ends."""

    def test_worker_death_mid_stage_raises(self, monkeypatch, workers):
        # the monitor kills the slab worker at the first snapshot; the
        # next step's hand-off must raise, not wait for ever
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        grid, params, bd, _, _, mask = stage_case("split")

        def kill(u):
            os.kill(workers[-1], signal.SIGKILL)
            time.sleep(0.05)

        with pytest.raises(ChildProcessError,
                           match="stencil worker .* ended during a step"):
            solver._run_stage(grid, params, bd, 2e-4, (1e-4,), mask, kill)
        assert len(workers) == 1 and workers.reaped()

    def test_killed_parent_leaves_no_worker(self):
        # a parent killed mid-stage: its worker reads the end of the
        # command pipe and exits within a second
        script = textwrap.dedent("""\
            import sys
            from ipme import operators, solver
            from ipme.core import BoundaryData, GridSpec, Params
            operators._cores = lambda: 2
            enter = operators.StencilWork.__enter__
            def report(self):
                out = enter(self)
                print(self._worker[0], flush=True)
                return out
            operators.StencilWork.__enter__ = report
            grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (203, 203))
            bd = BoundaryData.from_functions(
                u0=lambda X: 0.05 + 0.0 * X[:, 0],
                g=lambda X, t: 0.05 + 0.0 * X[:, 0], time_dependent=False)
            solver._run_stage(grid, Params(m=2.0, eps=1e-2, delta=1e-2),
                              bd, 1e3, (), None)
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            pid = int(proc.stdout.readline())
            time.sleep(0.3)  # well into the stage
            assert _alive(pid)
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        deadline = time.monotonic() + 1.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(pid)
