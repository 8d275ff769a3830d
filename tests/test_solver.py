"""Time-stepping battery: CFL policing, lateral-data handling, the
continuation and ladder drivers, truncation monitoring, and barriers."""

import threading

import numpy as np
import pytest

from ipme.core import (BoundaryData, CflError, DomainError, GridSpec,
                       InstabilityError, OrderingError, Params,
                       RegularizationSchedule, ScalarField, TruncationError)
from ipme import operators, solver
from ipme.solver import (CauchyProblem, DirichletProblem, ball_mask,
                         barrier_check, cauchy_initial, cfl_dt, solve_cauchy,
                         solve_dirichlet, solve_maximal, step_explicit)

GRID = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (17, 17))
PARAMS = Params(m=2.0, eps=1e-2, delta=1e-2)


def bump_boundary(height=0.5, radius=0.6, base=0.0):
    """Quartic bump over a constant pedestal, constant lateral data."""
    def u0(X):
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        return base + height * np.maximum(1.0 - (r2 / radius**2) ** 2, 0.0)
    return BoundaryData.from_functions(
        u0=u0, g=lambda X, t: np.full(len(X), base), time_dependent=False)


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
        u = ScalarField(grid=GRID, values=np.zeros(GRID.shape), t=0.0,
                        quantity="u")
        h = min(GRID.h)
        want = solver.SAFETY * h * h / (2.0 * PARAMS.eps * GRID.dim)
        assert cfl_dt(u, PARAMS) == pytest.approx(want, rel=1e-12)

    def test_bound_shrinks_with_field_amplitude(self):
        X = GRID.points()
        bump = 0.5 * np.maximum(
            1.0 - ((X[:, 0] ** 2 + X[:, 1] ** 2) / 0.36) ** 2, 0.0)
        lo = ScalarField(grid=GRID, values=bump.reshape(GRID.shape),
                         t=0.0, quantity="u")
        hi = ScalarField(grid=GRID, values=4.0 * lo.values, t=0.0,
                         quantity="u")
        assert cfl_dt(hi, PARAMS) < cfl_dt(lo, PARAMS)


class TestStepExplicit:

    def test_constant_interior_is_a_fixed_point(self):
        u = ScalarField(grid=GRID, values=np.full(GRID.shape, 0.7), t=0.0,
                        quantity="u")
        dt = cfl_dt(u, PARAMS)
        bd = BoundaryData.constant(0.7)
        stepped = step_explicit(u, dt, PARAMS, bd)
        assert np.all(stepped.values == 0.7)
        assert stepped.t == dt

    def test_boundary_nodes_stamped_at_new_time(self):
        u = ScalarField(grid=GRID, values=np.full(GRID.shape, 0.7), t=0.0,
                        quantity="u")
        dt = cfl_dt(u, PARAMS)
        bd = BoundaryData.from_functions(
            u0=lambda X: np.full(len(X), 0.7),
            g=lambda X, t: np.full(len(X), 0.7 + 0.1 * t))
        stepped = step_explicit(u, dt, PARAMS, bd)
        bmask = GRID.boundary_mask()
        assert np.allclose(stepped.values[bmask], 0.7 + 0.1 * dt)
        assert np.all(stepped.values[~bmask] == 0.7)

    def test_matches_one_driver_step_bit_for_bit(self):
        # step_explicit and the stage loop share one update, so a run of
        # exactly one CFL step reproduces it to the last bit
        bd = bump_boundary(base=0.05)
        X = GRID.points()
        u = ScalarField(grid=GRID, values=bd.initial(X).reshape(GRID.shape),
                        t=0.0, quantity="u")
        dt = cfl_dt(u, PARAMS)
        rep = solve_dirichlet(DirichletProblem(GRID, PARAMS, bd, t_end=dt))
        assert rep.n_steps == 1
        assert np.array_equal(step_explicit(u, dt, PARAMS, bd).values,
                              rep.final.values)

    def test_input_field_is_left_unchanged(self):
        bd = bump_boundary(base=0.05)
        u = ScalarField(grid=GRID, values=bd.initial(GRID.points()).reshape(
            GRID.shape), t=0.0, quantity="u")
        keep = u.values.copy()
        stepped = step_explicit(u, cfl_dt(u, PARAMS), PARAMS, bd)
        assert np.array_equal(u.values, keep)
        assert not np.shares_memory(stepped.values, u.values)

    def test_overlarge_step_raises(self):
        X = GRID.points()
        bump = 0.5 * np.maximum(
            1.0 - ((X[:, 0] ** 2 + X[:, 1] ** 2) / 0.36) ** 2, 0.0)
        u = ScalarField(grid=GRID, values=bump.reshape(GRID.shape), t=0.0,
                        quantity="u")
        with pytest.raises(CflError, match="stability bound"):
            step_explicit(u, 10.0 * cfl_dt(u, PARAMS), PARAMS,
                          BoundaryData.constant(0.0))


class TestSolveDirichlet:

    def test_split_kernel_threads_end_with_the_stage(self, monkeypatch):
        # a grid above the split threshold: the stencil workspace's helper
        # thread is joined when each stage ends, and the split run equals
        # step_explicit's steps, which run both slabs on this thread, bit
        # for bit
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (233, 233))
        assert (grid.n[0] - 2) ** 2 >= operators.SPLIT_NODES
        bd = bump_boundary(base=0.05)
        before = threading.active_count()
        rep = solve_dirichlet(DirichletProblem(
            grid, PARAMS, bd, t_end=2e-4, snapshot_times=(1e-4,)))
        assert threading.active_count() == before
        assert rep.n_steps >= 2
        u = ScalarField(grid=grid, values=bd.initial(grid.points()).reshape(
            grid.shape), t=0.0, quantity="u")
        for dt in rep.dt_history:
            u = step_explicit(u, dt, PARAMS, bd)
        assert np.array_equal(u.values, rep.final.values)

    def test_constant_data_preserved_exactly(self):
        prob = DirichletProblem(GRID, PARAMS, BoundaryData.constant(0.7),
                                t_end=0.05, snapshot_times=(0.025, 0.05))
        rep = solve_dirichlet(prob)
        assert np.all(rep.final.values == 0.7)
        assert np.all(rep.max_trace == 0.7) and np.all(rep.min_trace == 0.7)
        assert rep.global_min == 0.7
        assert rep.n_steps >= 1

    def test_snapshots_land_exactly_on_requested_times(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05,
                                snapshot_times=(0.013, 0.027, 0.05))
        rep = solve_dirichlet(prob)
        assert np.array_equal(rep.times, [0.013, 0.027, 0.05])
        assert [s.t for s in rep.snapshots] == [0.013, 0.027, 0.05]
        assert rep.final.t == 0.05
        assert rep.n_steps == len(rep.dt_history)
        assert rep.dt_history.sum() == pytest.approx(0.05, rel=1e-12)

    def test_bump_obeys_discrete_extremum_bounds(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.1,
                                snapshot_times=(0.05, 0.1))
        rep = solve_dirichlet(prob)
        assert float(np.max(rep.max_trace)) <= 0.5 + 1e-6
        assert rep.global_min >= 0.0
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
        assert rep.manifest.data["masked"] is True

    def test_stage_differences_recorded_per_pair(self):
        sched = RegularizationSchedule(eps_list=(1e-1, 1e-2, 1e-3),
                                       delta_list=(1e-2,))
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05)
        rep = solve_dirichlet(prob, schedule=sched)
        assert len(rep.stage_diffs) == len(sched.pairs()) - 1
        assert all(d > 0.0 for d in rep.stage_diffs)
        assert rep.warnings == []

    def test_growing_stage_differences_warn(self):
        # the middle stage barely moves eps, the last one jumps, so the
        # stage differences cannot decrease and the driver must say so
        sched = RegularizationSchedule(eps_list=(1e-1, 9.9e-2, 1e-3),
                                       delta_list=(1e-2,))
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05)
        rep = solve_dirichlet(prob, schedule=sched)
        assert any("continuation-failure" in w for w in rep.warnings)
        assert rep.manifest.data["warnings"] == rep.warnings

    def test_manifest_records_the_run(self):
        prob = DirichletProblem(GRID, PARAMS, bump_boundary(), t_end=0.05)
        data = solve_dirichlet(prob).manifest.data
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
        assert rep.ladder_floor == 0.25
        assert len(rep.ladder_diffs) == 2
        # rungs approach a limit from above: gaps shrink with the floor
        assert rep.ladder_diffs[1] < rep.ladder_diffs[0]
        assert max(rep.monotonicity.values()) <= solver.MONO_TOL
        assert rep.manifest.data["problem"] == "maximal"
        assert rep.manifest.data["n_list"] == [1, 2, 4]

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


class TestSolveCauchy:

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
        assert rep.ladder_floor == 1.0 / 256.0
        assert len(rep.ladder_diffs) == 1
        assert max(rep.monotonicity.values()) <= solver.MONO_TOL
        # lateral value plus floor bounds the whole evolution
        assert float(np.max(rep.max_trace)) <= 0.05 + rep.ladder_floor + 1e-6
        assert rep.manifest.data["problem"] == "cauchy"
        assert rep.manifest.data["M"] == 0.05
        assert rep.manifest.data["truncation_radius"] == 0.3
        assert barrier_check(rep, "cauchy-V", prob)

    def test_manifest_records_ladder_diffs_and_ordering(self):
        rep = solve_cauchy(self.roomy_problem(), n_list=(128, 256))
        data = rep.manifest.data
        assert data["ladder_diffs"] == list(rep.ladder_diffs)
        assert len(data["ladder_diffs"]) == 1
        assert data["monotonicity"] == rep.monotonicity
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
