from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipme.core import (CflError, GridSpec, DomainError, InstabilityError,
                       ScalarField, density_from_pressure)
from ipme import exact
from ipme.pme1d import (Pme1dResult, RadialProblem, pme1d_solve, pme1d_step,
                        cfl_dt_1d)


def line_grid(n=257, L=1.0):
    return GridSpec.box((-L,), (L,), (n,))


def parabola_bump(x, height, radius, center=0.0):
    return height * np.maximum(1.0 - ((x - center) / radius) ** 2, 0.0)


class TestValidation:
    def test_rejects_negative_density(self):
        g = line_grid(17)
        with pytest.raises(DomainError, match="nonnegative"):
            RadialProblem(m=2.0, grid=g, initial=np.full(17, -1.0))

    def test_rejects_two_d_grid(self):
        g = GridSpec.box((0.0, 0.0), (1.0, 1.0), (5, 5))
        with pytest.raises(DomainError, match="1-d grid"):
            RadialProblem(m=2.0, grid=g, initial=np.zeros(25))

    def test_rejects_unknown_boundary(self):
        g = line_grid(17)
        with pytest.raises(DomainError, match="boundary kind"):
            RadialProblem(m=2.0, grid=g, initial=np.zeros(17), boundary="robin")

    @pytest.mark.parametrize("edge", ["left", "right"])
    @pytest.mark.parametrize("value", [-0.1, np.nan, np.inf])
    def test_rejects_bad_constant_edge_at_construction(self, edge, value):
        # such an edge was clipped on every step and failed only at the end
        with pytest.raises(DomainError, match=f"{edge} edge value"):
            RadialProblem(m=2.0, grid=line_grid(17), initial=np.zeros(17),
                          boundary="dirichlet", **{edge: value})

    def test_callable_edge_is_checked_per_step(self):
        # a callable edge is only known step by step, and is vetted there
        prob = RadialProblem(m=2.0, grid=line_grid(17), initial=np.zeros(17),
                             boundary="dirichlet",
                             left=lambda t: np.nan if t > 0.0 else 0.0)
        with pytest.raises(InstabilityError, match="non-finite"):
            pme1d_solve(prob, t_end=0.01)

    def test_clipping_without_initial_mass_fails(self):
        # zero data and a negative callable edge: every step clips, and
        # with no positive mass there is no budget to clip from
        prob = RadialProblem(m=2.0, grid=line_grid(17), initial=np.zeros(17),
                             boundary="dirichlet", left=lambda t: -0.1)
        with pytest.raises(InstabilityError, match="clipped mass"):
            pme1d_solve(prob, t_end=0.01)

    def test_rejects_bad_time_window(self):
        g = line_grid(17)
        prob = RadialProblem(m=2.0, grid=g, initial=np.zeros(17),
                             boundary="dirichlet", left=0.0, right=0.0)
        with pytest.raises(DomainError, match="t_end"):
            pme1d_solve(prob, t_end=0.0)
        with pytest.raises(DomainError, match="snapshot"):
            pme1d_solve(prob, t_end=1.0, snapshot_times=(2.0,))

    @pytest.mark.parametrize("kwargs,match", [
        (dict(t_end=np.inf), "t_end"),
        (dict(t_end=np.nan), "t_end"),
        (dict(t_end=0.05, snapshot_times=(np.nan,)), "snapshot"),
    ])
    def test_rejects_bad_solve_arguments_before_stepping(self, kwargs, match):
        # each once returned nonsense, hung, or failed only mid-run
        calls = []
        g = GridSpec.box((0.0,), (1.0,), (33,))
        prob = RadialProblem(m=2.0, grid=g,
                             initial=parabola_bump(g.axes()[0], 0.5, 0.4),
                             right=lambda t: calls.append(t) or 0.0)
        with pytest.raises(DomainError, match=match):
            pme1d_solve(prob, **kwargs)
        assert calls == []


class TestCfl:
    def test_scales_with_h_squared_and_diffusivity(self):
        rho = np.array([0.0, 1.0, 0.5])
        dt1 = cfl_dt_1d(rho, 0.1, 2.0)
        assert dt1 == pytest.approx(0.4 * 0.01 / (2.0 * 2.0))
        assert cfl_dt_1d(rho, 0.2, 2.0) == pytest.approx(4.0 * dt1)
        assert cfl_dt_1d(np.zeros(3), 0.1, 2.0) == np.inf


class TestConservation:
    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_mass_conserved_while_support_is_interior(self, m):
        g = line_grid(513, L=1.0)
        x = g.axes()[0]
        prob = RadialProblem(m=m, grid=g,
                             initial=parabola_bump(x, 0.5, 0.3),
                             boundary="dirichlet", left=0.0, right=0.0)
        res = pme1d_solve(prob, t_end=0.05)
        assert abs(res.mass_drift) < 1e-12

    def test_symmetry_boundary_conserves_half_line_mass(self):
        g = GridSpec.box((0.0,), (1.0,), (513,))
        x = g.axes()[0]
        prob = RadialProblem(m=2.0, grid=g,
                             initial=parabola_bump(x, 0.5, 0.4),
                             boundary="symmetry-at-0", right=0.0)
        res = pme1d_solve(prob, t_end=0.05)
        assert abs(res.mass_drift) < 1e-12


class TestSelfSimilarReproduction:
    @pytest.mark.parametrize("m", [2.0, 3.0])
    def test_source_solution_evolves_onto_itself(self, m):
        spec = exact.spec("barenblatt", m, R=0.8)
        g = line_grid(513, L=1.5)
        x = g.axes()[0].reshape(-1, 1)
        rho0 = exact.evaluate_rho(spec, x, 1.0)
        prob = RadialProblem(m=m, grid=g, initial=rho0,
                             boundary="dirichlet", left=0.0, right=0.0)
        # the equation is autonomous: one unit of time from rho(., 1)
        res = pme1d_solve(prob, t_end=1.0)
        want = exact.evaluate_rho(spec, x, 2.0)
        got = res.snapshots[-1].values
        # error concentrates at the front kink, steeper for larger m
        assert np.max(np.abs(got - want)) < 1.5e-2 * np.max(want)

    def test_snapshots_land_on_requested_times(self):
        g = line_grid(129)
        x = g.axes()[0]
        prob = RadialProblem(m=2.0, grid=g,
                             initial=parabola_bump(x, 0.3, 0.4),
                             boundary="dirichlet", left=0.0, right=0.0)
        res = pme1d_solve(prob, t_end=0.04, snapshot_times=(0.01, 0.03))
        np.testing.assert_allclose(res.times, [0.01, 0.03, 0.04], atol=1e-14)
        assert [s.t for s in res.snapshots] == list(res.times)


class TestComparison:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_ordered_data_stay_ordered(self, seed):
        rng = np.random.default_rng(seed)
        g = line_grid(65)
        x = g.axes()[0]
        lo = parabola_bump(x, rng.uniform(0.1, 0.4), rng.uniform(0.2, 0.5),
                           rng.uniform(-0.3, 0.3))
        hi = lo + parabola_bump(x, rng.uniform(0.05, 0.4),
                                rng.uniform(0.2, 0.5), rng.uniform(-0.3, 0.3))
        sol = {}
        for name, rho0 in (("lo", lo), ("hi", hi)):
            prob = RadialProblem(m=2.0, grid=g, initial=rho0,
                                 boundary="dirichlet", left=0.0, right=0.0)
            sol[name] = pme1d_solve(prob, t_end=0.02,
                                    snapshot_times=(0.01,)).snapshots
        # the two runs take their own adaptive step sequences, so the
        # discrete order can slip by a time-discretization allowance
        allow = 1e-8 + 1e-3 * float(np.max(hi))
        for a, b in zip(sol["lo"], sol["hi"]):
            assert float(np.max(a.values - b.values)) <= allow


class TestInflowBoundary:
    def test_callable_left_boundary_feeds_mass(self):
        g = GridSpec.box((0.0,), (1.0,), (129,))
        prob = RadialProblem(m=2.0, grid=g, initial=np.zeros(129),
                             boundary="dirichlet",
                             left=lambda t: 0.2, right=0.0)
        res = pme1d_solve(prob, t_end=0.1)
        vals = res.snapshots[-1].values
        assert vals[0] == pytest.approx(0.2)
        assert np.max(vals[1:]) > 0.0


# ---------------------------------------------------------------------------
# reference: the step and the loop as they were before the in-place update,
# kept verbatim but for names and a spelled-out snapshot copy (one new
# ScalarField per step) to pin bit identity; they call none of the
# functions under test


def reference_cfl(rho: np.ndarray, h: float, m: float,
                  safety: float = 0.4) -> float:
    diffusivity = m * float(np.max(rho)) ** (m - 1.0)
    if diffusivity <= 0.0:
        return np.inf
    return safety * h * h / (2.0 * diffusivity)


def reference_mass(vals: np.ndarray, h: float) -> float:
    v = vals.ravel()
    return float(0.5 * (v[0] + v[-1]) + np.sum(v[1:-1])) * h


def reference_step(state: ScalarField, dt: float, problem: RadialProblem,
                   clip_account: Optional[list] = None) -> ScalarField:
    h = state.grid.h[0]
    m = problem.m
    rho = state.values.ravel()
    bound = reference_cfl(rho, h, m, safety=1.0)
    if dt > bound * (1.0 + 1e-12):
        raise CflError(f"dt={dt} exceeds the 1-d stability bound {bound}")
    w = rho ** m
    new = rho.copy()
    new[1:-1] += dt / (h * h) * (w[2:] - 2.0 * w[1:-1] + w[:-2])
    t_new = state.t + dt
    if problem.boundary == "symmetry-at-0":
        new[0] = rho[0] + dt / (h * h) * (2.0 * w[1] - 2.0 * w[0])
    else:
        new[0] = problem._edge("left", t_new)
    new[-1] = problem._edge("right", t_new)
    if not np.isfinite(new).all():
        raise InstabilityError("non-finite density during 1-d stepping")
    negative = new < 0.0
    if np.any(negative):
        clipped = -float(np.sum(new[negative])) * h
        if clip_account is not None:
            clip_account.append(clipped)
        new[negative] = 0.0
    return ScalarField(grid=state.grid, values=new, t=t_new, quantity="rho")


def reference_solve(problem: RadialProblem, t_end: float,
                    snapshot_times: Sequence[float] = (),
                    t_start: float = 0.0, safety: float = 0.4) -> Pme1dResult:
    if not (t_end > t_start):
        raise DomainError(f"t_end must exceed t_start, got {t_end}")
    snaps = sorted(set(float(t) for t in snapshot_times) | {float(t_end)})
    if any(t <= t_start or t > t_end for t in snaps):
        raise DomainError("snapshot times must lie in (t_start, t_end]")
    state = ScalarField(grid=problem.grid, values=problem.initial.copy(),
                        t=t_start, quantity="rho")
    if problem.boundary == "dirichlet":
        state.values[0] = problem._edge("left", t_start)
    state.values[-1] = problem._edge("right", t_start)
    h = problem.grid.h[0]
    mass0 = reference_mass(state.values, h)
    clip_account: list = []
    out, out_times = [], []
    n_steps = 0
    dt_min, dt_max = np.inf, 0.0
    for target in snaps:
        while state.t < target - 1e-14 * max(1.0, target):
            dt = min(reference_cfl(state.values.ravel(), h, problem.m, safety),
                     target - state.t)
            if not np.isfinite(dt):
                dt = target - state.t
            state = reference_step(state, dt, problem, clip_account)
            n_steps += 1
            dt_min = min(dt_min, dt)
            dt_max = max(dt_max, dt)
        state.t = target
        out.append(ScalarField(grid=state.grid, values=state.values.copy(),
                               t=state.t, quantity=state.quantity))
        out_times.append(target)
    mass1 = reference_mass(out[-1].values, h)
    clipped = float(np.sum(clip_account))
    if mass0 > 0.0 and clipped > 1e-12 * mass0:
        raise InstabilityError(
            f"clipped mass {clipped} exceeds 1e-12 of the total {mass0}")
    drift = abs(mass1 - mass0) / mass0 if mass0 > 0.0 else abs(mass1)
    return Pme1dResult(snapshots=out, times=np.asarray(out_times),
                       mass_drift=drift, clipped_mass=clipped,
                       n_steps=n_steps,
                       dt_min=float(dt_min) if n_steps else 0.0,
                       dt_max=float(dt_max),
                       manifest={"problem": "pme1d", "m": problem.m,
                                 "boundary": problem.boundary,
                                 "t_start": t_start, "t_end": t_end,
                                 "n_steps": n_steps})


def _half_line_bump(m, n=257, **edges):
    g = GridSpec.box((0.0,), (1.0,), (n,))
    rho0 = density_from_pressure(parabola_bump(g.axes()[0], 0.8, 0.6), m)
    return RadialProblem(m=m, grid=g, initial=rho0, boundary="symmetry-at-0",
                         **edges)


def _line_bump(m, n=129, **edges):
    g = line_grid(n)
    return RadialProblem(m=m, grid=g, boundary="dirichlet",
                         initial=parabola_bump(g.axes()[0], 0.4, 0.5, 0.1),
                         **edges)


# (name, problem factory, solve keywords); the undershoot cases hold a
# slightly negative right edge, so every step goes through the clip
IDENTITY_CASES = [
    ("symmetry-m1.5", lambda: _half_line_bump(1.5, right=0.0),
     dict(t_end=0.05)),
    ("symmetry-m2-two-snapshots", lambda: _half_line_bump(2.0, right=0.0),
     dict(t_end=0.06, snapshot_times=(0.01, 0.03))),
    ("symmetry-m3-callable-right",
     lambda: _half_line_bump(3.0, right=lambda t: 0.01 * t),
     dict(t_end=0.04, snapshot_times=(0.02,))),
    ("dirichlet-m2-constant", lambda: _line_bump(2.0, left=0.0, right=0.05),
     dict(t_end=0.05, snapshot_times=(0.005, 0.02, 0.03))),
    ("dirichlet-m3-callable-inflow",
     lambda: _line_bump(3.0, left=lambda t: 0.2 + t, right=None),
     dict(t_end=0.03, snapshot_times=(0.02,))),
    ("dirichlet-m1.5-step-data", lambda: RadialProblem(
        m=1.5, grid=GridSpec.box((0.0,), (1.0,), (65,)),
        initial=np.where(np.arange(65) < 20, 0.5, 0.0), boundary="dirichlet"),
     dict(t_end=0.02)),
    ("dirichlet-zero-data-inflow", lambda: RadialProblem(
        m=2.0, grid=GridSpec.box((0.0,), (1.0,), (65,)),
        initial=np.zeros(65), boundary="dirichlet",
        left=lambda t: 0.2, right=0.0), dict(t_end=0.02)),
    ("undershoot-within-budget",
     lambda: _half_line_bump(2.0, right=lambda t: -1e-18),
     dict(t_end=0.02, snapshot_times=(0.01,))),
]


def _assert_same_result(got: Pme1dResult, want: Pme1dResult):
    assert len(got.snapshots) == len(want.snapshots)
    for a, b in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a.values, b.values)
        assert a.t == b.t and a.quantity == b.quantity
    assert np.array_equal(got.times, want.times)
    assert got.n_steps == want.n_steps
    assert got.dt_min == want.dt_min and got.dt_max == want.dt_max
    assert got.mass_drift == want.mass_drift
    assert got.clipped_mass == want.clipped_mass
    assert got.manifest == want.manifest


class TestBitIdentity:
    @pytest.mark.parametrize("name,make,kwargs", IDENTITY_CASES,
                             ids=[c[0] for c in IDENTITY_CASES])
    def test_solve_matches_the_reference_loop(self, name, make, kwargs):
        want = reference_solve(make(), **kwargs)
        got = pme1d_solve(make(), **kwargs)
        _assert_same_result(got, want)
        assert want.n_steps > 10
        if name.startswith("undershoot"):
            assert got.clipped_mass > 0.0

    def test_undershoot_beyond_budget_fails_alike(self):
        make = lambda: _half_line_bump(2.0, right=lambda t: -1e-6)
        with pytest.raises(InstabilityError, match="clipped mass") as want:
            reference_solve(make(), t_end=0.01)
        with pytest.raises(InstabilityError, match="clipped mass") as got:
            pme1d_solve(make(), t_end=0.01)
        assert str(got.value) == str(want.value)

    def test_radial_oracle_case(self):
        # the benchmark's radial-oracle line problem at reduced horizon
        make = lambda: _half_line_bump(2.0, n=513, right=0.0)
        _assert_same_result(pme1d_solve(make(), t_end=0.01),
                            reference_solve(make(), t_end=0.01))


class TestEdgeCalls:
    @pytest.mark.parametrize("boundary", ["symmetry-at-0", "dirichlet"])
    def test_callable_edge_is_called_once_per_step(self, boundary):
        # the solve resolves constant edges once, but a callable edge must
        # still be called on every step, at that step's new time
        def make(calls):
            def edge(t):
                calls.append(t)
                return 0.01 * t
            g = GridSpec.box((0.0,), (1.0,), (65,))
            rho0 = density_from_pressure(
                parabola_bump(g.axes()[0], 0.8, 0.6), 2.0)
            edges = dict(right=edge) if boundary == "symmetry-at-0" \
                else dict(left=edge, right=0.0)
            return RadialProblem(m=2.0, grid=g, initial=rho0,
                                 boundary=boundary, **edges)

        want_calls, got_calls = [], []
        want = reference_solve(make(want_calls), t_end=0.02,
                               snapshot_times=(0.01,))
        got = pme1d_solve(make(got_calls), t_end=0.02, snapshot_times=(0.01,))
        _assert_same_result(got, want)
        assert got_calls == want_calls
        assert len(got_calls) == got.n_steps + 1
        assert got_calls[0] == 0.0 and got_calls[-1] == 0.02


class TestStep:
    @pytest.mark.parametrize("name,make,kwargs", IDENTITY_CASES,
                             ids=[c[0] for c in IDENTITY_CASES])
    def test_one_step_equals_one_loop_step(self, name, make, kwargs):
        prob = make()
        start = ScalarField(grid=prob.grid, values=prob.initial.copy(), t=0.0,
                            quantity="rho")
        if prob.boundary == "dirichlet":
            start.values[0] = prob._edge("left", 0.0)
        start.values[-1] = prob._edge("right", 0.0)
        before = start.values.copy()
        # the loop's first dt, so a solve to t_end = dt takes one step
        dt = cfl_dt_1d(start.values, prob.grid.h[0], prob.m)
        loop = pme1d_solve(prob, t_end=dt)
        assert loop.n_steps == 1
        clips, ref_clips = [], []
        got = pme1d_step(start, dt, prob, clips)
        want = reference_step(start, dt, prob, ref_clips)
        assert np.array_equal(start.values, before)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.values, loop.snapshots[-1].values)
        assert got.t == want.t == dt
        assert clips == ref_clips
        assert loop.clipped_mass == float(np.sum(clips))

    def test_dt_above_the_bound_raises(self):
        prob = _half_line_bump(2.0, right=0.0)
        start = ScalarField(grid=prob.grid, values=prob.initial.copy(), t=0.0,
                            quantity="rho")
        bound = cfl_dt_1d(start.values, prob.grid.h[0], 2.0, safety=1.0)
        pme1d_step(start, bound, prob)
        with pytest.raises(CflError, match="stability bound"):
            pme1d_step(start, 1.01 * bound, prob)

    def test_nan_inflow_raises(self):
        prob = _line_bump(2.0, left=lambda t: float("nan"), right=0.0)
        start = ScalarField(grid=prob.grid, values=prob.initial.copy(), t=0.0,
                            quantity="rho")
        with pytest.raises(InstabilityError, match="non-finite"):
            pme1d_step(start, 1e-6, prob)
        with pytest.raises(InstabilityError, match="non-finite"):
            pme1d_solve(_line_bump(2.0, left=lambda t: 0.1 if t == 0.0
                                   else float("nan"), right=0.0), t_end=0.01)


class TestSharedLoop:
    """`pme1d_step` is the solve's loop held to one step of the given dt."""

    @staticmethod
    def _recording(calls):
        def edge(t):
            calls.append(t)
            return 0.0
        return _half_line_bump(2.0, right=edge)

    @pytest.mark.parametrize("t0,dt", [(0.0, 1e-16), (3.0, 2e-14),
                                       (3.0, 0.0)])
    def test_a_step_below_the_landing_tolerance_is_still_taken(self, t0, dt):
        # the solve stops within 1e-14 max(1, t) of a target; a step of
        # such a dt must not be mistaken for having arrived
        assert dt < 1e-14 * max(1.0, t0)
        calls, ref_calls = [], []
        prob = self._recording(calls)
        start = ScalarField(grid=prob.grid, values=prob.initial.copy(),
                            t=t0, quantity="rho")
        got = pme1d_step(start, dt, prob)
        want = reference_step(start, dt, self._recording(ref_calls))
        assert np.array_equal(got.values, want.values)
        assert got.t == want.t == t0 + dt
        assert calls == ref_calls == [t0 + dt]

    def test_above_the_bound_raises_before_the_edge_is_called(self):
        calls = []
        prob = self._recording(calls)
        start = ScalarField(grid=prob.grid, values=prob.initial.copy(),
                            t=0.5, quantity="rho")
        before = start.values.copy()
        bound = cfl_dt_1d(start.values, prob.grid.h[0], 2.0, safety=1.0)
        with pytest.raises(CflError, match="stability bound"):
            pme1d_step(start, 1.01 * bound, prob)
        assert calls == []
        assert np.array_equal(start.values, before)

    def test_radial_oracle_line_problem_step_count(self):
        # the benchmark's seed-0 radial-oracle oracle: 513 nodes of [0, 1],
        # symmetry at 0, to t = 0.15
        res = pme1d_solve(_half_line_bump(2.0, n=513, right=0.0),
                          t_end=0.15, snapshot_times=(0.15,))
        assert res.n_steps == 127_413
