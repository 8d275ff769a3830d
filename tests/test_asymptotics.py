"""Large-time diagnostics checked against closed-form fields, where every
expected number is available exactly."""

import numpy as np
import pytest

from ipme.core import DomainError, FitError, GridSpec, Params, ScalarField
from ipme import exact
from ipme.asymptotics import (barenblatt_convergence, benilan_crandall_check,
                              fit_rate, friendly_giant, trace_rows,
                              track_support)

M = 2.0
PARAMS = Params(m=M, eps=1e-3, delta=1e-5)
GRID = GridSpec.box((-2.0, -2.0), (2.0, 2.0), (65, 65))
BALL = exact.separable_ball(M, R=1.2, t0=0.0, x0=(0.0, 0.0))
BB = exact.barenblatt(M, R=0.5)


def snapshot(spec, grid, t, quantity="u"):
    X = grid.points()
    fn = exact.evaluate_u if quantity == "u" else exact.evaluate_rho
    return ScalarField(grid=grid, values=fn(spec, X, t).reshape(grid.shape),
                       t=t, quantity=quantity)


class TestTrackSupport:

    def test_source_field_front_radius(self):
        snaps = [snapshot(BB, GRID, t) for t in (1.0, 2.0, 4.0)]
        trace = track_support(snaps)
        assert not trace.degenerate
        assert not np.any(trace.empty)
        # front sits at R t^(1/(m+1)); radii are read off a lattice, so
        # allow a two-cell skin
        want = 0.5 * np.array([1.0, 2.0, 4.0]) ** (1.0 / (M + 1.0))
        h = max(GRID.h)
        assert np.all(np.abs(trace.r_outer - want) <= 2.0 * h)
        assert np.all(trace.r_inner <= trace.r_outer)

    def test_all_dry_is_degenerate(self):
        zero = ScalarField(grid=GRID, values=np.zeros(GRID.shape), t=1.0,
                           quantity="u")
        trace = track_support([zero], threshold=1e-6)
        assert trace.degenerate
        assert trace.r_outer[0] == 0.0

    def test_floor_is_removed_before_thresholding(self):
        snaps = [snapshot(BB, GRID, t) for t in (1.0, 2.0)]
        lifted = [ScalarField(grid=GRID, values=s.values + 0.2, t=s.t,
                              quantity="u") for s in snaps]
        plain = track_support(snaps, threshold=1e-4)
        floored = track_support(lifted, threshold=1e-4, floor=0.2)
        assert np.array_equal(plain.r_outer, floored.r_outer)
        assert np.array_equal(plain.r_inner, floored.r_inner)

    def test_r_max_masks_the_far_field(self):
        wet = ScalarField(grid=GRID, values=np.ones(GRID.shape), t=1.0,
                          quantity="u")
        trace = track_support([wet], threshold=1e-3, r_max=0.5)
        assert trace.r_outer[0] <= 0.5

    def test_snapshots_must_share_a_grid(self):
        other = GridSpec.box((-2.0, -2.0), (2.0, 2.0), (33, 33))
        with pytest.raises(DomainError, match="share one grid"):
            track_support([snapshot(BB, GRID, 1.0),
                           snapshot(BB, other, 2.0)])

    def test_needs_a_snapshot(self):
        with pytest.raises(DomainError, match="at least one"):
            track_support([])


class TestFitRate:

    def test_recovers_an_exact_power_law(self):
        t = np.geomspace(0.25, 4.0, 13)
        fit = fit_rate(t, 1.3 * t ** 0.37)
        assert fit.rate == pytest.approx(0.37, abs=1e-12)
        assert fit.amplitude == pytest.approx(1.3, rel=1e-12)
        assert fit.residual < 1e-12
        # earliest 20% dropped as transient: ceil(0.2 * 13) = 3 samples
        assert fit.n_used == 10
        assert fit.window == (pytest.approx(t[3]), 4.0)

    def test_too_few_samples(self):
        t = np.geomspace(1.0, 16.0, 5)
        with pytest.raises(FitError, match="at least 6"):
            fit_rate(t, t)

    def test_short_time_span(self):
        t = np.linspace(1.0, 3.0, 10)
        with pytest.raises(FitError, match="factor"):
            fit_rate(t, t)

    def test_nonpositive_radii(self):
        t = np.geomspace(0.25, 4.0, 13)
        r = t.copy()
        r[7] = 0.0
        with pytest.raises(FitError, match="positive"):
            fit_rate(t, r)

    def test_times_must_increase(self):
        t = np.geomspace(0.25, 4.0, 13)[::-1]
        with pytest.raises(FitError):
            fit_rate(t, np.ones(13))


class TestBenilanCrandall:

    def test_separable_solution_attains_the_bound(self):
        # u = U/t gives u_t + u/t = 0; forward differences overshoot the
        # convex decay, so the discrete worst case is exactly zero
        snaps = [snapshot(BALL, GRID, t) for t in (1.0, 2.0, 4.0, 8.0)]
        assert benilan_crandall_check(snaps) >= 0.0

    def test_needs_two_snapshots(self):
        with pytest.raises(DomainError, match="two snapshots"):
            benilan_crandall_check([snapshot(BALL, GRID, 1.0)])

    def test_times_must_be_positive_increasing(self):
        snaps = [snapshot(BALL, GRID, 2.0), snapshot(BALL, GRID, 1.0)]
        with pytest.raises(DomainError, match="increasing"):
            benilan_crandall_check(snaps)


class TestFriendlyGiant:

    def test_exact_separable_snapshots_have_zero_distance(self):
        snaps = [snapshot(BALL, GRID, t) for t in (1.0, 2.0, 4.0)]
        res = friendly_giant(snaps, PARAMS, ball_radius=1.2)
        assert res.is_ball
        assert np.all(res.errors <= 1e-12)
        assert np.all(res.stabilization_diffs <= 1e-12)
        assert res.profile_max == pytest.approx(
            float(np.max(snaps[0].values)), rel=1e-12)

    def test_without_radius_only_stabilization(self):
        snaps = [snapshot(BALL, GRID, t) for t in (1.0, 2.0, 4.0)]
        res = friendly_giant(snaps, PARAMS)
        assert not res.is_ball
        assert res.errors is None
        assert len(res.stabilization_diffs) == 2

    def test_needs_a_snapshot(self):
        with pytest.raises(DomainError, match="at least one"):
            friendly_giant([], PARAMS)


class TestBarenblattConvergence:

    def test_matched_source_snapshots_have_zero_error(self):
        snaps = [snapshot(BB, GRID, t) for t in (1.0, 2.0, 4.0)]
        times, errs = barenblatt_convergence(snaps, 0.5, PARAMS)
        assert np.array_equal(times, [1.0, 2.0, 4.0])
        assert np.all(errs <= 1e-14)

    def test_density_snapshots_accepted(self):
        snaps = [snapshot(BB, GRID, t, quantity="rho") for t in (1.0, 2.0)]
        _, errs = barenblatt_convergence(snaps, 0.5, PARAMS)
        assert np.all(errs <= 1e-14)

    def test_floor_is_removed(self):
        snaps = [ScalarField(grid=GRID, values=s.values + 0.1, t=s.t,
                             quantity="u")
                 for s in (snapshot(BB, GRID, t) for t in (1.0, 2.0))]
        _, errs = barenblatt_convergence(snaps, 0.5, PARAMS, floor=0.1)
        assert np.all(errs <= 1e-14)

    def test_mismatched_front_scale_shows_up(self):
        snaps = [snapshot(BB, GRID, t) for t in (1.0, 2.0)]
        _, errs = barenblatt_convergence(snaps, 0.7, PARAMS)
        assert np.all(errs > 1e-3)

    def test_rescaled_quantity_rejected(self):
        v = ScalarField(grid=GRID, values=np.zeros(GRID.shape), t=1.0,
                        quantity="v")
        with pytest.raises(DomainError, match="quantity"):
            barenblatt_convergence([v], 0.5, PARAMS)


class TestTraceRows:

    def test_rows_mirror_the_trace(self):
        snaps = [snapshot(BB, GRID, t) for t in (1.0, 2.0)]
        trace = track_support(snaps)
        header, rows = trace_rows(trace)
        assert header == ["t", "r_inner", "r_outer", "empty"]
        assert len(rows) == 2
        assert rows[0][0] == 1.0
        assert rows[1][2] == trace.r_outer[1]

