import os
import subprocess
import sys

import numpy as np
import pytest

from ipme.core import (ConfigError, GridSpec, DomainError,
                       density_from_pressure)
from ipme import exact


class TestSpec:
    def test_defaults_fill_the_row(self):
        spec = exact.spec("traveling-wave", 2.0)
        assert (spec.speed, spec.offset) == (1.0, 0.0)
        spec = exact.spec("neg-lambda-neg", 2.0, C=2.5, t0=2.0)
        assert (spec.a, spec.C, spec.t0) == (-1.0, 2.5, 2.0)

    def test_fields_carry_the_config_names(self):
        # the annulus keeps its inner radius in R1, the wave its offset
        # in offset: no field holds two families' meanings
        spec = exact.spec("separable-annulus", 2.0, R1=0.5)
        assert (spec.R1, spec.R, spec.a) == (0.5, 0.0, 1.0)
        spec = exact.spec("traveling-wave", 2, speed=3, offset=1)
        assert (spec.speed, spec.offset, spec.C) == (3.0, 1.0, 0.0)
        assert type(spec.speed) is float

    def test_ball_derives_R_from_a_or_a_from_R(self):
        by_a = exact.spec("separable-ball", 2.0)
        assert by_a.a == 1.0
        assert by_a.R == exact.ball_radius_from_a(1.0, 0.5)
        by_R = exact.spec("separable-ball", 2.0, R=0.5)
        assert by_R.a == exact.ball_a_from_radius(0.5, 0.5)
        with pytest.raises(ConfigError, match="R or a, not both"):
            exact.spec("separable-ball", 2.0, R=0.5, a=7.0)

    @pytest.mark.parametrize("family,keys,word", [
        ("barenblatt", {"C": 3.0}, "'C'"),
        ("traveling-wave", {"x0": (0.0, 0.0)}, "'x0'"),
        ("separable-annulus", {}, "needs the key 'R1'"),
        ("neg-lambda-zero", {"R": 0.3}, "needs the key 't0'"),
        ("wavelet", {}, "unknown exact family 'wavelet'")])
    def test_keys_outside_the_row_are_config_errors(self, family, keys,
                                                     word):
        with pytest.raises(ConfigError, match=word):
            exact.spec(family, 2.0, **keys)


class TestBarenblatt:
    def test_origin_pressure_value(self):
        # u(0, 1) = R^2 / (2 (m+1) t) with m = 2, R = 1
        spec = exact.spec("barenblatt", 2.0, R=1.0)
        val = float(exact.evaluate_u(spec, np.zeros((1, 2)), 1.0)[0])
        assert val == pytest.approx(1.0 / 6.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_front_position_scales(self, m):
        spec = exact.spec("barenblatt", m, R=1.0)
        b = 1.0 / (m + 1.0)
        for t in (1.0, 4.0):
            r_front = t**b
            x_in = np.array([[0.999 * r_front, 0.0]])
            x_out = np.array([[1.001 * r_front, 0.0]])
            assert exact.evaluate_u(spec, x_in, t)[0] > 0.0
            assert exact.evaluate_u(spec, x_out, t)[0] == 0.0

    def test_density_consistent_with_pressure(self):
        spec = exact.spec("barenblatt", 2.5, R=1.2, x0=(0.3, -0.1))
        X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, 2))
        u = exact.evaluate_u(spec, X, 2.0)
        rho = exact.evaluate_rho(spec, X, 2.0)
        np.testing.assert_allclose(rho, density_from_pressure(u, 2.5),
                                   rtol=1e-12, atol=1e-15)

    def test_residual_second_order(self):
        spec = exact.spec("barenblatt", 2.0, R=1.0)
        res = []
        for n in (49, 97):
            g = GridSpec.box((-1.5, -1.5), (1.5, 1.5), (n, n))
            r, cnt = exact.pde_residual(spec, g, 1.0)
            assert cnt > 0
            res.append(r)
        assert res[0] / res[1] > 3.0


class TestTravelingWave:
    def test_machine_precision_residual(self):
        spec = exact.spec("traveling-wave", 2.0, speed=1.0, offset=0.3)
        g = GridSpec.box((0.0, 0.0), (1.0, 1.0), (33, 33))
        r, cnt = exact.pde_residual(spec, g, 0.25)
        assert cnt > 0
        assert r < 1e-12

    def test_profile_is_linear_behind_front(self):
        c, a = 0.7, 0.2
        spec = exact.spec("traveling-wave", 2.0, speed=c, offset=a)
        t = 0.5
        x = np.array([[0.1, 0.4], [0.3, 0.9]])
        want = c * np.maximum(a + c * t - x[:, 0], 0.0)
        np.testing.assert_allclose(exact.evaluate_u(spec, x, t), want, atol=1e-14)


class TestSeparableBall:
    def test_pressure_decays_like_inverse_time(self):
        spec = exact.spec("separable-ball", 2.0, a=1.0)
        X = np.random.default_rng(1).uniform(-0.5, 0.5, size=(20, 2))
        u1 = exact.evaluate_u(spec, X, 1.0)
        u2 = exact.evaluate_u(spec, X, 2.0)
        np.testing.assert_allclose(2.0 * u2, u1, rtol=1e-12)

    def test_radius_from_a_matches_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        # independent oracle: in the table variable the first integral is
        # g'(z)^2 = a - g^(p+1), and radius relates to that variable by
        # r = z * sqrt((p+1)/2), so R = sqrt((p+1)/2) * int dg / sqrt(...)
        for m in (1.5, 2.0, 3.0):
            p = 1.0 / m
            g_max = 1.0
            val, err = quad(lambda g: 1.0 / np.sqrt(max(1.0 - g**(p + 1.0), 0.0)),
                            0.0, g_max, epsabs=1e-13, epsrel=1e-12,
                            points=[g_max], limit=200)
            want = np.sqrt((p + 1.0) / 2.0) * val
            got = exact.ball_radius_from_a(1.0, p)
            assert got == pytest.approx(want, abs=5e-9), m

    def test_a_radius_inverse_pair(self):
        for m in (1.5, 2.0, 3.0):
            p = 1.0 / m
            a = exact.ball_a_from_radius(1.2, p)
            assert exact.ball_radius_from_a(a, p) == pytest.approx(1.2, abs=1e-9)

    def test_residual_small_on_interior_cap(self):
        spec = exact.spec("separable-ball", 2.0, a=1.0)
        g = GridSpec.box((-0.5, -0.5), (0.5, 0.5), (65, 65))
        r, cnt = exact.pde_residual(spec, g, 1.0)
        assert cnt > 0
        assert r < 2e-4


def test_residual_reproduces_pinned_c01_values():
    # three C01 residuals, pinned bit for bit: the residual's stencil is
    # the solver's kernel, which keeps one fixed order of operations
    cases = (
        (exact.spec("barenblatt", 2.0, R=1.0), (-1.5, -1.5), (1.5, 1.5), 193,
         (3.1610903217238473e-07, 12240)),
        (exact.spec("separable-ball", 3.0, a=1.0), (-0.5, -0.5), (0.5, 0.5),
         33, (0.0001258811270130611, 960)),
        (exact.spec("separable-annulus", 2.0, a=1.0, R1=0.5), (0.62, -0.15),
         (0.92, 0.15), 65, (0.0009647019143761426, 3969)),
    )
    for spec, lo, hi, n, want in cases:
        assert exact.pde_residual(spec, GridSpec.box(lo, hi, (n, n)),
                                  1.0) == want


class TestSeparableAnnulus:
    def test_rejects_points_outside_annulus(self):
        spec = exact.spec("separable-annulus", 2.0, a=1.0, R1=0.5, t0=0.0)
        with pytest.raises(DomainError):
            exact.evaluate_u(spec, np.array([[0.1, 0.0]]), 1.0)

    def test_vanishes_at_inner_edge(self):
        spec = exact.spec("separable-annulus", 2.0, a=1.0, R1=0.5, t0=0.0)
        u = exact.evaluate_u(spec, np.array([[0.5, 0.0]]), 1.0)
        assert u[0] == pytest.approx(0.0, abs=1e-12)


class TestNegativeRateFamilies:
    def test_all_three_signs_have_small_residual(self):
        boxes = {
            "pos": (exact.spec("neg-lambda-pos", 2.0, a=1.0, R=0.3, t0=2.0),
                    (0.4, 0.4), (1.2, 1.2)),
            "zero": (exact.spec("neg-lambda-zero", 2.0, R=0.3, t0=2.0),
                     (0.4, 0.4), (1.2, 1.2)),
            "neg": (exact.spec("neg-lambda-neg", 2.0, a=-1.0, C=2.5, t0=2.0),
                    (1.1, 1.1), (1.7, 1.7)),
        }
        for name, (spec, lo, hi) in boxes.items():
            g = GridSpec.box(lo, hi, (65, 65))
            r, cnt = exact.pde_residual(spec, g, 1.0)
            assert cnt > 0, name
            assert r < 0.05, (name, r)


class TestProfileTables:
    def test_endpoint_matches_gamma_formula(self):
        for a, p in ((1.0, 0.5), (2.0, 1.0 / 3.0), (0.7, 2.0 / 3.0)):
            tab = exact.build_H_profile(a, p)
            assert abs(tab.y_max - exact.endpoint_A(a, p)) < 1e-9

    @pytest.mark.parametrize(
        "R", [0.3, 0.4, 0.45, 0.5, 0.55, 0.75, 0.8, 0.95, 1.5])
    def test_ball_tables_meet_the_gamma_endpoint(self, R):
        # the integrand is formed without cancellation near the singular
        # end, so the tabulated endpoint agrees to rounding for any radius
        a = exact.ball_a_from_radius(R, 0.5)
        tab = exact.build_H_profile(a, 0.5)
        A = exact.endpoint_A(a, 0.5)
        assert abs(tab.y_max - A) <= 1e-13 * A

    def test_inverse_roundtrips(self):
        for build, args in ((exact.build_H_profile, (1.0, 0.5)),
                            (exact.build_I_profile, (1.0, 0.5, 2.0)),
                            (exact.build_K_profile, (-1.0, 0.5, 2.0))):
            tab = build(*args)
            z = np.linspace(tab.domain[0], tab.domain[1], 257)[1:-1]
            back = tab.invert(tab.forward(z))
            assert np.max(np.abs(back - z)) < 1e-9

    def test_forward_inverts_invert_to_rounding(self):
        # forward is the same local Gauss rule the Newton polish of invert
        # converges against, so the round trip closes far below TABLE_TOL
        for build, args in ((exact.build_H_profile, (1.0, 0.5)),
                            (exact.build_H_profile, (0.3, 1.0 / 3.0)),
                            (exact.build_I_profile, (1.0, 0.5, 2.0)),
                            (exact.build_K_profile, (-1.0, 2.0 / 3.0, 2.0))):
            tab = build(*args)
            y = np.linspace(0.0, tab.y_max, 1001)
            assert np.max(np.abs(tab.forward(tab.invert(y)) - y)) <= 1e-12

    @pytest.mark.parametrize("kind,a,p,z_max", [
        ("H", 1.0, 0.5, None), ("H", 0.3, 1.0 / 3.0, None),
        ("I", 1.0, 0.5, 2.0), ("I", 2.0, 2.0 / 3.0, 5.0)])
    def test_graded_weak_interval_matches_adaptive_quadrature(
            self, kind, a, p, z_max):
        # scipy's adaptive quad is an independent oracle for the one C^1
        # interval of each table
        quad = pytest.importorskip("scipy.integrate").quad
        tab = exact.ProfileTable(kind, a, p, z_max=z_max)
        j = len(tab.sigma) - 2 if kind == "H" else 0
        lo, hi = tab.sigma[j], tab.sigma[j + 1]
        want = quad(lambda s: float(tab._f(np.array([s]))[0]), lo, hi,
                    epsabs=1e-15, epsrel=1e-14, limit=200)[0]
        assert abs(tab._graded(lo, hi, weak_hi=kind == "H") - want) <= 1e-13
        assert tab.T[j + 1] - tab.T[j] == pytest.approx(want, abs=1e-15)

    def test_ode_residual_vanishes_under_refinement(self):
        for kind, a, zmax in (("H", 1.0, None), ("I", 1.0, 2.0), ("K", -1.0, 2.0)):
            res = [exact.ode_residual(
                exact.ProfileTable(kind, a, 0.5, n=n, z_max=zmax), n_samples=ns)
                for n, ns in ((2048, 100), (4096, 200), (8192, 400))]
            assert res[0] > res[1] > res[2], (kind, res)
            assert res[2] < 2e-5, (kind, res)

    def test_table_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            exact.ProfileTable("H", -1.0, 0.5)
        with pytest.raises(DomainError):
            exact.ProfileTable("K", 1.0, 0.5, z_max=2.0)
        with pytest.raises(DomainError):
            exact.ProfileTable("H", 1.0, 1.5)
        with pytest.raises(DomainError):
            exact.ProfileTable("H", 1.0, 0.5, n=512)


class TestSampling:
    def test_sample_field_shape_and_quantity(self):
        spec = exact.spec("barenblatt", 2.0, R=1.0)
        g = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (17, 17))
        f_u = exact.sample_field(spec, g, 1.0, quantity="u")
        f_rho = exact.sample_field(spec, g, 1.0, quantity="rho")
        assert f_u.values.shape == (17, 17)
        assert f_u.quantity == "u" and f_rho.quantity == "rho"
        assert f_u.t == 1.0
        np.testing.assert_allclose(
            f_rho.values, density_from_pressure(f_u.values, 2.0), atol=1e-14)

    @pytest.mark.parametrize("x0", [(0.25,), (0.25, 0.0, 0.0)])
    def test_center_needs_one_coordinate_per_axis(self, x0):
        # a one-entry center would otherwise broadcast over both axes
        spec = exact.spec("barenblatt", 2.0, R=1.0, x0=x0)
        g = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (9, 9))
        with pytest.raises(DomainError, match="center must have 2"):
            exact.sample_field(spec, g, 1.0)

    def test_residual_mask_excludes_critical_point(self):
        # the node at the bump apex has an exactly vanishing centered
        # gradient; the unregularized quotient is undefined there and the
        # residual mask must skip it
        spec = exact.spec("barenblatt", 2.0, R=1.0)
        g = GridSpec.box((-1.5, -1.5), (1.5, 1.5), (49, 49))
        _, cnt = exact.pde_residual(spec, g, 1.0, threshold_frac=0.0)
        wet = int(np.sum(exact.sample_field(spec, g, 1.0).values[g.interior()] > 0))
        assert 0 < cnt < wet


def test_wet_mask_is_the_positive_3x3_minimum():
    # the shifted-view AND equals a zero-padded 3^d minimum filter > 0
    # on interior nodes, in 2-d and 3-d
    minimum_filter = pytest.importorskip("scipy.ndimage").minimum_filter
    rng = np.random.default_rng(7)
    for shape in ((17, 23), (9, 11, 13), (3, 3), (40, 40)):
        u = rng.uniform(-0.2, 1.0, size=shape)
        u[rng.uniform(size=shape) < 0.1] = 0.0
        want = minimum_filter(u, size=3, mode="constant",
                              cval=0.0)[(slice(1, -1),) * len(shape)] > 0.0
        np.testing.assert_array_equal(exact._wet_interior(u), want)


def _run_python(code: str, block_scipy: bool) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter, optionally one in which
    `import scipy` fails."""
    import ipme
    src = os.path.dirname(os.path.dirname(os.path.abspath(ipme.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    if block_scipy:
        code = "import sys; sys.modules['scipy'] = None; " + code
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_import_leaves_scipy_unloaded():
    # no module of the package imports scipy, not even to build a table
    out = _run_python(
        "import sys, ipme.cli, ipme.asymptotics, ipme.verify; "
        "from ipme import exact; exact.build_H_profile(1.0, 0.5); "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))", block_scipy=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_exact_ball_and_verify_run_without_scipy(tmp_path):
    cfg = tmp_path / "ball.yaml"
    cfg.write_text(
        "output: %s\n"
        "exact: {family: separable-ball, m: 2.0, R: 0.5, t: 1.0}\n"
        "grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [33, 33]}\n"
        % (tmp_path / "out"))
    out = _run_python(
        "from ipme import cli; "
        "sys.exit(cli.main(['exact', %r]) or cli.main(['verify']))" % str(cfg),
        block_scipy=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert (tmp_path / "out" / "u_0000.snap").exists()
    assert "21/21 cases passed" in out.stdout
