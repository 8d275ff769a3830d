import numpy as np
import pytest
from hypothesis import given, strategies as st
import hypothesis.extra.numpy as hnp

from ipme.core import (DomainError, RangeError, Params, GridSpec, ScalarField,
                       RegularizationSchedule, run_manifest,
                       pressure_from_density, density_from_pressure)


class TestParams:
    def test_derived_exponents(self):
        p = Params(m=2.0, eps=1e-2, delta=1e-3, c=1e-3)
        assert p.k == 1.0
        assert p.p == 0.5

    @pytest.mark.parametrize("m", [1.0, 0.5, -2.0])
    def test_rejects_m_at_most_one(self, m):
        with pytest.raises(DomainError, match="m must exceed 1"):
            Params(m=m)

    @pytest.mark.parametrize("kw", [{"eps": -1e-9}, {"delta": -1.0}, {"c": -0.1}])
    def test_rejects_negative_regularization(self, kw):
        with pytest.raises(DomainError, match="must be >= 0"):
            Params(m=2.0, **kw)

    @pytest.mark.parametrize("kw", [{"m": np.inf}, {"eps": np.nan},
                                    {"eps": np.inf}, {"delta": np.nan},
                                    {"delta": np.inf}, {"c": np.nan},
                                    {"c": np.inf}])
    def test_rejects_non_finite_values(self, kw):
        with pytest.raises(DomainError, match="finite"):
            Params(**{"m": 2.0, **kw})

    def test_with_replaces_only_named_fields(self):
        p = Params(m=3.0, eps=1e-2, delta=1e-3, c=1e-4)
        q = p.with_(c=0.5)
        assert q.c == 0.5
        assert (q.m, q.eps, q.delta) == (p.m, p.eps, p.delta)


class TestGridSpec:
    def test_box_axes_hit_both_endpoints(self):
        g = GridSpec.box((-1.0, 0.0), (1.0, 2.0), (5, 9))
        ax, ay = g.axes()
        assert ax[0] == -1.0 and ax[-1] == 1.0
        assert ay[0] == 0.0 and ay[-1] == 2.0
        assert g.h == (0.5, 0.25)
        assert g.dim == 2 and g.size == 45 and g.shape == (5, 9)

    def test_box_rejects_degenerate_extent(self):
        with pytest.raises(DomainError, match="hi > lo"):
            GridSpec.box((0.0,), (0.0,), (5,))

    def test_rejects_too_few_nodes(self):
        with pytest.raises(DomainError, match="at least 3 nodes"):
            GridSpec.box((0.0,), (1.0,), (2,))

    def test_box_checks_node_counts_before_dividing(self):
        # one node would make the spacing (hi - lo) / 0
        with pytest.raises(DomainError, match="at least 3 nodes"):
            GridSpec.box((0.0, 0.0), (1.0, 1.0), (9, 1))

    def test_box_lengths_must_agree(self):
        # zip would silently drop the third hi entry and build a 2-d grid
        with pytest.raises(DomainError, match="equal length"):
            GridSpec.box((-1.0, -1.0), (1.0, 1.0, 7.0), (9, 9))

    @pytest.mark.parametrize("lo,hi", [((np.nan,), (1.0,)),
                                       ((0.0,), (np.inf,)),
                                       ((-np.inf,), (1.0,))])
    def test_box_rejects_non_finite_corners(self, lo, hi):
        with pytest.raises(DomainError, match="finite"):
            GridSpec.box(lo, hi, (5,))

    @pytest.mark.parametrize("h,origin", [((np.nan,), (0.0,)),
                                          ((np.inf,), (0.0,)),
                                          ((0.25,), (np.nan,)),
                                          ((0.25,), (-np.inf,))])
    def test_rejects_non_finite_spacing_and_origin(self, h, origin):
        with pytest.raises(DomainError, match="finite"):
            GridSpec(n=(5,), h=h, origin=origin)

    def test_rejects_dim_four(self):
        with pytest.raises(DomainError, match="dimension must be 1..3"):
            GridSpec.box((0.0,) * 4, (1.0,) * 4, (5,) * 4)

    def test_points_row_major_matches_node_point(self):
        g = GridSpec.box((0.0, 0.0), (1.0, 1.0), (3, 4))
        pts = g.points()
        assert pts.shape == (12, 2)
        np.testing.assert_allclose(pts[0], g.node_point((0, 0)))
        np.testing.assert_allclose(pts[1], g.node_point((0, 1)))
        np.testing.assert_allclose(pts[4], g.node_point((1, 0)))

    def test_node_point_range_checked(self):
        g = GridSpec.box((0.0,), (1.0,), (4,))
        with pytest.raises(RangeError):
            g.node_point((4,))
        with pytest.raises(RangeError):
            g.node_point((0, 0))

    def test_radii_about_center(self):
        g = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (5, 5))
        r = g.radii((0.5, 0.5))
        assert r[3, 3] == 0.0
        np.testing.assert_allclose(r[0, 0], np.hypot(1.5, 1.5))

    @pytest.mark.parametrize("center", [(0.0,), (0.0, 0.0, 5.0)])
    def test_radii_center_needs_one_coordinate_per_axis(self, center):
        g = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (5, 5))
        with pytest.raises(DomainError, match="center must have 2"):
            g.radii(center)

    def test_boundary_mask_complements_interior(self):
        g = GridSpec.box((0.0, 0.0), (1.0, 1.0), (4, 5))
        mask = g.boundary_mask()
        inner = np.zeros(g.shape, dtype=bool)
        inner[g.interior()] = True
        assert not np.any(mask & inner)
        assert np.all(mask | inner)


class TestScalarField:
    def test_reshapes_flat_values(self):
        g = GridSpec.box((0.0, 0.0), (1.0, 1.0), (3, 3))
        f = ScalarField(g, np.arange(9.0), t=0.5)
        assert f.values.shape == (3, 3)
        assert f.t == 0.5

    def test_rejects_wrong_size(self):
        g = GridSpec.box((0.0,), (1.0,), (5,))
        with pytest.raises(DomainError, match="value count"):
            ScalarField(g, np.zeros(4), t=0.0)

    def test_rejects_negative_pressure_and_nan(self):
        g = GridSpec.box((0.0,), (1.0,), (3,))
        with pytest.raises(DomainError, match="nonnegative"):
            ScalarField(g, np.array([0.0, -1e-9, 0.0]), t=0.0)
        with pytest.raises(DomainError, match="finite"):
            ScalarField(g, np.array([0.0, np.nan, 0.0]), t=0.0, quantity="v")

    def test_rejects_unknown_quantity(self):
        g = GridSpec.box((0.0,), (1.0,), (3,))
        with pytest.raises(DomainError, match="unknown quantity"):
            ScalarField(g, np.zeros(3), t=0.0, quantity="w")

    def test_rescaled_quantity_may_be_negative(self):
        g = GridSpec.box((0.0,), (1.0,), (3,))
        f = ScalarField(g, np.array([-1.0, 0.0, 1.0]), t=0.0, quantity="v")
        assert f.values[0] == -1.0


class TestRegularizationSchedule:
    def test_pairs_order_eps_first_then_delta(self):
        s = RegularizationSchedule(eps_list=(1e-1, 1e-2), delta_list=(1e-2, 1e-3))
        assert s.pairs() == [(1e-1, 1e-2), (1e-2, 1e-2), (1e-2, 1e-3)]

    @pytest.mark.parametrize("bad", [
        {"eps_list": (), "delta_list": (1e-3,)},
        {"eps_list": (1e-2, 1e-2), "delta_list": (1e-3,)},
        {"eps_list": (1e-2,), "delta_list": (1e-3, 1e-2)},
        {"eps_list": (0.0,), "delta_list": (1e-3,)},
    ])
    def test_rejects_malformed_lists(self, bad):
        with pytest.raises(DomainError):
            RegularizationSchedule(**bad)


class TestPressureDensityMaps:
    @given(rho=hnp.arrays(np.float64, st.integers(1, 30),
                          elements=st.floats(0.0, 1e3)),
           m=st.floats(1.05, 6.0))
    def test_roundtrip(self, rho, m):
        u = pressure_from_density(rho, m)
        back = density_from_pressure(u, m)
        np.testing.assert_allclose(back, rho, rtol=1e-9, atol=1e-12)

    @given(m=st.floats(1.05, 6.0), rho=st.floats(1e-6, 1e3))
    def test_monotone_in_density(self, m, rho):
        assert pressure_from_density(rho * 1.5, m) > pressure_from_density(rho, m)

    def test_scalar_in_scalar_out(self):
        assert isinstance(pressure_from_density(0.5, 2.0), float)
        assert pressure_from_density(0.5, 2.0) == 1.0

    def test_rejects_negative_input(self):
        with pytest.raises(DomainError):
            pressure_from_density(-1.0, 2.0)
        with pytest.raises(DomainError):
            density_from_pressure(np.array([-1.0]), 2.0)


class TestRunManifest:
    def test_build_is_plain_data(self):
        d = run_manifest(Params(m=2.0, eps=1e-3), GridSpec.box((0.0,), (1.0,), (5,)),
                         "dirichlet", t_end=1.0)
        assert d["format"] == "ipme-manifest v1"
        assert d["problem"] == "dirichlet"
        assert d["params"]["k"] == 1.0
        assert d["grid"]["n"] == [5]
        assert d["t_end"] == 1.0
