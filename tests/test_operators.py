import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipme.core import (GridSpec, Params, ScalarField, DomainError, RangeError,
                       SingularPointError)
from ipme import operators as ops


def quadratic_field(grid, A, b, c0):
    X = grid.points()
    vals = 0.5 * np.einsum("ni,ij,nj->n", X, A, X) + X @ b + c0
    return ScalarField(grid, vals, t=0.0, quantity="v")


GRID2 = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (9, 9))
GRID3 = GridSpec.box((-1.0,) * 3, (1.0,) * 3, (7, 7, 7))


class TestBetaCutoff:
    @given(z=st.floats(-50.0, 50.0), c=st.floats(1e-6, 2.0))
    def test_dominates_abs_and_floor(self, z, c):
        val = ops.beta_c(z, c)
        assert val >= abs(z) - 1e-15
        assert val >= c / 2.0

    @given(z=st.floats(-50.0, 50.0), c=st.floats(1e-6, 2.0))
    def test_even(self, z, c):
        assert ops.beta_c(z, c) == ops.beta_c(-z, c)

    @given(c=st.floats(1e-6, 2.0))
    def test_pieces_meet_at_cutoff(self, c):
        assert ops.beta_c(c, c) == pytest.approx(c, rel=1e-12)
        # quadratic blend below, absolute value above
        assert ops.beta_c(0.0, c) == pytest.approx(c / 2.0, rel=1e-12)
        assert ops.beta_c(3.0 * c, c) == pytest.approx(3.0 * c, rel=1e-12)

    def test_vectorized(self):
        z = np.array([-2.0, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(ops.beta_c(z, 1.0), [2.0, 0.5, 0.625, 2.0])


class TestStencilEval:
    def test_exact_on_quadratics(self):
        A = np.array([[1.3, -0.6], [-0.6, 0.8]])
        b = np.array([0.4, 1.1])
        u = quadratic_field(GRID2, A, b, 0.7)
        node = (4, 3)
        se = ops.stencil_eval(u, node)
        x = GRID2.node_point(node)
        np.testing.assert_allclose(se.grad, A @ x + b, atol=1e-12)
        np.testing.assert_allclose(se.hess, A, atol=1e-12)
        assert se.lap == pytest.approx(np.trace(A), abs=1e-12)

    def test_exact_quotient_on_quadratics(self):
        A = np.array([[1.3, -0.6], [-0.6, 0.8]])
        b = np.array([0.4, 1.1])
        u = quadratic_field(GRID2, A, b, 0.7)
        node = (5, 2)
        se = ops.stencil_eval(u, node)
        g = A @ GRID2.node_point(node) + b
        want = (g @ A @ g) / (g @ g)
        assert se.inf_lap_reg(0.0) == pytest.approx(want, rel=1e-10)

    def test_three_d_mixed_terms(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 3))
        A = 0.5 * (A + A.T)
        b = rng.normal(size=3)
        u = quadratic_field(GRID3, A, b, 0.2)
        se = ops.stencil_eval(u, (3, 2, 4))
        np.testing.assert_allclose(se.hess, A, atol=1e-10)

    def test_rejects_boundary_node(self):
        u = quadratic_field(GRID2, np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(RangeError, match="not interior"):
            ops.stencil_eval(u, (0, 4))
        with pytest.raises(RangeError, match="not interior"):
            ops.stencil_eval(u, (4, 8))

    def test_singular_point_needs_delta(self):
        # radially symmetric about a node: centered gradient vanishes there
        u = quadratic_field(GRID2, np.eye(2), np.zeros(2), 0.0)
        se = ops.stencil_eval(u, (4, 4))
        assert se.grad @ se.grad == 0.0
        with pytest.raises(SingularPointError):
            se.inf_lap_reg(0.0)
        assert se.inf_lap_reg(1e-3) == 0.0


class TestPointwiseOperators:
    def test_composition(self):
        A = np.diag([0.9, -0.4])
        u = quadratic_field(GRID2, A, np.array([0.2, -0.1]), 1.0)
        params = Params(m=2.0, eps=1e-2, delta=1e-3, c=1e-3)
        node = (3, 6)
        se = ops.stencil_eval(u, node)
        val = float(u.values[node])
        want = params.eps * se.lap \
            + params.k * ops.beta_c(val, params.c) * se.inf_lap_reg(params.delta)
        g2 = float(se.grad @ se.grad)
        assert ops.rhs_full(u, node, params) == pytest.approx(want + g2, rel=1e-14)


class TestFieldKernels:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.vals = 1.0 + 0.2 * rng.random(GRID2.shape)
        self.params = Params(m=2.0, eps=1e-2, delta=1e-2, c=1e-3)

    def field(self):
        return ScalarField(GRID2, self.vals, t=0.0)

    def test_matches_pointwise_rhs(self):
        arr = ops.rhs_core(self.vals, GRID2, self.params)[0]
        u = self.field()
        for node in [(1, 1), (4, 3), (7, 7), (2, 6)]:
            want = ops.rhs_full(u, node, self.params)
            assert arr[node[0] - 1, node[1] - 1] == pytest.approx(want, rel=1e-12)

    def test_quad_form_field_matches_stencil(self):
        num, g2, lap = ops.quad_form_field(self.vals, GRID2)
        u = self.field()
        node = (5, 4)
        se = ops.stencil_eval(u, node)
        i, j = node[0] - 1, node[1] - 1
        assert num[i, j] == pytest.approx(float(se.grad @ se.hess @ se.grad), rel=1e-12)
        assert g2[i, j] == pytest.approx(float(se.grad @ se.grad), rel=1e-12)
        assert lap[i, j] == pytest.approx(se.lap, rel=1e-12)

    def test_grad_norm_sq_consistent(self):
        # every interior node of the field's |Du|^2 against the pointwise
        # centered gradient
        _, g2, _ = ops.quad_form_field(self.vals, GRID2)
        u = self.field()
        want = np.empty_like(g2)
        for i, j in np.ndindex(*g2.shape):
            se = ops.stencil_eval(u, (i + 1, j + 1))
            want[i, j] = se.grad @ se.grad
        np.testing.assert_allclose(g2, want, rtol=1e-14)

    def test_rhs_core_returns_running_maxima(self):
        rhs, max_beta, max_g2 = ops.rhs_core(self.vals, GRID2, self.params)
        np.testing.assert_allclose(
            rhs, ops.rhs_core(self.vals, GRID2, self.params)[0], atol=1e-14)
        interior = self.vals[GRID2.interior()]
        assert max_beta == pytest.approx(
            float(np.max(ops.beta_c(interior, self.params.c))), rel=1e-14)
        assert max_g2 == pytest.approx(
            float(np.max(ops.quad_form_field(self.vals, GRID2)[1])), rel=1e-14)


class TestTravelingWaveIdentity:
    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_rhs_equals_speed_squared_on_wet_set(self, m):
        # planar wave u = c*(a + c*t - x.w)_+ : on the wet set the quotient
        # vanishes (flat along the wave) and |Du|^2 = c^2 exactly
        c_speed = 0.8
        w = np.array([1.0, 0.0])
        grid = GridSpec.box((0.0, 0.0), (1.0, 1.0), (17, 17))
        X = grid.points()
        vals = c_speed * np.maximum(0.9 - X @ w, 0.0)
        params = Params(m=m, eps=0.0, delta=0.0, c=0.0)
        rhs = ops.rhs_core(vals.reshape(grid.shape), grid, params)[0]
        wet = (vals.reshape(grid.shape) > 1e-12)[grid.interior()]
        # one stencil inside the wet region so no difference crosses the kink
        x = grid.axes()[0][1:-1]
        strict = wet & (x[:, None] < 0.9 - 2.0 / 16.0)
        np.testing.assert_allclose(rhs[strict], c_speed**2, atol=1e-13)


class TestFaultInjection:
    def test_flip_changes_mixed_terms_only(self):
        A = np.array([[0.7, 0.5], [0.5, -0.2]])
        u = quadratic_field(GRID2, A, np.array([0.3, 0.1]), 0.0)
        clean = ops.stencil_eval(u, (4, 5))
        try:
            ops.set_fault_injection("stencil-sign-flip")
            bad = ops.stencil_eval(u, (4, 5))
        finally:
            ops.set_fault_injection(None)
        assert bad.hess[0, 1] == pytest.approx(-clean.hess[0, 1], rel=1e-12)
        assert bad.hess[0, 0] == clean.hess[0, 0]
        np.testing.assert_allclose(bad.grad, clean.grad)

    @pytest.mark.parametrize("mode", ["drop-transport", "plain-laplacian"])
    def test_rhs_faults_change_the_field_kernel_only(self, mode):
        grid = KERNEL_GRIDS[1]
        vals = 0.5 + np.random.default_rng(12).random(grid.shape)
        params = Params(m=2.5, eps=1e-2, delta=1e-2)
        u = ScalarField(grid, vals, t=0.0, quantity="v")
        num, g2, lap = ops.quad_form_field(vals, grid)
        clean = ops.rhs_full(u, (4, 5), params)
        try:
            ops.set_fault_injection(mode)
            got = ops.rhs_core(vals, grid, params)[0]
            assert ops.rhs_full(u, (4, 5), params) == clean
        finally:
            ops.set_fault_injection(None)
        kb = params.k * vals[grid.interior()]
        if mode == "drop-transport":
            want = params.eps * lap + kb * num / (g2 + params.delta ** 2)
        else:
            want = params.eps * lap + kb * lap + g2
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError, match="unknown fault mode"):
            ops.set_fault_injection("bit-rot")


# ── Reference kernel ─────────────────────────────────────────────────────
# The allocating whole-field kernel as it was written before the
# workspace, kept verbatim: the workspace kernel must equal it bit for
# bit, not merely to rounding.

def _ref_shift(vals, axis, off):
    d = vals.ndim
    idx = []
    for a in range(d):
        if a == axis:
            idx.append(slice(1 + off, vals.shape[a] - 1 + off or None))
        else:
            idx.append(slice(1, -1))
    return vals[tuple(idx)]


def _ref_quad_form_field(vals, grid):
    d = grid.dim
    h = grid.h
    c0 = vals[grid.interior()]
    grad = []
    lap = np.zeros_like(c0)
    num = np.zeros_like(c0)
    g2 = np.zeros_like(c0)
    for i in range(d):
        up, dn = _ref_shift(vals, i, +1), _ref_shift(vals, i, -1)
        gi = (up - dn) / (2.0 * h[i])
        hii = (up - 2.0 * c0 + dn) / (h[i] * h[i])
        grad.append(gi)
        lap += hii
        num += hii * gi * gi
        g2 += gi * gi
    sgn = ops._cross_sign()
    for i in range(d):
        for j in range(i + 1, d):
            idx_pp = [slice(1, -1)] * d
            idx_pp[i] = slice(2, None)
            idx_pp[j] = slice(2, None)
            idx_pm = [slice(1, -1)] * d
            idx_pm[i] = slice(2, None)
            idx_pm[j] = slice(0, -2)
            idx_mp = [slice(1, -1)] * d
            idx_mp[i] = slice(0, -2)
            idx_mp[j] = slice(2, None)
            idx_mm = [slice(1, -1)] * d
            idx_mm[i] = slice(0, -2)
            idx_mm[j] = slice(0, -2)
            hij = sgn * (vals[tuple(idx_pp)] - vals[tuple(idx_pm)]
                         - vals[tuple(idx_mp)] + vals[tuple(idx_mm)]) \
                / (4.0 * h[i] * h[j])
            num += 2.0 * hij * grad[i] * grad[j]
    return num, g2, lap


def _ref_beta_or_abs(z, c):
    if c > 0.0:
        return np.where(np.abs(z) >= c, np.abs(z), 0.5 * c + z * z / (2.0 * c))
    return np.abs(z)


def _ref_rhs_core(vals, grid, params):
    num, g2, lap = _ref_quad_form_field(vals, grid)
    delta = params.delta
    if delta == 0.0:
        if np.any(g2 == 0.0):
            raise SingularPointError(
                "delta == 0 with vanishing interior gradient")
        ratio = num / g2
    else:
        ratio = num / (g2 + delta * delta)
    b = _ref_beta_or_abs(vals[grid.interior()], params.c)
    rhs = params.eps * lap + params.k * b * ratio + g2
    return rhs, float(np.max(b)) if b.size else 0.0, \
        float(np.max(g2)) if g2.size else 0.0


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


KERNEL_GRIDS = [
    GridSpec.box((-1.0,), (1.0,), (41,)),
    GridSpec(n=(23, 19), h=(0.07, 0.11), origin=(-0.8, -1.0)),
    GridSpec(n=(9, 8, 11), h=(0.2, 0.15, 0.1), origin=(0.0, 0.0, 0.0)),
]


class TestWorkspaceKernel:
    @pytest.mark.parametrize("fault", [None, "stencil-sign-flip"])
    @pytest.mark.parametrize("c", [0.0, 0.3])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    @pytest.mark.parametrize("grid", KERNEL_GRIDS,
                             ids=lambda g: f"d{g.dim}")
    def test_equals_reference_bit_for_bit(self, grid, delta, c, fault):
        rng = np.random.default_rng(grid.dim)
        vals = rng.random(grid.shape) ** 2
        params = Params(m=2.5, eps=1e-2, delta=delta, c=c)
        try:
            ops.set_fault_injection(fault)
            want = _ref_rhs_core(vals, grid, params)
            got = ops.rhs_core(vals, grid, params)
            ref_terms = _ref_quad_form_field(vals, grid)
            terms = ops.quad_form_field(vals, grid)
        finally:
            ops.set_fault_injection(None)
        assert _bitwise_equal(got[0], want[0])
        assert got[1:] == want[1:]
        for a, b in zip(terms, ref_terms):
            assert _bitwise_equal(a, b)

    def test_zero_terms_keep_the_accumulator_sign(self):
        # -0.0 stencil terms: the reference sums start from +0.0
        grid = KERNEL_GRIDS[1]
        vals = np.full(grid.shape, -0.0)
        vals[5:9, 3:12] = 0.25
        for a, b in zip(ops.quad_form_field(vals, grid),
                        _ref_quad_form_field(vals, grid)):
            assert _bitwise_equal(a, b)

    def test_vanishing_gradient_without_delta_raises(self):
        grid = KERNEL_GRIDS[1]
        vals = np.ones(grid.shape)
        params = Params(m=2.0, eps=1e-2, delta=0.0)
        with pytest.raises(SingularPointError):
            _ref_rhs_core(vals, grid, params)
        with pytest.raises(SingularPointError):
            ops.rhs_core(vals, grid, params)

    def test_calls_without_work_do_not_alias(self):
        grid = KERNEL_GRIDS[1]
        vals = np.random.default_rng(3).random(grid.shape)
        params = Params(m=2.0, eps=1e-2, delta=1e-2)
        a = ops.rhs_core(vals, grid, params)[0]
        keep = a.copy()
        b = ops.rhs_core(2.0 * vals, grid, params)[0]
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, keep)
        q1, q2 = ops.quad_form_field(vals, grid), ops.quad_form_field(vals, grid)
        assert not any(np.shares_memory(x, y) for x in q1 for y in q2)

    def test_work_returns_its_own_buffer(self):
        grid = KERNEL_GRIDS[1]
        vals = np.random.default_rng(4).random(grid.shape)
        params = Params(m=2.0, eps=1e-2, delta=1e-2)
        work = ops.StencilWork(grid)
        rhs, bmax, g2max = ops.rhs_core(vals, grid, params, work)
        assert rhs is work.rhs
        assert (rhs, bmax, g2max)[1:] == _ref_rhs_core(vals, grid, params)[1:]
        with pytest.raises(DomainError, match="another grid"):
            ops.rhs_core(vals[:-1], GridSpec(n=(22, 19), h=grid.h,
                                             origin=grid.origin),
                         params, work)


class TestFlatRuns:
    """The kernel steps over one flat run per slab; the run positions on
    boundary nodes of axes >= 1 are computed and ignored."""

    @pytest.mark.parametrize("c", [0.0, 0.3])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_single_interior_column(self, delta, c):
        # n1 = 3: two of every three run positions are ignored
        grid = GridSpec(n=(11, 3), h=(0.1, 0.13), origin=(0.0, -0.2))
        vals = np.random.default_rng(11).random(grid.shape) ** 2
        params = Params(m=2.5, eps=1e-2, delta=delta, c=c)
        got = ops.rhs_core(vals, grid, params)
        want = _ref_rhs_core(vals, grid, params)
        assert got[0].shape == (9, 1)
        assert _bitwise_equal(got[0], want[0])
        assert got[1:] == want[1:]
        for a, b in zip(ops.quad_form_field(vals, grid),
                        _ref_quad_form_field(vals, grid)):
            assert _bitwise_equal(a, b)

    def test_three_d_split_equals_unsplit(self, two_cores, monkeypatch):
        grid = GridSpec(n=(37, 37, 37), h=(0.03, 0.025, 0.02),
                        origin=(0.0, 0.0, 0.0))
        vals = np.random.default_rng(37).random(grid.shape) ** 2
        params = Params(m=2.0, eps=1e-3, delta=1e-3, c=0.1)
        with ops.StencilWork(grid) as work:
            assert len(work.slabs) == 2
            two = ops.rhs_core(vals, grid, params, work)
        monkeypatch.setattr(ops, "SPLIT_NODES", grid.size)
        work = ops.StencilWork(grid)
        assert len(work.slabs) == 1
        one = ops.rhs_core(vals, grid, params, work)
        want = _ref_rhs_core(vals, grid, params)
        assert _bitwise_equal(one[0], two[0])
        assert _bitwise_equal(one[0], want[0])
        assert one[1:] == two[1:] == want[1:]

    def test_no_delta_with_flat_ignored_positions(self):
        # u = f(x1) with f(1) == f(n1 - 1): the gradient vanishes at the
        # ignored run positions on column 0 but at no interior node
        grid = GridSpec(n=(9, 5), h=(0.1, 0.1), origin=(0.0, 0.0))
        vals = np.tile([0.0, 1.0, 2.0, 3.0, 1.0], (9, 1))
        params = Params(m=2.0, eps=1e-2, delta=0.0)
        work = ops.StencilWork(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ops.rhs_core(vals, grid, params, work)
        assert not work.flat_g2.all()
        assert work.g2.all()
        want = _ref_rhs_core(vals, grid, params)
        assert _bitwise_equal(got[0], want[0])
        assert got[1:] == want[1:]

    def test_field_must_have_the_grid_shape(self):
        # a transposed field has the right size but would run the wrong
        # strides
        grid = KERNEL_GRIDS[1]
        vals = np.random.default_rng(9).random(grid.shape)
        params = Params(m=2.0, eps=1e-2, delta=1e-2)
        with pytest.raises(DomainError, match="does not match"):
            ops.rhs_core(vals.T, grid, params)
        with pytest.raises(DomainError, match="does not match"):
            ops.quad_form_field(vals.ravel(), grid)

    def test_beta_short_path_and_blend(self):
        # every |u| >= c takes beta_c(u) = |u| without the blend; one node
        # below c brings the blend back
        grid = KERNEL_GRIDS[1]
        params = Params(m=2.0, eps=1e-2, delta=1e-2, c=0.3)
        vals = 0.3 + np.random.default_rng(8).random(grid.shape)
        for low in (None, 0.1):
            if low is not None:
                vals[7, 5] = low
            got = ops.rhs_core(vals, grid, params)
            want = _ref_rhs_core(vals, grid, params)
            assert _bitwise_equal(got[0], want[0])
            assert got[1:] == want[1:]


# ── Row slabs ────────────────────────────────────────────────────────────

def _big_grid(rows):
    cols = ops.SPLIT_NODES // (rows - 2) + 3
    return GridSpec(n=(rows, cols), h=(0.01, 0.012), origin=(0.0, 0.0))


@pytest.fixture
def two_cores(monkeypatch):
    # the split itself does not depend on the core count, so test it on
    # any machine
    monkeypatch.setattr(ops, "_cores", lambda: 2)


class TestRowSlabs:
    @pytest.mark.parametrize("rows", [231, 232])
    def test_split_equals_unsplit(self, rows, two_cores, monkeypatch):
        grid = _big_grid(rows)
        assert (rows - 2) * (grid.n[1] - 2) >= ops.SPLIT_NODES
        vals = np.random.default_rng(rows).random(grid.shape) ** 2
        params = Params(m=2.0, eps=1e-3, delta=1e-3, c=0.1)
        with ops.StencilWork(grid) as work:
            assert len(work.slabs) == 2
            two = ops.rhs_core(vals, grid, params, work)
        monkeypatch.setattr(ops, "SPLIT_NODES", grid.size)
        work = ops.StencilWork(grid)
        assert len(work.slabs) == 1
        one = ops.rhs_core(vals, grid, params, work)
        assert _bitwise_equal(one[0], two[0])
        assert one[1:] == two[1:]
        assert _bitwise_equal(one[0], _ref_rhs_core(vals, grid, params)[0])

    def test_split_needs_size_and_two_cores(self, monkeypatch):
        small = GridSpec.box((0.0, 0.0), (1.0, 1.0), (129, 129))
        big = _big_grid(232)
        monkeypatch.setattr(ops, "_cores", lambda: 2)
        assert len(ops.StencilWork(small).slabs) == 1
        assert len(ops.StencilWork(big).slabs) == 2
        monkeypatch.setattr(ops, "_cores", lambda: 1)
        assert len(ops.StencilWork(big).slabs) == 1

    def test_helper_slab_error_reaches_caller(self, two_cores):
        grid = _big_grid(232)
        rows = grid.n[0]
        vals = np.random.default_rng(5).random(grid.shape)
        # flat rows far inside the helper's (second) slab
        vals[rows - 40:rows - 30] = 0.5
        params = Params(m=2.0, eps=1e-3, delta=0.0)
        before = threading.active_count()
        with ops.StencilWork(grid) as work:
            with pytest.raises(SingularPointError):
                ops.rhs_core(vals, grid, params, work)
            # the workspace stays usable after the error
            vals[rows - 40:rows - 30] += np.linspace(0.0, 1e-3, grid.n[1])
            got = ops.rhs_core(vals, grid, params, work)
            assert _bitwise_equal(got[0], _ref_rhs_core(vals, grid, params)[0])
        assert threading.active_count() == before

    def test_stress_under_frequent_thread_switches(self, two_cores):
        grid = _big_grid(232)
        rng = np.random.default_rng(6)
        params = Params(m=2.0, eps=1e-3, delta=1e-3, c=0.05)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            calls = 0
            deadline = time.monotonic() + 2.0
            with ops.StencilWork(grid) as work:
                while time.monotonic() < deadline:
                    vals = rng.random(grid.shape)
                    want = _ref_rhs_core(vals, grid, params)
                    got = ops.rhs_core(vals, grid, params, work)
                    assert _bitwise_equal(got[0], want[0])
                    assert got[1:] == want[1:]
                    calls += 1
        finally:
            sys.setswitchinterval(old)
        assert calls >= 2


# ── Reciprocal scaling ───────────────────────────────────────────────────
# The workspace kernel multiplies by 1/c where a constant divisor c is a
# power of two; the reference kernel above divides everywhere, so the two
# must still agree bit for bit.

def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_same_bits(got, want):
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1:]), _bits(want[1:]))


PIN_GRIDS = {
    "65sq": GridSpec.box((-1.0, -1.0), (1.0, 1.0), (65, 65)),
    "129sq": GridSpec.box((-1.0, -1.0), (1.0, 1.0), (129, 129)),
    "97sq-h1/12": GridSpec.box((-4.0, -4.0), (4.0, 4.0), (97, 97)),
    "65x49": GridSpec.box((-1.0, -1.0), (1.0, 1.0), (65, 49)),
    "1d": GridSpec.box((-1.0,), (1.0,), (33,)),
    "3d": GridSpec.box((-1.0,) * 3, (1.0,) * 3, (17, 17, 17)),
}


def _pin_data(grid, kind):
    rng = np.random.default_rng(grid.size)
    if kind == "random":
        return rng.random(grid.shape) ** 2
    # patches of -0.0 and +0.0 around a positive block: every zero sign
    # meets every other in the stencil sums
    vals = np.where(rng.random(grid.shape) < 0.5, -0.0, 0.0)
    block = tuple(slice(k // 3, 2 * k // 3) for k in grid.n)
    vals[block] = 0.25 + rng.random(vals[block].shape)
    return vals


def _pinned(vals, grid, params, fault=None):
    try:
        ops.set_fault_injection(fault)
        want = _ref_rhs_core(vals, grid, params)
        got = ops.rhs_core(vals, grid, params, ops.StencilWork(grid))
    finally:
        ops.set_fault_injection(None)
    return got, want


class TestReciprocalScaling:
    """The kernel with multiplies by exact reciprocals against the
    reference kernel, which divides, bit for bit."""

    @pytest.mark.parametrize("fault", [None, "stencil-sign-flip"])
    @pytest.mark.parametrize("kind,delta,c", [
        ("random", 1e-3, 0.0), ("random", 0.0, 0.0), ("random", 1e-3, 0.3),
        ("zero-plateaus", 1e-3, 0.0), ("zero-plateaus", 1e-3, 0.3)],
        ids=["delta", "no-delta", "blend", "plateaus", "plateaus-blend"])
    @pytest.mark.parametrize("name", list(PIN_GRIDS))
    def test_rhs_core_equals_the_division_kernel(self, name, kind, delta, c,
                                                 fault):
        grid = PIN_GRIDS[name]
        vals = _pin_data(grid, kind)
        params = Params(m=2.5, eps=1e-2, delta=delta, c=c)
        got, want = _pinned(vals, grid, params, fault)
        _assert_same_bits(got, want)
        if c > 0.0:  # the blend is active on part of the field
            assert np.min(np.abs(vals)) < c <= np.max(vals)

    @pytest.mark.parametrize("name", list(PIN_GRIDS))
    def test_vanishing_gradient_without_delta_raises_alike(self, name):
        grid = PIN_GRIDS[name]
        vals = np.ones(grid.shape)
        params = Params(m=2.0, eps=1e-2, delta=0.0)
        with pytest.raises(SingularPointError) as want:
            _ref_rhs_core(vals, grid, params)
        with pytest.raises(SingularPointError) as got:
            ops.rhs_core(vals, grid, params)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("fault", [None, "stencil-sign-flip"])
    def test_two_slabs_inside_with(self, two_cores, fault):
        grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (257, 257))
        vals = _pin_data(grid, "random")
        params = Params(m=2.0, eps=1e-3, delta=1e-3, c=0.1)
        try:
            ops.set_fault_injection(fault)
            with ops.StencilWork(grid) as work:
                assert len(work.slabs) == 2
                got = ops.rhs_core(vals, grid, params, work)
            want = _ref_rhs_core(vals, grid, params)
        finally:
            ops.set_fault_injection(None)
        _assert_same_bits(got, want)

    @given(k=st.integers(-1023, 1023),
           x=st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True))
    @settings(max_examples=500, deadline=None)
    def test_power_of_two_reciprocal_is_exact(self, k, x):
        c = math.ldexp(1.0, k)
        scale, operand = ops._scaling(c)
        assert scale is np.multiply and operand == math.ldexp(1.0, -k)
        results, flags = [], []
        for ufunc, y in ((scale, operand), (np.divide, c)):
            seen = []
            with np.errstate(all="call",
                             call=lambda kind, flag: seen.append(kind)):
                results.append(ufunc(np.array([x]), y))
            flags.append(seen)
        assert np.array_equal(_bits(results[0]), _bits(results[1]))
        assert flags[0] == flags[1]

    @pytest.mark.parametrize("c", [2.0 ** -1074, 2.0 ** -1025, 1.0 / 48.0,
                                   3.0 / 64.0, 0.07, 2.0 / 48.0])
    def test_other_divisors_divide(self, c):
        assert ops._scaling(c) == (np.divide, c)

    def test_grids_pick_per_divisor(self):
        # h = (1/32, 1/24): 2h_0, h_0^2 are powers of two, the others not
        s = ops.StencilWork(PIN_GRIDS["65x49"]).slabs[0]
        assert [f for f, _ in s.by_2h] == [np.multiply, np.divide]
        assert [f for f, _ in s.by_hh] == [np.multiply, np.divide]
        assert s.cross[0][-1] == (np.divide, 4.0 * (1 / 32) * (1 / 24))


# ── Maxima over the run ──────────────────────────────────────────────────
# `_rhs_slab` reduces both maxima over the whole contiguous run, after +0.0
# is written into the run positions on box-boundary nodes.

RUN_GRIDS = {
    "1d": GridSpec.box((-1.0,), (1.0,), (33,)),
    "2d": GridSpec.box((-1.0, -1.0), (1.0, 1.0), (33, 29)),
    "3d": GridSpec.box((-1.0,) * 3, (1.0,) * 3, (11, 9, 8)),
}


def _loud_boundary(grid):
    # small interior data, and box-boundary values of random sign ten to a
    # hundred times larger: the boundary holds the largest |u|, and the
    # wrap-around differences at the ignored run positions are the
    # steepest of the field
    rng = np.random.default_rng(grid.size)
    vals = rng.random(grid.shape)
    edge = grid.boundary_mask()
    vals[edge] = rng.choice([-1.0, 1.0], edge.sum()) \
        * rng.uniform(10.0, 100.0, edge.sum())
    return vals


class TestRunMaxima:
    @pytest.mark.parametrize("fault", [None, *ops.FAULT_MODES])
    @pytest.mark.parametrize("c", [0.0, 0.3])
    @pytest.mark.parametrize("slabs", [1, 2])
    @pytest.mark.parametrize("name", list(RUN_GRIDS))
    def test_maxima_are_those_of_the_interior(self, name, slabs, c, fault,
                                              two_cores, monkeypatch):
        grid = RUN_GRIDS[name]
        vals = _loud_boundary(grid)
        params = Params(m=2.0, eps=1e-2, delta=1e-3, c=c)
        monkeypatch.setattr(ops, "SPLIT_NODES", 1 if slabs == 2 else 10**9)
        raw = ops.StencilWork(grid)
        assert len(raw.slabs) == slabs
        # the data must catch a run maximum taken without the zeros
        raw.run(ops._terms, vals)
        run = slice(0, raw.span.stop - raw.offset)
        if grid.dim > 1:
            assert raw.flat_g2[run].max() > raw.g2.max()
            assert np.abs(vals).max() > np.abs(vals[grid.interior()]).max()
        want = _ref_rhs_core(vals, grid, params)[1:]
        try:
            ops.set_fault_injection(fault)
            with ops.StencilWork(grid) as work:
                got = ops.rhs_core(vals, grid, params, work)[1:]
        finally:
            ops.set_fault_injection(None)
        assert got == want
        assert want == (float(np.max(_ref_beta_or_abs(
            vals[grid.interior()], c))), float(np.max(raw.g2)))


class TestSpanIsWritten:
    @pytest.mark.parametrize("n,split_nodes", [
        ((257, 257), ops.SPLIT_NODES), ((9, 5), 1), ((7, 6, 5), 1),
        ((4, 3), 1)], ids=["257sq", "9x5", "7x6x5", "4x3"])
    def test_two_slabs_write_every_span_position(self, n, split_nodes,
                                                 two_cores, monkeypatch):
        # the stepper adds all of span_rhs into the field; a position no
        # slab writes keeps what np.empty left there
        monkeypatch.setattr(ops, "SPLIT_NODES", split_nodes)
        grid = GridSpec(n=n, h=(0.1,) * len(n), origin=(0.0,) * len(n))
        vals = np.random.default_rng(3).random(grid.shape)
        params = Params(m=2.0, eps=1e-3, delta=1e-3)
        with ops.StencilWork(grid) as work:
            assert len(work.slabs) == 2
            work.flat_rhs[:] = np.nan
            ops.rhs_core(vals, grid, params, work)
        assert np.isfinite(work.span_rhs).all()
        assert np.isnan(work.flat_rhs[work.span_rhs.size:]).all()
