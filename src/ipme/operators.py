"""Finite-difference operators for the regularized pressure equation.

Pointwise evaluations follow the operator

    L[u] = eps * Lap(u) + k * beta_c(u) * <D2u Du, Du> / (|Du|^2 + delta^2)

with centered second-order stencils for gradient and Hessian, and the
full right-hand side rhs = L[u] + |Du|^2.  Array versions of the same
kernels (`quad_form_field`, and `rhs_core`, which the time steppers
call) evaluate the whole interior at once.

All of them run one kernel, `_terms`, which writes into the buffers of a
`StencilWork`: the d gradient components, num, g2, lap, one temporary,
rhs and a boolean mask, allocated once per grid together with the slices
of every stencil neighbour.  It evaluates one fixed expression tree (the
centered differences of `stencil_eval`, summed axis by axis) with `out=`
ufuncs and in-place operators, so a time step allocates no field-sized
array.  One-off calls build a fresh workspace, so what they return is
never overwritten by a later call.

The constant divisors of the stencil, 2 h_i, h_i^2 and 4 h_i h_j, are
applied as a multiply by 1/c wherever c is an exact power of two with a
finite reciprocal (h = 1/32 and 1/64 on [-1, 1] at 65 and 129 nodes),
and as a division otherwise (h = 1/48, 0.07, ...).  1/c is then exact,
and x * (1/c) and x / c are both the correctly rounded value of the same
real number, so the bits, including -0.0, subnormals, inf and NaN, and
the floating-point warnings are those of the division, which at 129^2
costs about three times the multiply.

Every operand is a contiguous 1-d run of the flattened field: the run
from node (1, 1, ..., 1) to the last interior node, and the same run
shifted by a sum of +-strides for each neighbour.  So every ufunc walks
one contiguous stretch of memory instead of the rows of a strided view.
The run also passes over the boundary nodes of axes >= 1 (two per row
in 2-d); those positions are computed and ignored.  The returned arrays
and the delta == 0 check read only the interior views.  The maxima of
beta_c(u) and |Du|^2 reduce the whole run, after +0.0 is written into
its boundary positions through strided views (of two nodes per row in
2-d): every interior value is at least +0.0, so the maxima do not
change, and a contiguous reduction costs half of a strided one.  The
time stepper adds the whole run of rhs into the field at once
(`StencilWork.span`): that is sound because every ignored run position
is a held node, which the lateral stamp overwrites before any check
reads the field.  Buffer positions past the last interior node are
never written, by the kernel or the stepper.

On grids with at least SPLIT_NODES = 40,000 interior nodes, and with two
or more usable cores, the workspace cuts the run into two slabs of whole
rows of axis 0 (each reads one ghost row of the other).  Inside a `with`
block the calling thread computes the first slab and one helper thread
the second; numpy releases the GIL inside the ufuncs, and the slab maxima
are combined afterwards.  The helper is created when a two-slab
workspace enters its `with` block and shut down when the block ends;
`concurrent.futures` is imported only then, so a run on one-slab grids
never loads it.  Every operation is elementwise, so split and unsplit
results are identical.  The threshold sits just above the measured
crossover of one 2-d call on a 2-core Xeon (numpy 2.4; medians of calls
alternated in one process): one slab against two took 0.32 against 0.53
ms at 129^2 nodes, 0.62 against 0.68 ms at 161^2, 0.66 against 0.71 ms
at 177^2, 1.01 against 0.86 ms at 193^2, 2.59 against 1.48 ms at 257^2
and 5.57 against 2.70 ms at 385^2.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DomainError, GridSpec, Params, RangeError, ScalarField,
                   SingularPointError)

__all__ = [
    "beta_c", "StencilEval", "stencil_eval", "rhs_full", "rhs_core",
    "quad_form_field", "set_fault_injection", "StencilWork",
]

# test hook: the deliberate defects `set_fault_injection` switches on
FAULT_MODES = ("stencil-sign-flip", "drop-transport", "plain-laplacian")
_FAULT_MODE = None


def set_fault_injection(mode: str | None) -> None:
    """Enable a deliberate operator defect for mutation-sensitivity checks.

    "stencil-sign-flip" flips the sign of the mixed second differences
    (pointwise and in the field kernel); "drop-transport" leaves out the
    + |Du|^2 of the field rhs; "plain-laplacian" puts k beta_c(u) Lap(u)
    in place of the quotient term of the field rhs, which makes it the
    standard porous-medium operator.  None switches the fault off.  Never
    set this in production paths; the verify command uses it to prove
    its own suites can fail.
    """
    global _FAULT_MODE
    if mode is not None and mode not in FAULT_MODES:
        raise DomainError(f"unknown fault mode {mode!r}")
    _FAULT_MODE = mode


def _cross_sign() -> float:
    return -1.0 if _FAULT_MODE == "stencil-sign-flip" else 1.0


# ── Cutoff ───────────────────────────────────────────────────────────────

def beta_c(z, c: float):
    """Even C^1 cutoff: |z| for |z| >= c, quadratic blend below.

    beta_c(z) = c/2 + z^2/(2c) on |z| < c, so beta_c >= c/2 everywhere
    and the two pieces meet with matching value and slope at |z| = c.
    """
    if c <= 0.0:
        raise DomainError(f"beta_c needs c > 0, got {c}")
    return _beta_or_abs(z, c)


def _beta_into(z: np.ndarray, c: float, out: np.ndarray,
               scratch: np.ndarray, mask: np.ndarray) -> None:
    """beta_c(z) into `out` (plain |z| when c == 0): |z|, and where
    |z| < c the blend 0.5 c + z^2/(2c).  When c == 0 or every |z| >= c,
    |z| is already the answer and the blend is skipped.  `scratch` and
    `mask` are overwritten."""
    np.abs(z, out=out)
    if c == 0.0 or np.minimum.reduce(out, axis=None, initial=np.inf) >= c:
        return
    np.less(out, c, out=mask)
    np.multiply(z, z, out=scratch)
    scratch /= 2.0 * c
    scratch += 0.5 * c
    np.copyto(out, scratch, where=mask)


def _beta_or_abs(z, c: float):
    """beta_c when a positive cutoff is configured, plain |z| when c == 0."""
    z_arr = np.asarray(z, dtype=float)
    out = np.empty_like(z_arr)
    _beta_into(z_arr, c, out, np.empty_like(z_arr),
               np.empty(z_arr.shape, dtype=bool))
    return float(out) if np.isscalar(z) or out.ndim == 0 else out


# ── Pointwise stencil evaluation ─────────────────────────────────────────

@dataclass
class StencilEval:
    """Derivative data at one interior node.

    grad: centered gradient, length d.
    hess: centered Hessian (symmetric), shape (d, d).
    lap: trace of hess.
    """

    grad: np.ndarray
    hess: np.ndarray
    lap: float

    def inf_lap_reg(self, delta: float) -> float:
        """<hess grad, grad> / (|grad|^2 + delta^2).

        delta == 0 is only legal at nodes with a nonvanishing gradient.
        """
        g2 = float(self.grad @ self.grad)
        if delta == 0.0 and g2 == 0.0:
            raise SingularPointError(
                "gradient vanishes and delta == 0: unregularized "
                "infinity-Laplacian undefined here")
        num = float(self.grad @ self.hess @ self.grad)
        return num / (g2 + delta * delta)


def _check_interior(grid: GridSpec, node) -> tuple:
    node = tuple(int(v) for v in node)
    if len(node) != grid.dim:
        raise RangeError(f"node index length {len(node)} != dim {grid.dim}")
    for i, j in enumerate(node):
        if not (1 <= j <= grid.n[i] - 2):
            raise RangeError(
                f"node {node} is not interior to grid with n={grid.n}")
    return node


def stencil_eval(u: ScalarField, node) -> StencilEval:
    """Centered gradient and Hessian of a field at one interior node.

    Exact for polynomials of degree <= 2; O(h^2) consistent on smooth
    fields.  Raises RangeError at boundary nodes.
    """
    grid = u.grid
    node = _check_interior(grid, node)
    vals = u.values
    d = grid.dim
    h = grid.h

    def at(offset):
        return vals[tuple(node[i] + offset[i] for i in range(d))]

    grad = np.zeros(d)
    hess = np.zeros((d, d))
    e = [np.zeros(d, dtype=int) for _ in range(d)]
    for i in range(d):
        e[i][i] = 1
    u0 = at(np.zeros(d, dtype=int))
    for i in range(d):
        up, dn = at(e[i]), at(-e[i])
        grad[i] = (up - dn) / (2.0 * h[i])
        hess[i, i] = (up - 2.0 * u0 + dn) / (h[i] * h[i])
    sgn = _cross_sign()
    for i in range(d):
        for j in range(i + 1, d):
            val = (at(e[i] + e[j]) - at(e[i] - e[j])
                   - at(-e[i] + e[j]) + at(-e[i] - e[j])) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = sgn * val
    return StencilEval(grad=grad, hess=hess, lap=float(np.trace(hess)))


def rhs_full(u: ScalarField, node, params: Params) -> float:
    """Full right-hand side L[u] + |Du|^2 at one interior node."""
    st = stencil_eval(u, node)
    val = float(u.values[tuple(node)])
    b = _beta_or_abs(val, params.c)
    g2 = float(st.grad @ st.grad)
    return params.eps * st.lap + params.k * b * st.inf_lap_reg(params.delta) + g2


# ── Whole-field kernels ──────────────────────────────────────────────────

# interior nodes from which a workspace splits the kernel over two row
# slabs, the second on a helper thread (see the module docstring)
SPLIT_NODES = 40_000


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _scaling(c: float) -> tuple:
    """(ufunc, operand) that divides an array by the constant c in place:
    a multiply by 1/c when c is an exact power of two with a finite
    reciprocal, a division by c otherwise.  Then 1/c is exact, and both
    round the same real number x/c once, so their bits and warnings are
    the same."""
    if math.frexp(c)[0] == 0.5 and math.isfinite(1.0 / c):
        return np.multiply, 1.0 / c
    return np.divide, c


class _Slab:
    """Interior rows [r0, r1) as one contiguous run of the flattened
    field, from node (1+r0, 1, ..., 1) to the node before the next
    slab's first (the last slab: to the last interior node): slices of
    the flat field for the centre and every stencil neighbour (the run
    shifted by a sum of +-strides), the scalings by the constant divisors
    2 h_i, h_i^2 and 4 h_i h_j, the matching contiguous views of the
    workspace buffers, the interior view of g2 that the delta == 0 check
    reads, and `edges`: strided views of the b and g2 buffers that cover
    exactly the run positions on box-boundary nodes."""

    def __init__(self, work: "StencilWork", r0: int, r1: int):
        n, strides, h = work.grid.n, work.strides, work.grid.h
        rows = n[0] - 2
        first = (1 + r0) * strides[0] + sum(strides[1:])
        last = first + (r1 - r0) * strides[0] - 1 if r1 < rows else \
            sum((k - 2) * st for k, st in zip(n, strides))

        def at(shift):
            return slice(first + shift, last + 1 + shift)

        self.c0 = at(0)
        self.up = [at(st) for st in strides]
        self.dn = [at(-st) for st in strides]
        self.by_2h = [_scaling(2.0 * hi) for hi in h]
        self.by_hh = [_scaling(hi * hi) for hi in h]
        self.cross = [(i, j, at(si + sj), at(si - sj), at(sj - si),
                       at(-si - sj), _scaling(4.0 * h[i] * h[j]))
                      for i, si in enumerate(strides)
                      for j, sj in enumerate(strides) if j > i]
        # buffer position q holds flat field position q + work.offset
        run = slice(first - work.offset, last + 1 - work.offset)
        self.grad = [g[run] for g in work.flat_grad]
        self.num, self.g2, self.lap, self.tmp, self.rhs, self.mask = (
            a[run] for a in (work.flat_num, work.flat_g2, work.flat_lap,
                             work.flat_tmp, work.flat_rhs, work.flat_mask))
        self.g2_in = work.g2[r0:r1]

        # a buffer reshaped to (n0 - 2, n1, ..., n_{d-1}) holds node
        # (r + 1, j1 + 1, ...) at [r, j1, ...], so the run's box-boundary
        # positions are those with j_a >= n_a - 2 on some axis a >= 1.  The
        # last slab's run stops at [rows - 1, n1 - 3, ..., n_{d-1} - 3], so
        # its last row is taken axis by axis up to that node.
        def edge(head, a):
            # below the index prefix `head`: j_a >= n_a - 2, any other j
            return head + (slice(None),) * (a - len(head)) + \
                (slice(n[a] - 2, None),)

        d = len(n)
        whole = (slice(r0, r1 - 1 if r1 == rows else r1),)
        picks = [edge(whole, a) for a in range(1, d)]
        head = (rows - 1,)
        for axis in range(1, d - 1) if r1 == rows else ():
            picks += [edge(head + (slice(0, n[axis] - 3),), a)
                      for a in range(axis + 1, d)]
            head += (n[axis] - 3,)
        self.edges = [view for buf in (work.flat_grad[0], work.flat_g2)
                      for view in (buf.reshape((rows,) + n[1:])[p]
                                   for p in picks) if view.size]


class StencilWork:
    """Flat buffers and stencil runs of one grid, built once.

    The buffers are the d gradient components, num, g2, lap, one
    temporary, rhs and a boolean mask, each of length
    (n0 - 2) * n1 * ... * n_{d-1}: position q holds the value at flat
    field index q + offset, where offset is the flat index of node
    (1, ..., 1).  Every kernel operation runs over one contiguous run
    per slab, so run positions that fall on boundary nodes of axes >= 1
    (two per row in 2-d) are computed too and ignored: they never reach
    a returned array or the singularity check, they raise nothing, and
    they reach the two maxima only as the +0.0 that `_rhs_slab` writes
    there first.  The buffers are the `flat_*` attributes; `num`, `g2`,
    `lap` and `rhs` are the interior views of theirs, shape
    (n0 - 2, ..., n_{d-1} - 2).

    Each slab's run ends where the next one begins, so the slabs
    together write every position of one contiguous run: `span` is the
    slice of the flat field from node (1, ..., 1) to the last interior
    node, and `span_rhs` the buffer positions that hold it.  The tail of
    each buffer past that run is never written.  Every ignored position of
    the run is a box-boundary node, so a caller that adds `span_rhs`
    into `span` touches only interior nodes and nodes it must overwrite
    with lateral data before reading the field.

    Grids with at least SPLIT_NODES interior nodes on a machine with two
    or more usable cores get two row slabs, other grids one.  Inside a
    `with` block a two-slab workspace runs its second slab on one helper
    thread, which the block joins on exit; outside one, the slabs run in
    turn on the calling thread.  Arrays that `rhs_core(..., work)`
    returns are views of these buffers, overwritten by the next call
    with the same workspace.
    """

    def __init__(self, grid: GridSpec):
        n = grid.n
        rows = n[0] - 2
        split = rows >= 2 and math.prod(k - 2 for k in n) >= SPLIT_NODES \
            and _cores() >= 2
        self.grid = grid
        self.strides = tuple(math.prod(n[i + 1:]) for i in range(grid.dim))
        self.offset = sum(self.strides)
        size = rows * self.strides[0]
        self.flat_grad = [np.empty(size) for _ in range(grid.dim)]
        self.flat_num, self.flat_g2, self.flat_lap, self.flat_tmp, \
            self.flat_rhs = (np.empty(size) for _ in range(5))
        self.flat_mask = np.empty(size, dtype=bool)
        self.num, self.g2, self.lap, self.rhs = (
            self.interior(a) for a in (self.flat_num, self.flat_g2,
                                       self.flat_lap, self.flat_rhs))
        last = sum((k - 2) * st for k, st in zip(n, self.strides))
        self.span = slice(self.offset, last + 1)
        self.span_rhs = self.flat_rhs[:last + 1 - self.offset]
        cuts = (0, rows // 2, rows) if split else (0, rows)
        self.slabs = [_Slab(self, a, b) for a, b in zip(cuts, cuts[1:])]
        self._helper = None

    def interior(self, buf: np.ndarray) -> np.ndarray:
        """The interior nodes of a flat buffer, as a grid-shaped view."""
        n = self.grid.n
        return buf.reshape((n[0] - 2,) + n[1:])[
            (slice(None),) + tuple(slice(0, k - 2) for k in n[1:])]

    def __enter__(self) -> "StencilWork":
        if len(self.slabs) > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._helper = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="ipme-slab")
        return self

    def __exit__(self, *exc) -> None:
        if self._helper is not None:
            self._helper.shutdown(wait=True)
            self._helper = None

    def run(self, fn: Callable, vals: np.ndarray, *args) -> list:
        """[fn(flat, slab, *args) for each slab], with `flat` the field
        `vals` flattened; with a helper running, the last slab goes to it
        while this thread does the first."""
        if vals.shape != self.grid.shape:
            raise DomainError(f"field of shape {vals.shape} does not match "
                              f"the grid's {self.grid.shape}")
        flat = vals.reshape(-1)
        if self._helper is None:
            return [fn(flat, s, *args) for s in self.slabs]
        pending = self._helper.submit(fn, flat, self.slabs[1], *args)
        try:
            first = fn(flat, self.slabs[0], *args)
        except BaseException:
            pending.exception()  # the helper must be done with the buffers
            raise
        return [first, pending.result()]


def _terms(vals: np.ndarray, s: _Slab) -> None:
    """Fill the slab's grad, num = <D^2u Du, Du>, g2 = |Du|^2 and
    lap = trace D^2u in place, from the flattened field `vals`.

    The operation order is fixed, so every value is reproducible bit for
    bit: gi = (up - dn)/(2h), hii = ((up - 2 c0) + dn)/h^2,
    hij = sgn ((pp - pm) - mp + mm)/(4 hi hj), where each division by a
    power of two is a multiply by its exact reciprocal (see `_scaling`),
    and the sums lap = h00 + h11 + ..., num = (h00 g0) g0 + ((h11 g1) g1)
    + ... then + ((2 hij) gi) gj, g2 = g0 g0 + g1 g1 + ....  The first
    term of lap and of num is written, not added to zero, so a -0.0
    there stays -0.0; in `rhs_core` the sign cannot show, because a zero
    reaches rhs only through (eps lap + b) + g2 with g2 >= +0.0.  The rhs
    buffer holds 2 c0 meanwhile.
    """
    tmp, two_c0 = s.tmp, s.rhs
    np.multiply(vals[s.c0], 2.0, out=two_c0)
    for i, gi in enumerate(s.grad):
        up, dn = vals[s.up[i]], vals[s.dn[i]]
        np.subtract(up, dn, out=gi)
        scale, c = s.by_2h[i]
        scale(gi, c, out=gi)
        hii = s.lap if i == 0 else tmp
        np.subtract(up, two_c0, out=hii)
        hii += dn
        scale, c = s.by_hh[i]
        scale(hii, c, out=hii)
        if i == 0:
            np.multiply(hii, gi, out=s.num)
            s.num *= gi
            np.multiply(gi, gi, out=s.g2)
        else:
            s.lap += tmp
            tmp *= gi
            tmp *= gi
            s.num += tmp
            np.multiply(gi, gi, out=tmp)
            s.g2 += tmp
    sgn = _cross_sign()
    for i, j, pp, pm, mp, mm, (scale, c) in s.cross:
        np.subtract(vals[pp], vals[pm], out=tmp)
        tmp -= vals[mp]
        tmp += vals[mm]
        if sgn != 1.0:
            tmp *= sgn
        scale(tmp, c, out=tmp)
        tmp *= 2.0
        tmp *= s.grad[i]
        tmp *= s.grad[j]
        s.num += tmp


def _quotient(num: np.ndarray, g2: np.ndarray, g2_in: np.ndarray,
              delta: float, out: np.ndarray) -> np.ndarray:
    """num / (g2 + delta^2) into `out`; delta == 0 needs g2 nowhere 0 on
    the interior view `g2_in` (ignored run positions may divide by 0)."""
    if delta == 0.0:
        if not g2_in.all():
            raise SingularPointError(
                "delta == 0 with vanishing interior gradient")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(num, g2, out=out)
    np.add(g2, delta * delta, out=out)
    return np.divide(num, out, out=out)


def _rhs_slab(vals: np.ndarray, s: _Slab, params: Params) -> tuple:
    """rhs = (eps lap + (k beta_c(u)) ratio) + g2 on one slab, into its
    rhs buffer; returns the maxima of beta_c(u) and g2 over the slab's
    interior nodes, which are those over the run once +0.0 is written
    into its box-boundary positions of b and g2 (every interior b and
    g2 is at least +0.0 or NaN)."""
    _terms(vals, s)
    ratio = s.lap if _FAULT_MODE == "plain-laplacian" else \
        _quotient(s.num, s.g2, s.g2_in, params.delta, out=s.tmp)
    b = s.grad[0]
    _beta_into(vals[s.c0], params.c, b, s.rhs, s.mask)
    for edge in s.edges:
        edge.fill(0.0)
    maxima = float(b.max()), float(s.g2.max())
    b *= params.k
    b *= ratio
    np.multiply(s.lap, params.eps, out=s.rhs)
    s.rhs += b
    if _FAULT_MODE != "drop-transport":
        s.rhs += s.g2
    return maxima


def quad_form_field(vals: np.ndarray, grid: GridSpec) -> tuple:
    """Interior arrays (num, g2, lap) of the stencil in one pass.

    num = <D^2 u Du, Du>, g2 = |Du|^2, lap = trace D^2 u, all with the
    centered differences used pointwise by stencil_eval.
    """
    work = StencilWork(grid)
    work.run(_terms, vals)
    return work.num, work.g2, work.lap


def rhs_core(vals: np.ndarray, grid: GridSpec, params: Params,
             work: StencilWork | None = None) -> tuple:
    """Interior rhs plus the stability quantities it computes anyway.

    Returns (rhs, max beta_c(u), max |Du|^2) so the time stepper can form
    its CFL bound without a second stencil pass.  Without `work` the
    arrays come from a new workspace; with one, rhs is `work.rhs`, the
    interior view of its rhs buffer.
    """
    if work is None:
        work = StencilWork(grid)
    elif work.grid != grid:
        raise DomainError("stencil workspace was built for another grid")
    bmax, g2max = np.max(work.run(_rhs_slab, vals, params), axis=0)
    return work.rhs, float(bmax), float(g2max)
