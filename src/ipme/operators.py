"""Finite-difference operators for the regularized pressure equation.

Pointwise evaluations follow the operator

    L[u] = eps * Lap(u) + k * beta_c(u) * <D2u Du, Du> / (|Du|^2 + delta^2)

with centered second-order stencils for gradient and Hessian, and the
full right-hand side rhs = L[u] + |Du|^2.  Array versions of the same
kernels (`quad_form_field`, and `rhs_core`, which the time steppers
call) evaluate the whole interior at once.

All of them run one kernel, `_terms`, over a `_Run`: a contiguous run of
whole rows of axis 0 with the slices of every stencil neighbour and the
buffers it writes (the d gradient components, num, g2, lap, one
temporary and a boolean mask, and its part of rhs).  It evaluates one
fixed expression tree (the centered differences of `stencil_eval`,
summed axis by axis) with `out=` ufuncs and in-place operators, so a
time step allocates no field-sized array.  The steppers' buffers live in
a `StencilWork`, built once per grid; one-off calls build a fresh one,
so what they return is never overwritten by a later call.

The constant divisors of the stencil, 2 h_i, h_i^2 and 4 h_i h_j, are
applied as a multiply by 1/c wherever c is an exact power of two with a
finite reciprocal (h = 1/32 and 1/64 on [-1, 1] at 65 and 129 nodes),
and as a division otherwise (h = 1/48, 0.07, ...).  1/c is then exact,
and x * (1/c) and x / c are both the correctly rounded value of the same
real number, so the bits, including -0.0, subnormals, inf and NaN, and
the floating-point warnings are those of the division, which at 129^2
costs about three times the multiply.

Every operand is a contiguous 1-d run of the flattened field: the run
of the rows' nodes from (1+r0, 1, ..., 1) on, and the same run shifted
by a sum of +-strides for each neighbour.  So every ufunc walks one
contiguous stretch of memory instead of the rows of a strided view.
The run also passes over the boundary nodes of axes >= 1 (two per row
in 2-d); those positions are computed and ignored.  The returned arrays
and the delta == 0 check read only the interior views.  The maxima of
beta_c(u) and |Du|^2 reduce the whole run, after +0.0 is written into
its boundary positions through strided views (of two nodes per row in
2-d): every interior value is at least +0.0, so the maxima do not
change, and a contiguous reduction costs half of a strided one.  The
time stepper adds each slab's run of rhs into the field in the slab's
own process (`solver._advance`): that is sound because every ignored
run position is a held node, which the same slab stamps with lateral
data before it reduces the part of the field it owns, its cover.
Buffer positions past the last interior node are never written, by the
kernel or the stepper.

A workspace evaluates each slab's run in chunks of whole rows of axis
0, cut evenly to at most CHUNK = 24,000 positions where a row is
shorter (four chunks of 48 rows, 18,480 positions, per 385^2 slab), on
temporaries as long as the longest chunk, which the slabs share.  The
temporaries (6 doubles and a byte a position, 0.9 MB there) and the
chunk's part of the field and of rhs stay in the 2 MB L2 of a core,
where a run as long as the 385^2 slab's 74,000 positions went to L3 on
every ufunc.
Only rhs, which the stepper adds into the field after the kernel, stays
as long as the field.  `quad_form_field` runs the whole interior as one
run on temporaries of its own, because it returns them.  Chunks change
no bit: every operation is elementwise, so a value does not depend on
which run computed it, and the maxima of the chunks combine exactly.

Every buffer starts on a 64-byte cache line (slices of one
over-allocated block), and a second slab starts at the row nearest the
middle whose run start, row * n1 * ... * n_{d-1} positions into each
buffer, is a multiple of 8 doubles (`_cut`: row 192 of 383 at 385^2,
128 of 255 at 257^2), so the rhs and field writes of the two slab
processes never share a line at the cut.  Before, malloc put the
buffers 16 to 48 bytes off a line (and the second 385^2 run a further
56): one slab took 0.122 against 0.147 ms at 129^2, and two slabs 1.03
against 1.13 ms at 385^2 (medians of calls alternated between the two
versions, 2-core Xeon, numpy 2.4, threads then).

On grids with at least SPLIT_NODES = 20,000 interior nodes, with two or
more usable cores and `os.fork`, the workspace cuts the run into two
slabs of whole rows of axis 0 (each reads one ghost row of the other).
It then keeps the field, the rhs buffer and the lateral values in one
anonymous shared mapping (`mmap`, imported only then), and forks one
worker process when it enters its `with` block, which inherits the
slabs and the held nodes.  Each `run` sends the worker the job on one
pipe (the function by name, its arguments and the fault mode, pickled;
the kernel's job, the same every step, is unpickled once), computes the
first slab meanwhile, and reads the second slab's result, or its
exception with the same type and message, from another.  Both sides
poll a shared word for up to SPIN_S = 1 ms before they block on the
pipe: the next job or answer is usually that close, and a process woken
from a pipe takes longer.  The worker ends when the block ends (the
parent closes its pipe and waits for it), or when the parent dies,
because the pipe then ends too.  Two processes, unlike two threads,
never wait for each other's interpreter lock, which a thread takes
again after every ufunc, four times as often once a 385^2 slab runs in
chunks: in a 385^2 Cauchy solve each slab's kernel took 1.12 ms with
both running, half of the 2.34 ms of one process for the whole
interior (below).  Every operation is elementwise, so split and
unsplit results are identical.  The threshold and the chunk length are
the measured optima of whole 2-d stages from `tools/slab_crossover.py`
on a 2-core Xeon (KVM guest, 2 MB L2 a core; Python 3.11, numpy 2.4).
Each stage of about 300 steps counts what a solve pays per step (the
kernel, the CFL bound, `_advance` and `_police`, two hand-offs) and per
stage (the workspace, the fork and the wait); stages alternate between
the configurations, and the tables give the median ms per step on a
paraboloid front spreading into zeros ("dry") or over a floor of 1/512
("floored"):

    one slab against two, ms per step, CHUNK = 24000
                 dry                      floored
        nodes    one     two    two/one   one     two    two/one
         97^2   0.209   0.239    1.14   0.181   0.200    1.11
        113^2   0.263   0.281    1.07   0.215   0.276    1.28
        129^2   0.349   0.347    1.00   0.293   0.299    1.02
        145^2   0.537   0.433    0.81   0.324   0.343    1.06
        161^2   0.710   0.493    0.69   0.591   0.434    0.73
        193^2   0.823   0.583    0.71   0.603   0.528    0.87
        257^2   1.508   1.040    0.69   1.100   0.739    0.67
        385^2   3.806   2.362    0.62   2.824   1.904    0.67

    chunk length at 385^2, two slabs, ms per step
                  dry   floored
           6000   3.186   2.497
          12000   2.699   2.053
          24000   2.679   1.933
          48000   3.144   2.683
          96000   3.060   2.712
          whole   3.087   2.641

So two slabs pay from between 129^2 and 161^2 on, and SPLIT_NODES puts
129^2 (16,129 interior nodes) on one slab and 145^2 (20,449) on two.
Below, the two hand-offs of a step, about 15 us each, and the workspace,
fork and wait of a stage, about 9 ms at 385^2, eat the gain.  Timed as
single steps of a fixed field instead, without the fork, two slabs
already paid at 113^2.
On one slab, `rhs_core` alone took 2.34 ms at 385^2 in chunks against
3.87 ms as one run.
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
# slabs, the second in a worker process (see the module docstring)
SPLIT_NODES = 20_000
# run positions per chunk: a slab evaluates its run in chunks of whole
# rows of axis 0, about this long, whose temporaries stay in L2
CHUNK = 24_000
# seconds a side that waits for the other polls the shared command word
# before it blocks on the pipe
SPIN_S = 1e-3


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


def _aligned(sizes, dtype=float, shared: bool = False) -> list:
    """Arrays of the given sizes, each starting on a 64-byte cache line:
    slices of one block, whole lines apart.  The block comes from
    np.empty, or with `shared` from an anonymous shared mapping, which a
    process forked later writes and reads too."""
    item = np.dtype(dtype).itemsize
    line = 64 // item
    steps = [-(-size // line) * line for size in sizes]
    count = sum(steps) + line
    if shared:
        import mmap

        block = np.frombuffer(mmap.mmap(-1, count * item), dtype)
    else:
        block = np.empty(count, dtype)
    at = -block.ctypes.data % 64 // item
    out = []
    for size, step in zip(sizes, steps):
        out.append(block[at:at + size])
        at += step
    return out


def _cut(rows: int, stride: int) -> int:
    """The interior row at which a second slab starts: of rows 1 to
    rows - 1, the one nearest the middle whose run starts on a 64-byte
    line of every float buffer (row * stride a multiple of 8), or the
    middle row rows // 2 where none does."""
    return min(range(1, rows),
               key=lambda r: (r * stride % 8 != 0, abs(2 * r - rows)))


def _rows(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) positions of a flat buffer as an array of
    `shape` = (m, n1, ..., n_{d-1}): m rows of axis 0, each with its
    boundary nodes of the other axes."""
    return buf[:math.prod(shape)].reshape(shape)


def _interior(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The interior nodes of `_rows(buf, shape)`, whose [r, j1, ...]
    holds node (1 + r0 + r, 1 + j1, ...) for some row r0."""
    return _rows(buf, shape)[(slice(None),) + tuple(
        slice(0, k - 2) for k in shape[1:])]


class _Run:
    """Interior rows [r0, r1) of axis 0 as one contiguous run of the
    flattened field, from node (1+r0, 1, ..., 1) to the node before row
    r1's first (for the last rows: to the last interior node): slices of
    the flat field for the centre and every stencil neighbour (the run
    shifted by a sum of +-strides), the scalings by the constant divisors
    2 h_i, h_i^2 and 4 h_i h_j, and the kernel's buffers for the run.

    The temporaries (the d gradient components, num, g2, lap, tmp and the
    bool mask) hold the run from their position 0; `rhs` is the run's
    view of a flat buffer whose position q holds flat field index
    q + offset.  `g2_in` is the interior view of g2 that the delta == 0
    check reads, and `edges` are strided views of the b (grad[0]) and g2
    temporaries that cover exactly the run positions on box-boundary
    nodes."""

    def __init__(self, grid: GridSpec, r0: int, r1: int, temps: list,
                 mask: np.ndarray, rhs: np.ndarray):
        n, h, d = grid.n, grid.h, grid.dim
        strides = [math.prod(n[i + 1:]) for i in range(d)]
        offset, rows, m = sum(strides), n[0] - 2, r1 - r0
        first = (1 + r0) * strides[0] + offset - strides[0]
        last = first + m * strides[0] - 1 if r1 < rows else \
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
        size = last + 1 - first
        *self.grad, self.num, self.g2, self.lap, self.tmp = (
            t[:size] for t in temps)
        self.mask = mask[:size]
        self.rhs = rhs[first - offset:last + 1 - offset]

        # a temporary's first m * n1 * ... * n_{d-1} positions reshaped to
        # `shape` = (m, n1, ..., n_{d-1}) hold node (1 + r0 + r, 1 + j1,
        # ...) at [r, j1, ...], so the run's box-boundary positions are
        # those with j_a >= n_a - 2 on some axis a >= 1.  The last rows'
        # run stops at [m - 1, n1 - 3, ..., n_{d-1} - 3], so its last row
        # is taken axis by axis up to that node.
        self.shape = (m,) + n[1:]
        self.g2_in = _interior(temps[d + 1], self.shape)

        def edge(head, a):
            # below the index prefix `head`: j_a >= n_a - 2, any other j
            return head + (slice(None),) * (a - len(head)) + \
                (slice(n[a] - 2, None),)

        whole = (slice(0, m - 1 if r1 == rows else m),)
        picks = [edge(whole, a) for a in range(1, d)]
        head = (m - 1,)
        for axis in range(1, d - 1) if r1 == rows else ():
            picks += [edge(head + (slice(0, n[axis] - 3),), a)
                      for a in range(axis + 1, d)]
            head += (n[axis] - 3,)
        self.edges = [view for t in (temps[0], temps[d + 1])
                      for view in (_rows(t, self.shape)[p] for p in picks)
                      if view.size]


class _Slab:
    """Interior rows [r0, r1) of a `StencilWork`: `c0`, the slab's run of
    the flat field, and `rhs`, its view of the workspace's rhs buffer;
    `chunks`, the run cut into `_Run`s of whole rows, each at most about
    CHUNK positions long, on the workspace's temporaries; `cover`, the
    slice of the flat field the slab owns; and `held` and `lateral`: the
    workspace's held nodes that fall in the cover, and the view of their
    lateral values (see `StencilWork`)."""

    def __init__(self, work: "StencilWork", r0: int, r1: int, per: int):
        k = -(-(r1 - r0) // per)
        cuts = [r0 + (r1 - r0) * i // k for i in range(k + 1)]
        self.chunks = [_Run(work.grid, a, b, work.temps, work.mask,
                            work.flat_rhs) for a, b in zip(cuts, cuts[1:])]
        self.c0 = slice(self.chunks[0].c0.start, self.chunks[-1].c0.stop)
        self.rhs = work.flat_rhs[self.c0.start - work.offset:
                                 self.c0.stop - work.offset]
        last = r1 == work.grid.n[0] - 2
        self.cover = slice(self.c0.start if r0 else 0,
                           work.field.size if last else self.c0.stop)
        a, b = np.searchsorted(work.held,
                               [self.cover.start, self.cover.stop])
        self.held, self.lateral = work.held[a:b], work.lateral[a:b]


class StencilWork:
    """Buffers and stencil runs of one grid, built once.

    `field` is a grid-shaped float array that a caller may step in place,
    `rhs` the interior view of the rhs buffer `flat_rhs`, whose position
    q holds the value at flat field index q + offset, where offset is
    the flat index of node (1, ..., 1); it is (n0 - 2) * n1 * ... *
    n_{d-1} long.  `held` are ascending flat indices of nodes a stepper
    holds at lateral data, and `lateral` holds one value for each.  The
    kernel's other buffers, `temps` (the d gradient components, num, g2,
    lap and one temporary) and `mask`, are as long as the longest chunk
    and shared by the slabs' chunks.

    The kernel runs over one contiguous run per chunk, so run positions
    that fall on boundary nodes of axes >= 1 (two per row in 2-d) are
    computed too and ignored: they never reach rhs or the singularity
    check, they raise nothing, and they reach the two maxima only as the
    +0.0 that `_rhs_run` writes there first.  Each slab's run ends where
    the next one begins, so the slabs together write every position of
    one contiguous run of `flat_rhs`, from node (1, ..., 1) to the last
    interior node; the tail past it is never written.  Each slab also
    owns a `cover`: the flat field positions from the start of its run
    (0 for the first slab) to the start of the next one's (the end of
    the field for the last).  The covers tile the field and each holds
    its slab's run, and every ignored run position is a box-boundary
    node, so a caller that adds a slab's rhs into its run and then
    overwrites the held nodes of its cover with lateral data writes
    nothing outside that cover.

    Grids with at least SPLIT_NODES interior nodes, on a machine with two
    or more usable cores and `os.fork`, get two row slabs, other grids
    one.  A two-slab workspace keeps `field`, `flat_rhs` and `lateral` in
    anonymous shared memory, and forks one worker process when it enters
    its `with` block, which runs the second slab of every `run` until the
    block ends.  Outside one, the slabs run in turn in the calling
    process.  Arrays that `rhs_core(..., work)` returns are views of these
    buffers, overwritten by the next call with the same workspace.
    """

    def __init__(self, grid: GridSpec, held=()):
        n = grid.n
        rows = n[0] - 2
        split = rows >= 2 and math.prod(k - 2 for k in n) >= SPLIT_NODES \
            and _cores() >= 2 and hasattr(os, "fork")
        self.grid = grid
        self.strides = tuple(math.prod(n[i + 1:]) for i in range(grid.dim))
        self.offset = sum(self.strides)
        self.held = np.asarray(held, dtype=np.intp)
        field, self.flat_rhs, self.lateral, words = _aligned(
            (math.prod(n), rows * self.strides[0], self.held.size, 2),
            float, split)
        self.field = field.reshape(n)
        self.rhs = _interior(self.flat_rhs, (rows,) + n[1:])
        cuts = (0, _cut(rows, self.strides[0]), rows) if split else (0, rows)
        per = max(1, CHUNK // self.strides[0])
        size = min(per, max(b - a for a, b in zip(cuts, cuts[1:]))) \
            * self.strides[0]
        self.temps = _aligned((size,) * (grid.dim + 4))
        self.mask, = _aligned((size,), bool)
        self.slabs = [_Slab(self, a, b, per) for a, b in zip(cuts, cuts[1:])]
        # the hand-off's shared words: jobs sent, answers sent
        self._words = words.view(np.int64)
        self._worker = None

    def __enter__(self) -> "StencilWork":
        if len(self.slabs) > 1 and self._worker is None:
            import sys

            self._words[:] = 0
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
            cmd, done = os.pipe(), os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in cmd + done:
                    os.close(fd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(cmd[1])
                    os.close(done[0])
                    _serve(self, _Link(self._words, 1, done[1], cmd[0]))
                    code = 0
                finally:
                    os._exit(code)
            os.close(cmd[0])
            os.close(done[1])
            self._worker = pid, _Link(self._words, 0, cmd[1], done[0])
        return self

    def __exit__(self, *exc) -> None:
        if self._worker is not None:
            pid, link = self._worker
            self._worker = None
            link.close()  # the worker reads the end of its pipe and exits
            os.waitpid(pid, 0)

    def run(self, fn: Callable, vals: np.ndarray, *args) -> list:
        """[fn(flat, slab, *args) for each slab], with `flat` the field
        `vals` flattened.  With a worker running, the second slab goes to
        it while this process does the first, on `field`, into which
        `vals` is copied first when it is another array; `fn` (by name),
        `args` and the fault mode are pickled to the worker, and so is
        its answer."""
        if vals.shape != self.grid.shape:
            raise DomainError(f"field of shape {vals.shape} does not match "
                              f"the grid's {self.grid.shape}")
        if self._worker is None:
            flat = vals.reshape(-1)
            return [fn(flat, s, *args) for s in self.slabs]
        if vals is not self.field:
            np.copyto(self.field, vals)
        pid, link = self._worker
        try:
            link.send((fn, args, _FAULT_MODE))
        except BrokenPipeError:
            raise _gone(pid) from None
        try:
            first = fn(self.field.reshape(-1), self.slabs[0], *args)
        except BaseException:
            link.recv()  # the worker must be done with the buffers
            raise
        answer = link.recv()
        if answer is None:
            raise _gone(pid)
        ok, second = answer
        if not ok:
            raise second
        return [first, second]


def _gone(pid: int) -> ChildProcessError:
    return ChildProcessError(f"stencil worker {pid} ended during a step")


class _Link:
    """One end of the hand-off between a workspace and its worker.

    `send` writes an object pickled to the pipe `out`, behind its 8-byte
    length, and then counts it in the shared word `words[side]`; `recv`
    polls the other side's word for up to SPIN_S seconds, since an
    answer or the next job is usually that close and a process that
    blocks on a pipe takes longer to wake, and then reads the next object
    from the pipe `inn`, or None at its end.  The objects themselves
    always travel through the pipes, whose system calls order the memory
    writes of both processes; the words only save the wake-up.  Bytes
    received again, as the kernel's job is every step, are unpickled
    once."""

    def __init__(self, words: np.ndarray, side: int, out: int, inn: int):
        import pickle
        import time

        self._dumps, self._loads = pickle.dumps, pickle.loads
        self._clock = time.perf_counter
        self.words, self.side, self.out, self.inn = words, side, out, inn
        self.sent = self.got = 0
        self._last = b"", None

    def send(self, obj) -> None:
        data = self._dumps(obj, -1)
        data = len(data).to_bytes(8, "little") + data
        while data:
            data = data[os.write(self.out, data):]
        self.sent += 1
        self.words[self.side] = self.sent

    def recv(self):
        word, got = self.words[1 - self.side:2 - self.side], self.got
        deadline = self._clock() + SPIN_S
        while word[0] == got and self._clock() < deadline:
            pass
        data = os.read(self.inn, 1 << 16)
        if not data:
            return None
        size = int.from_bytes(data[:8], "little") + 8
        while len(data) < size:
            part = os.read(self.inn, size - len(data))
            if not part:
                return None
            data += part
        self.got += 1
        if data != self._last[0]:
            self._last = data, self._loads(data[8:])
        return self._last[1]

    def close(self) -> None:
        os.close(self.out)
        self.words[self.side] = self.sent + 1  # stop the other's poll
        os.close(self.inn)


def _serve(work: StencilWork, link: _Link) -> None:
    """The worker's loop: take each job from the link, run it on the
    last slab and answer, until the parent's end of the pipe closes.
    The parent's interrupts are its own to handle."""
    import gc
    import signal

    global _FAULT_MODE
    gc.disable()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    flat, slab = work.field.reshape(-1), work.slabs[-1]
    while (job := link.recv()) is not None:
        fn, args, _FAULT_MODE = job
        try:
            answer = True, fn(flat, slab, *args)
        except Exception as exc:  # noqa: BLE001 - raised in the parent
            answer = False, exc
        link.send(answer)


def _terms(vals: np.ndarray, s: _Run) -> None:
    """Fill the run's grad, num = <D^2u Du, Du>, g2 = |Du|^2 and
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


def _rhs_run(vals: np.ndarray, s: _Run, params: Params) -> tuple:
    """rhs = (eps lap + (k beta_c(u)) ratio) + g2 on one run, into its
    rhs view; returns the maxima of beta_c(u) and g2 over the run's
    interior nodes, which are those over the run once +0.0 is written
    into its box-boundary positions of b and g2 (every interior b and
    g2 is at least +0.0 or NaN).  k == 1 skips its multiply, which would
    leave every value as it is."""
    _terms(vals, s)
    ratio = s.lap if _FAULT_MODE == "plain-laplacian" else \
        _quotient(s.num, s.g2, s.g2_in, params.delta, out=s.tmp)
    b = s.grad[0]
    _beta_into(vals[s.c0], params.c, b, s.rhs, s.mask)
    for edge in s.edges:
        edge.fill(0.0)
    maxima = float(b.max()), float(s.g2.max())
    if params.k != 1.0:
        b *= params.k
    b *= ratio
    np.multiply(s.lap, params.eps, out=s.rhs)
    s.rhs += b
    if _FAULT_MODE != "drop-transport":
        s.rhs += s.g2
    return maxima


def _top(values) -> float:
    """The largest of some floats, or NaN if one is NaN, as np.max."""
    values = tuple(values)
    return max(values) if all(v == v for v in values) else math.nan


def _rhs_slab(vals: np.ndarray, s: _Slab, params: Params) -> tuple:
    """`_rhs_run` chunk by chunk over one slab: its maxima of beta_c(u)
    and g2."""
    return tuple(map(_top, zip(*(_rhs_run(vals, c, params)
                                 for c in s.chunks))))


def quad_form_field(vals: np.ndarray, grid: GridSpec) -> tuple:
    """Interior arrays (num, g2, lap) of the stencil in one pass.

    num = <D^2 u Du, Du>, g2 = |Du|^2, lap = trace D^2 u, all with the
    centered differences used pointwise by stencil_eval.  The run is the
    whole interior, on temporaries of its own, which are returned.
    """
    if vals.shape != grid.shape:
        raise DomainError(f"field of shape {vals.shape} does not match "
                          f"the grid's {grid.shape}")
    rows = grid.n[0] - 2
    size = rows * math.prod(grid.n[1:])
    temps = _aligned((size,) * (grid.dim + 5))
    mask, = _aligned((size,), bool)
    run = _Run(grid, 0, rows, temps[:-1], mask, temps[-1])
    _terms(vals.reshape(-1), run)
    return tuple(_interior(t, run.shape) for t in temps[grid.dim:grid.dim + 3])


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
    bmax, g2max = map(_top, zip(*work.run(_rhs_slab, vals, params)))
    return work.rhs, bmax, g2max
