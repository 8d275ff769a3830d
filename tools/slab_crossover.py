"""Time the explicit stage on one slab against two, and the chunk length
of the kernel, to set `operators.SPLIT_NODES` and `operators.CHUNK`.

    PYTHONPATH=src python3 tools/slab_crossover.py [--reps N] [--steps S]

Each measurement is one whole `solver._run_stage` of about S steps, so
it counts everything a solve pays per step (the kernel, the CFL bound,
`_advance`, `_police`, the hand-offs to the slab worker) and per stage
(building the workspace, forking the worker and waiting for it).  The
problem is the 2-d radial one of the `radial-oracle` benchmark at n^2
nodes: a paraboloid of height 0.8 and radius 0.5 on [-1, 1]^2 with
m = 2 and eps = delta = 1e-3, on zero lateral data ("dry", where the
front spreads into zeros) or lifted by the ladder floor 1/512 of the
Cauchy reference ("floored").  The configurations compared alternate,
stage by stage, and the tables give the median time of a step in ms.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from ipme import operators, solver
from ipme.core import BoundaryData, GridSpec, Params

PARAMS = Params(m=2.0, eps=1e-3, delta=1e-3)
SIDES = (97, 113, 129, 145, 161, 193, 257, 385)
CHUNKS = (6_000, 12_000, 24_000, 48_000, 96_000, 10**9)
FLOORS = {"dry": 0.0, "floored": 1.0 / 512}


def _boundary(floor: float) -> BoundaryData:
    return BoundaryData.from_functions(
        u0=lambda X: floor + 0.8 * np.maximum(
            1.0 - np.sum(X * X, axis=1) / 0.25, 0.0),
        g=lambda X, t: np.full(len(X), floor), time_dependent=False)


def _ms_per_step(n: int, floor: float, split_nodes: int, chunk: int,
                 steps: int) -> float:
    grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (n, n))
    operators.SPLIT_NODES, operators.CHUNK = split_nodes, chunk
    # the CFL step is about h^2 / 4 while the peak stays near 0.8
    t_end = steps * grid.h[0] ** 2 / 4.0
    t0 = time.perf_counter()
    rep = solver._run_stage(grid, PARAMS, _boundary(floor), t_end, (), None)
    return 1e3 * (time.perf_counter() - t0) / rep.n_steps


def _compare(configs: list, reps: int, steps: int) -> list:
    """Median ms per step of each (n, floor, split_nodes, chunk), stages
    alternated."""
    times = [[] for _ in configs]
    for _ in range(reps):
        for acc, config in zip(times, configs):
            acc.append(_ms_per_step(*config, steps))
    return [statistics.median(t) for t in times]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=7,
                    help="alternated stages per configuration")
    ap.add_argument("--steps", type=int, default=300,
                    help="steps per stage, about")
    args = ap.parse_args(argv)
    chunk = operators.CHUNK
    print(f"one slab against two, ms per step, CHUNK = {chunk}")
    print("             dry                      floored")
    print("    nodes    one     two    two/one   one     two    two/one")
    for n in SIDES:
        row = _compare([(n, floor, split, chunk) for floor in FLOORS.values()
                        for split in (10**9, 1)], args.reps, args.steps)
        print(f"    {f'{n}^2':>5}" + "".join(
            f"  {one:6.3f}  {two:6.3f}   {two / one:5.2f}"
            for one, two in zip(row[::2], row[1::2])))
    print("\nchunk length at 385^2, two slabs, ms per step")
    print("              dry   floored")
    row = _compare([(385, floor, 1, c) for c in CHUNKS
                    for floor in FLOORS.values()], args.reps, args.steps)
    for c, dry, floored in zip(CHUNKS, row[::2], row[1::2]):
        print(f"    {'whole' if c == 10**9 else c:>7}  {dry:6.3f}  "
              f"{floored:6.3f}")


if __name__ == "__main__":
    main()
