"""Choose the master-seed pool of every benchmark cell; writes bench/pools.json.

    python3 bench/screen.py

The polynomial work of one check varies several-fold with its random inputs
(T3.8.4 on twisted:2 does 5 M to 16 M term pairs over master seeds 1-14),
far more than the bounds in BENCHMARK.json allow between runs at different
workload seeds.  So each (check, chart) cell draws its master seed from a
pool of typical inputs: the check runs once at each master seed 1-64, its
work is counted, and the pool is the four seeds whose work is nearest the
median.  Work is the number of inner-loop steps of the exact arithmetic:
term pairs of polynomial products, terms of polynomial sums, and
Gaussian-rational products (which carry the matrix checks).  Counts, not
times, so the choice does not depend on the machine.  Uses two worker
processes and takes about forty minutes on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import run

CANDIDATES = range(1, 65)
POOL_SIZE = 4
WORKERS = 2
CELLS = sorted({(chart, cid) for spec in run.WORKLOADS.values() for chart, cid in spec.cells()})


def count_work(seed: int) -> dict:
    """Work of every cell at one master seed, keyed by pool key."""
    sys.path.insert(0, str(run.SRC))
    from acderiv import algebra, cli

    poly, gauss = algebra.PolyScalar, algebra.GaussRational
    poly_mul, poly_add, gauss_mul = poly.__mul__, poly.__add__, gauss.__mul__
    work = 0

    def counted_poly_mul(left, right):
        nonlocal work
        if isinstance(right, poly):
            work += len(left.terms) * len(right.terms)
        return poly_mul(left, right)

    def counted_poly_add(left, right):
        nonlocal work
        if isinstance(right, poly):
            work += len(left.terms) + len(right.terms)
        return poly_add(left, right)

    def counted_gauss_mul(left, right):
        nonlocal work
        work += 1
        return gauss_mul(left, right)

    out = {}
    poly.__mul__ = poly.__rmul__ = counted_poly_mul
    poly.__add__ = poly.__radd__ = counted_poly_add
    gauss.__mul__ = gauss.__rmul__ = counted_gauss_mul
    try:
        for chart, cid in CELLS:
            work = 0
            status, _ = run.run_cell(cli, chart, cid, seed)
            if status != run.expected_status(cid, chart):
                raise RuntimeError(f"{cid} on {chart} at seed {seed}: {status}")
            out[run.pool_key(cid, chart)] = work
    finally:
        poly.__mul__ = poly.__rmul__ = poly_mul
        poly.__add__ = poly.__radd__ = poly_add
        gauss.__mul__ = gauss.__rmul__ = gauss_mul
    print(f"seed {seed} screened", file=sys.stderr, flush=True)
    return out


def main() -> int:
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
        work = dict(zip(CANDIDATES, pool.map(count_work, CANDIDATES)))
    pools = {}
    for key in work[CANDIDATES[0]]:
        median = statistics.median(work[seed][key] for seed in CANDIDATES)
        nearest = sorted(CANDIDATES, key=lambda s: (abs(work[s][key] - median), s))
        pools[key] = sorted(nearest[:POOL_SIZE])
        print(f"{key}: median work {median}, pool {pools[key]} "
              f"{[work[s][key] for s in pools[key]]}", file=sys.stderr)
    lines = [f"  {json.dumps(key)}: {json.dumps(pools[key])}" for key in sorted(pools)]
    Path(run.POOLS_FILE).write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
