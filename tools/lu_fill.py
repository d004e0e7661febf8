"""Print the fill, the flops and the factor time of the psi LU that
``chasflow solve`` factors, and the time and memory of the build that
forms it, per grid shape.

Usage (from anywhere):

    python3 tools/lu_fill.py [--src SRC] [--repeats N] NXxNY [NXxNY ...]

For each shape, runs ``chasflow solve`` in this interpreter with the
``perfbench/run.py`` ``ORACLE`` settings at grid.nx=NX, grid.ny=NY
(amplitude 0.05, no Newton check) and catches Picard's problem and the one
CSC that SuperLU factors: Picard's row-scaled linearized psi system, in
nested-dissection order.  The JSON on stdout gives, per shape: the
system's nonzeros; ``fill``, the nonzeros of L and U (the unit diagonal of
L not counted); ``flops``, the sum over the pivots k of 2 |L column k|
|U row k|, both counted off the diagonal; ``factor_s``, the median wall
time of N more SuperLU factors of that CSC; ``build_s``, the median wall
time of N more builds of the system from the problem up to the CSC that
SuperLU receives (``linearized.psi_system``, or in a checkout before it the
assembly, ``GridSystem`` and ``grid_lu``'s preparation), with the process's
memos as the run left them; and ``build_traced_MB``, the tracemalloc peak
of one such build above its start, in MB.  SRC (default this checkout's
``src``) is where chasflow is imported from, so one copy of this tool
measures any checkout.  Set ``OPENBLAS_NUM_THREADS=1`` for times that
compare.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
from report_identity import ROOT, _perfbench_sets


def oracle_sets():
    """``perfbench/run.py`` ``ORACLE`` without its grid and Newton keys."""
    return [s for s in _perfbench_sets()[1]
            if not s.startswith(("grid.", "solver.newton_check"))]


def lu_counts(lu):
    """(fill, flops) of a SuperLU factor."""
    L, U = lu.L.tocsc(), lu.U.tocsr()
    below = np.diff(L.indptr) - 1            # L's unit diagonal is stored
    right = np.diff(U.indptr) - 1
    return L.nnz - L.shape[0] + U.nnz, int(2 * (below * right).sum())


def measure(nx, ny, repeats):
    import scipy.sparse.linalg as spla
    from chasflow import cli, discretization, linearized, nonlinear

    caught, splu, solve = [], spla.splu, nonlinear.solve_linearized

    def catch_problem(problem):
        if not caught:
            caught.append(problem)
        return solve(problem)

    def catch_csc(B, **options):
        caught.append((B.copy(), options))
        return splu(B, **options)

    nonlinear.solve_linearized, spla.splu = catch_problem, catch_csc
    try:
        with tempfile.TemporaryDirectory() as out:
            argv = ["solve", "--out", out]
            for s in oracle_sets() + [f"grid.nx={nx}", f"grid.ny={ny}",
                                      "solver.newton_check=false",
                                      "profile.perturbation.amplitude=0.05"]:
                argv += ["--set", s]
            if cli.main(argv) != 0:
                raise SystemExit(f"chasflow {' '.join(argv)} failed")
    finally:
        nonlinear.solve_linearized, spla.splu = solve, splu
    problem, (B, options) = caught
    if hasattr(linearized, "psi_system"):
        def build():
            return linearized.psi_system(problem).lu
    else:                           # a checkout before the one-pass build
        def build():
            return discretization.GridSystem(
                linearized.assemble_linearized_operator(problem),
                problem.grid, linearized.PSI_WALLS).lu
    spla.splu = lambda *_, **__: types.SimpleNamespace(nnz=0)   # no factor
    try:
        build_s = statistics.median(timed(build) for _ in range(repeats))
        tracemalloc.start()
        build()
        traced = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    finally:
        spla.splu = splu
    lu = splu(B, **options)
    factor_s = statistics.median(timed(lambda: splu(B, **options))
                                 for _ in range(repeats))
    fill, flops = lu_counts(lu)
    return {"shape": f"{nx}x{ny}", "nnz": int(B.nnz), "fill": int(fill),
            "flops": flops, "factor_s": factor_s, "build_s": build_s,
            "build_traced_MB": traced / 1e6}


def timed(fn):
    """The wall time of one call of fn."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shapes", nargs="+", metavar="NXxNY")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    rows = [measure(*map(int, s.split("x")), args.repeats) for s in args.shapes]
    json.dump(rows, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
