"""Print the fill, the flops and the factor time of the psi LU that
``chasflow solve`` factors, per grid shape.

Usage (from anywhere):

    python3 tools/lu_fill.py [--src SRC] [--repeats N] NXxNY [NXxNY ...]

For each shape, runs ``chasflow solve`` in this interpreter with the
``perfbench/run.py`` ``ORACLE`` settings at grid.nx=NX, grid.ny=NY
(amplitude 0.05, no Newton check) and catches the one system that
``grid_lu`` factors: Picard's row-scaled linearized psi system.  The JSON on
stdout gives, per shape: the system's nonzeros; ``fill``, the nonzeros of
L and U (the unit diagonal of L not counted); ``flops``, the sum over the
pivots k of 2 |L column k| |U row k|, both counted off the diagonal; and
``factor_s``, the median wall time of N more ``grid_lu`` calls on the same
system.  SRC (default this checkout's ``src``) is where chasflow is imported
from, so one copy of this tool measures any checkout.  Set
``OPENBLAS_NUM_THREADS=1`` for times that compare.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
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
    from chasflow import cli, discretization

    caught, grid_lu = [], discretization.grid_lu

    def catch(A, *shape):
        caught.append((A.copy(), shape))
        return grid_lu(A, *shape)

    discretization.grid_lu = catch
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
        discretization.grid_lu = grid_lu
    (A, shape), = caught
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        lu = grid_lu(A, *shape)
        times.append(time.perf_counter() - start)
    fill, flops = lu_counts(lu._lu)
    return {"shape": f"{shape[0]}x{shape[1]}", "nnz": int(A.nnz),
            "fill": int(fill), "flops": flops,
            "factor_s": statistics.median(times)}


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
