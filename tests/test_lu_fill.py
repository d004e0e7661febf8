"""The counts of tools/lu_fill.py on a factor whose size is known: a
diagonally dominant tridiagonal matrix in its natural order, whose L and U
are bidiagonal."""

import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import lu_fill  # noqa: E402


def test_fill_and_flops_of_a_tridiagonal_factor():
    n = 40
    A = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
                 [-1, 0, 1], format="csc")
    lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.01)
    # L: n - 1 entries below its unit diagonal; U: n + n - 1
    # each of the first n - 1 pivots updates one entry: 2 flops
    assert lu_fill.lu_counts(lu) == (3 * n - 2, 2 * (n - 1))
    # the tool sets the grid and the Newton check itself
    assert not any(s.startswith(("grid.", "solver."))
                   for s in lu_fill.oracle_sets())
