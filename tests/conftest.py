import numpy as np
import pytest

from chasflow.discretization import ChannelGrid, DiffOps, build_channel_grid, tanh_stretched
from chasflow.profiles import PerturbationSpec, build_profile


@pytest.fixture(scope="session")
def channel_48x96():
    return build_channel_grid(0.1, 48, 96, 1e-2)


@pytest.fixture(scope="session")
def ops_48x96(channel_48x96):
    g = channel_48x96
    return DiffOps(g.x, g.y)


@pytest.fixture(scope="session")
def couette():
    return build_profile("couette", 1.0, 0.0)


@pytest.fixture(scope="session")
def poiseuille():
    return build_profile("poiseuille", 0.0, 1.0)


@pytest.fixture(scope="session")
def perturbed_couette():
    """Couette with a fixed 0.05 bump (the finite-perturbation setup)."""
    pert = PerturbationSpec(0.05, 0.0)
    return build_profile("couette", 1.0, 0.0, perturbation=pert, eps=1e-2)


def make_grid(n, L=0.1, sigma=1.2):
    x = np.linspace(0.0, L, 2 * n + 1)
    y = tanh_stretched(0.0, 2.0, n + 1, sigma)
    return ChannelGrid(L, x, y)


def lil_replace_rows(A, assignments):
    """Row replacement through LIL, the reference for ``replace_rows``.

    Sets each (row, cols, vals) of ``assignments`` on ``A.tolil()`` in
    order, so a later assignment to a row wins, then converts to CSC.
    """
    A = A.tolil()
    for r, cols, vals in assignments:
        A.rows[r] = list(cols)
        A.data[r] = list(vals)
    return A.tocsc()


def same_arrays(a, b):
    """Two compressed sparse matrices store the same arrays, byte for byte."""
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("data", "indices", "indptr"))
