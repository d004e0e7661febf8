import gc
import types

import numpy as np
import pytest
import scipy.sparse as sp

from chasflow import discretization
from chasflow.discretization import (ChannelGrid, DiffOps, GridLU, GridSystem,
                                     boundary_rows, build_channel_grid,
                                     diff_matrix, lsq_slope, tanh_stretched)
from chasflow.linearized import (PSI_WALLS, _momentum_balances,
                                 _momentum_residual)
from chasflow.profiles import PerturbationSpec, build_profile
from chasflow.verification import RunSpec


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


def point_spec(case, nx, ny, **settings):
    """The RunSpec of a point on ``build_channel_grid(0.1, nx, ny, eps)``:
    ny is never refined, and a layer needs that function's 6 nodes."""
    return RunSpec(case, nx=nx, ny=ny, ny_cap=ny, min_layer_nodes=6,
                   **settings)


def make_grid(n, L=0.1, sigma=1.2):
    x = np.linspace(0.0, L, 2 * n + 1)
    y = tanh_stretched(0.0, 2.0, n + 1, sigma)
    return ChannelGrid(L, x, y)


def mms_convergence(apply_level, levels):
    """Observed order of accuracy from a refinement study: the slope of
    log err against log h, where apply_level(level) returns (h, err), err
    the measured error against the manufactured solution at that level."""
    hs, errs = [], []
    for lv in levels:
        h, e = apply_level(lv)
        hs.append(h)
        errs.append(max(e, 1e-300))
    slope, _, _ = lsq_slope(np.log(hs), np.log(errs))
    return slope, np.array(hs), np.array(errs)


# -- the psi system through the sparse algebra: the reference for the build --

def _kron(ops, mx, my):
    """``scipy.sparse.kron(mx, my)`` as CSR (None an identity), array for
    array, from the fixed-width 1-D stencils of the grid of ``ops``: row
    ``i * ny + j`` holds ``wx * wy`` in the columns ``cx * ny + cy``."""
    (cx, wx), (cy, wy) = ((np.arange(k)[:, None], np.ones((k, 1))) if m is None
                          else (m.indices.reshape(k, -1), m.data.reshape(k, -1))
                          for m, k in zip((mx, my), (ops.nx, ops.ny)))
    cols = (cx[:, None, :, None] * ops.ny + cy[None, :, None, :]).ravel()
    n, width = ops.nx * ops.ny, cx.shape[1] * cy.shape[1]
    return sp.csr_matrix(((wx[:, None, :, None] * wy[None, :, None, :]).ravel(),
                          cols, np.arange(0, cols.size + 1, width)), shape=(n, n))


def kron(ops, op):
    """The Kronecker CSR matrix of the operator named ``op`` ("Dx", ...,
    "Dxyy", or "bih", the biharmonic) on the grid of ``ops``, built afresh
    on each call."""
    if op == "bih":
        return (_kron(ops, diff_matrix(ops.x, 4), None)
                + 2.0 * _kron(ops, ops.d2x, ops.d2y)
                + _kron(ops, None, diff_matrix(ops.y, 4)))
    return _kron(ops, *ops._axes(op))


def scale_rows(c, M):
    """``sp.diags(c.ravel()) @ M`` for a CSR M, value for value: row r of M
    times c.flat[r], the entries that scale to exact zeros dropped, and a
    row with c.flat[r] == 0 empty even where M holds inf or nan."""
    counts = np.diff(M.indptr)
    data = np.repeat(c, counts)
    with np.errstate(invalid="ignore"):      # 0 * inf and 0 * nan, cleared
        data *= M.data
    data[np.repeat(np.ravel(c) == 0.0, counts)] = 0.0
    out = sp.csr_matrix((data, M.indices.copy(), M.indptr.copy()), shape=M.shape)
    out.eliminate_zeros()
    return out


def assemble_linearized_operator(problem):
    """u_s psi_xyy + u_s psi_xxx - lap(u_s) psi_x + S(psi_y, -psi_x) - eps lap^2,
    its coefficients row scalings; S only if v_s, us_x or vs_x is nonzero."""
    ops, bg = problem.ops, problem.bg
    Dx = kron(ops, "Dx")
    A = (scale_rows(bg["u_s"], kron(ops, "Dxyy") + kron(ops, "Dxxx"))
         - scale_rows(bg["lap_us"], Dx))
    if any(np.any(bg[k]) for k in ("v_s", "us_x", "vs_x")):
        Dy, vs = kron(ops, "Dy"), bg["v_s"]
        A = A + (Dy @ (scale_rows(bg["us_x"], Dy) + scale_rows(vs, kron(ops, "Dyy")))
                 + Dx @ scale_rows(vs, Dy @ Dx) - Dx @ scale_rows(bg["vs_x"], Dy))
    return A - problem.eps * kron(ops, "bih")


def nd_order(A, nx, ny):
    """The CSC of A with its rows and columns in ``nested_dissection(nx,
    ny)`` order (looked up at each call), as SuperLU receives it."""
    perm = discretization.nested_dissection(nx, ny)
    rank = np.empty(perm.size, dtype=np.int64)
    rank[perm] = np.arange(perm.size)
    A = sp.csr_matrix(A)
    # rows in elimination order; tocsc's counting pass keeps that order
    return sp.csr_matrix((A.data, rank[A.indices], A.indptr),
                         shape=A.shape)[perm].tocsc()


def grid_lu(A, nx, ny):
    """Nested-dissection LU of a system A on the nodes of an nx x ny grid,
    given in node order."""
    return GridLU(nd_order(A, nx, ny), nx, ny)


def grid_system(A, grid, walls=PSI_WALLS):
    """A ``GridSystem`` of the operator A with the ``boundary_rows`` of the
    condition table walls in place of its rows there (the others keep every
    entry, explicit zeros included), formed through the sparse algebra: the
    reference for ``linearized.psi_system``."""
    rows = boundary_rows(grid.x, grid.y, walls)
    bnd = np.fromiter(rows, int)
    A = sp.csr_matrix(A)
    n, cols = A.shape[0], [c for c, _ in rows.values()]
    R = sp.csr_matrix((np.concatenate([v for _, v in rows.values()]),
                       np.concatenate(cols),
                       np.cumsum([0] + [len(c) for c in cols])),
                      shape=(len(rows), n))
    order = np.arange(n)               # A's rows, R's in place of some
    order[bnd] = n + np.arange(len(rows))
    A = sp.vstack([A, R], format="csr")[order]
    A.sum_duplicates()       # sorts columns: A @ p adds as CSC did
    d = abs(A).max(axis=1).toarray().ravel()
    d = np.where(d == 0.0, 1.0, d)
    system = GridSystem(grid, bnd, d, nd_order(scale_rows(1.0 / d, A), grid.nx, grid.ny))
    system.A = A
    return system


def psi_reference(problem):
    """The psi ``GridSystem`` of problem through the sparse algebra."""
    return grid_system(assemble_linearized_operator(problem), problem.grid)


def lil_replace_rows(A, assignments):
    """Row replacement through LIL, the reference for ``GridSystem``'s.

    Sets each (row, cols, vals) of ``assignments`` on a LIL copy of ``A`` in
    order, so a later assignment to a row wins, then converts to CSC.  ``A``
    is left as it was (``tolil`` sorts a CSR input's columns in place).
    """
    A = A.copy().tolil()
    for r, cols, vals in assignments:
        A.rows[r] = list(cols)
        A.data[r] = list(vals)
    return A.tocsc()


def same_arrays(a, b):
    """Two compressed sparse matrices store the same arrays, byte for byte."""
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("data", "indices", "indptr"))


def assemble_reference(problem):
    """The psi operator of ``problem`` from products of sparse diagonal
    coefficient matrices and the Kronecker CSRs, S always included: the
    reference for ``assemble_linearized_operator``, which scales rows in
    place of the products and skips an S that would be empty.  Its columns
    are in the order the products leave them."""
    ops, bg = problem.ops, problem.bg
    us, vs, usx, vsx, lap_us = (sp.diags(bg[k].ravel()) for k in (
        "u_s", "v_s", "us_x", "vs_x", "lap_us"))
    Dx, Dy, Dyy, Dxxx, Dxyy, bih = (kron(ops, op) for op in (
        "Dx", "Dy", "Dyy", "Dxxx", "Dxyy", "bih"))
    A = us @ (Dxyy + Dxxx) - lap_us @ Dx
    S = Dy @ (usx @ Dy + vs @ Dyy) + Dx @ (vs @ (Dy @ Dx)) - Dx @ (vsx @ Dy)
    return (A + S - problem.eps * bih).tocsr()


def sorted_columns(M):
    """A copy of the CSR M with each row's columns in increasing order."""
    M = M.copy()
    M.sort_indices()
    return M


def newton_jacobian(problem, u, v):
    """Newton's row-scaled Jacobian diag(1/d) (A - diag(mask) curl J_N) at
    the iterate (u, v), assembled from sparse products (mask is 0 on the
    boundary rows of ``problem.system``): the reference for the operator
    that ``newton_solve`` applies from the stencils."""
    ops, system = problem.ops, problem.system
    c = problem.eps ** problem.M0
    uy = sp.diags(ops.apply("Dy", u).ravel())
    ux = sp.diags(ops.apply("Dx", u).ravel())
    vy = sp.diags(ops.apply("Dy", v).ravel())
    vx = sp.diags(ops.apply("Dx", v).ravel())
    du = sp.diags(u.ravel())
    dv = sp.diags(v.ravel())
    Dx, Dy, A = kron(ops, "Dx"), kron(ops, "Dy"), psi_reference(problem).A
    J1 = -c * (uy @ (-Dx) + dv @ (Dy @ Dy) + ux @ Dy + du @ (Dx @ Dy))
    J2 = -c * (vy @ (-Dx) + dv @ (Dy @ (-Dx)) + vx @ Dy + du @ (Dx @ (-Dx)))
    mask = np.ones(A.shape[0])
    mask[system.bnd] = 0.0
    return (sp.diags(1.0 / system.d)
            @ (A - sp.diags(mask) @ (Dy @ J1 - Dx @ J2))).tocsr()


def momentum_residual(sol, problem):
    """The two linearized momentum residuals of sol with its recovered P,
    formed afresh: the reference for the pair recover_pressure leaves on
    sol.momentum."""
    return _momentum_residual(problem, sol.P, problem.nonlinear_terms(),
                              _momentum_balances(problem, sol.u, sol.v))


# what a reachability walk does not enter: process-wide memos and code hang
# off these, and a point's data does not
_NOT_DATA = (type, types.ModuleType, types.FunctionType, types.MethodType,
             types.BuiltinFunctionType)


def reachable(root, stop=()):
    """Every object reachable from root through the references the garbage
    collector sees (containers, instance dicts, an array's base), entering
    no class, module or function, nor any object in stop."""
    seen, stack, out = {id(s) for s in stop}, [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_DATA):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def held_bytes(root, stop=()):
    """The nbytes summed over the distinct base arrays (an array that is no
    view) reachable from root, as ``reachable`` walks."""
    bases = {}
    for obj in reachable(root, stop):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
    return sum(b.nbytes for b in bases.values())
