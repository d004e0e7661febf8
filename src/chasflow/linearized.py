"""Linearized remainder solver via the stream-function biharmonic formulation.

The curl of the linearized momentum system reduces to a fourth-order scalar
equation for psi (u = psi_y, v = -psi_x): the velocity pair is then exactly
divergence-free and the outflow condition v_xx = 0 becomes a plain boundary
row on psi.  The pressure is recovered afterwards from a Poisson problem with
Neumann data read off the momentum equations.  All diagnostic norms (A1-A3
and the weighted solution norm) live here as well.
"""

import functools
import logging

import numpy as np
import scipy.sparse as sp

from .discretization import (GridSystem, SeparableSystem, boundary_rows, diff_matrix,
                             line_modes, nested_dissection, stencil_columns)

log = logging.getLogger(__name__)


class LinearSolveError(RuntimeError):
    pass


class LinearizedProblem:
    """Background fields, frozen convected pair and force for one solve."""

    def __init__(self, background, eps, M0, F1=None, F2=None,
                 ubar=None, vbar=None, *, grid, ops):
        self.bg = background          # dict of u_s, v_s and derivatives
        self.eps = float(eps)
        self.M0 = float(M0)
        self.grid = grid
        self.ops = ops
        shape = background["u_s"].shape
        self.F1 = np.zeros(shape) if F1 is None else F1
        self.F2 = np.zeros(shape) if F2 is None else F2
        self.ubar = np.zeros(shape) if ubar is None else ubar
        self.vbar = np.zeros(shape) if vbar is None else vbar
        self.system = None   # its psi GridSystem; picard_solve sets it

    def nonlinear_terms(self, ubar=None, vbar=None):
        """N1, N2 of the frozen pair (the eps^M0-weighted quadratic terms)."""
        ops = self.ops
        ub = self.ubar if ubar is None else ubar
        vb = self.vbar if vbar is None else vbar
        c = self.eps ** self.M0
        uy, ux, vy, vx = (ops.apply(op, f) for f in (ub, vb) for op in ("Dy", "Dx"))
        N1 = -c * (vb * uy + ub * ux)
        N2 = -c * (vb * vy + ub * vx)
        return N1, N2


class RemainderSolution:
    def __init__(self, grid, ops, u, v, psi=None):
        self.grid = grid
        self.ops = ops
        self.u = u
        self.v = v
        self.P = self.momentum = self.problem = None  # set by recover_pressure
        self.psi = psi
        self.norms = {}
        self.residuals = {}


# The psi system's wall conditions (a ``boundary_rows`` table): x=0: psi = 0
# (col 0), psi_xx = 0 (col 1); x=L: psi_x = 0 (last col), psi_xxx = 0 (col
# nx-2); y walls: psi = 0 (wall rows), psi_y = 0 (adjacent rows).
# Corner-adjacent rows give wall conditions precedence.  The wall psi_y rows
# use the same 3-pt stencil as the Dy boundary rows, so u = Dy psi vanishes
# at the walls to machine precision.
_EVERY, _INNER = slice(None), slice(1, -1)
PSI_WALLS = (
    (1, True, 0, 1, 0, _EVERY), (1, False, 0, 1, 0, _EVERY),
    (0, True, 0, 1, 0, _EVERY), (0, False, 1, 4, 0, _INNER),
    (0, True, 2, 5, 1, _INNER), (0, False, 3, 6, 1, _INNER),
    (1, True, 1, 3, 1, slice(2, -2)), (1, False, 1, 3, 1, slice(2, -2)))


_CHUNK = 256        # psi system columns (or rows) formed at a time


def psi_system(problem):
    """The GridSystem of ``psi_operator(problem)``, its values written into
    the CSC of diag(1/d) A in nested-dissection order that SuperLU factors."""
    data, indices, indptr, _, rows = _psi_entries(problem, True)
    d = np.zeros(indptr.size - 1)           # in nested-dissection order
    np.maximum.at(d, indices, np.abs(data))
    d[d == 0.0] = 1.0
    data *= (1.0 / d)[indices]
    rank = np.argsort(nested_dissection(problem.grid.nx, problem.grid.ny))
    return GridSystem(problem.grid, np.fromiter(rows, int), d[rank],
                      _kept(sp.csc_matrix, data, indices, indptr, data != 0.0))


def psi_operator(problem):
    """The node-order CSR of u_s psi_xyy + u_s psi_xxx - lap(u_s) psi_x
    + S(psi_y, -psi_x) - eps lap^2 psi (S if v_s, us_x or vs_x is nonzero)
    with the PSI_WALLS rows, formed as the sparse algebra forms it: u_s (Dxyy
    + Dxxx) - lap_us Dx [+ (Dy (us_x Dy + v_s Dyy) + Dx v_s (Dy Dx)) - Dx
    vs_x Dy] - eps ((D4x + 2 D2x D2y) + D4y), each product summed over its
    inner node upwards from 0.0; exact zeros dropped but in wall rows."""
    data, indices, indptr, at_wall, _ = _psi_entries(problem, False)
    keep = data != 0.0
    keep[at_wall] = True
    return _kept(sp.csr_matrix, data, indices, indptr, keep)


def _kept(fmt, data, indices, indptr, keep):
    """The square fmt (CSR or CSC) of the entries ``keep``, compacted in place."""
    m, kept = 0, np.empty(np.count_nonzero(keep), indices.dtype)
    for a in range(0, data.size, 16 * _CHUNK):
        e = slice(a, a + 16 * _CHUNK)
        n = np.count_nonzero(keep[e])
        data[m:m + n], kept[m:m + n] = data[e][keep[e]], indices[e][keep[e]]
        m += n
    indptr = indptr - np.searchsorted(np.flatnonzero(~keep), indptr)
    return fmt((data[:m], kept, indptr), shape=(indptr.size - 1,) * 2)


@functools.lru_cache(maxsize=2)     # the points of a sweep share one shape
def _psi_pattern(nx, ny, coupled, walls, nd):
    """The read-only (indices, indptr, at_wall) of the psi system's CSC in
    nested-dissection order (nd) or CSR in node order: a wall row holds its
    ``boundary_rows`` columns (``at_wall``, in their order), any other the
    union of its terms' stencil windows.  ``walls`` is repr(PSI_WALLS)."""
    X, Y = ([sp.csr_matrix((np.ones(c.size, bool), c.ravel(), np.arange(
        0, c.size + 1, c.shape[1]))) for c in (stencil_columns(n, k) if k else
                                               np.arange(n)[:, None] for k in range(5))]
            for n in (nx, ny))      # the identity's and d_k's stencil windows
    # Dxxx and D4x, Dxyy and D2x D2y (Dx's window lies in theirs), D4y, S's
    terms = [(X[3] + X[4], Y[0]), (X[1] + X[2], Y[2]), (X[0], Y[4])] + (
        [(X[0], Y[1] @ (Y[1] + Y[2])), (X[1] @ X[1], Y[1])] if coupled else [])
    rows = boundary_rows(range(nx), range(ny), PSI_WALLS)
    cols = [c for c, _ in rows.values()]
    r, c = np.repeat(list(rows), list(map(len, cols))), np.concatenate(cols)
    # a wall entry holds 2 + its place in the wall rows' list, the rest 1
    M = sp.csr_matrix((np.arange(2, 2 + r.size, dtype=np.int32), (r, c)), (nx * ny,) * 2)
    M += sp.diags((np.diff(M.indptr) == 0).astype(np.int32), format="csr",
                  dtype=np.int32) @ sum(sp.kron(a, b, format="csr") for a, b in terms)
    perm = nested_dissection(nx, ny)
    M = M[perm][:, perm].tocsc() if nd else M
    M.sort_indices()                        # a product's columns are not sorted
    at_wall = np.flatnonzero(M.data > 1)[np.argsort(M.data[M.data > 1])]
    for a in (M.indices, M.indptr, at_wall):
        a.flags.writeable = False
    return M.indices, M.indptr, at_wall


def _psi_entries(problem, nd):
    """(data, indices, indptr, at_wall, rows): ``psi_operator``'s values on
    its ``_psi_pattern`` of nd (kept for nd only), wall rows ``rows`` set."""
    ops, bg, (nx, ny) = problem.ops, problem.bg, problem.grid.shape
    coupled = any(np.any(bg[k]) for k in ("v_s", "us_x", "vs_x"))
    indices, indptr, at_wall = (_psi_pattern if nd else _psi_pattern.__wrapped__)(
        nx, ny, coupled, repr(PSI_WALLS), nd)
    # the identity and d1..d4 along x and y, dense: [k, i * n + i'] = d_k[i, i']
    X, Y = (np.stack([np.eye(z.size)] + [m.toarray() for m in (
        *(getattr(ops, f"d{k}{a}") for k in (1, 2, 3)), diff_matrix(z, 4))]).reshape(5, -1)
        for a, z in (("x", ops.x), ("y", ops.y)))
    node = nested_dissection(nx, ny) if nd else np.arange(nx * ny)
    I, J = np.divmod(node, ny)
    us, lap_us = (bg[k].ravel()[node] for k in ("u_s", "lap_us"))
    us_x, vs, vs_x = (bg[k].ravel() for k in ("us_x", "v_s", "vs_x"))
    win_x, win_y = (m.indices.reshape(m.shape[0], -1).T for m in (ops.d1x, ops.d1y))
    data = np.empty(indices.size)
    for q in range(0, indptr.size - 1, _CHUNK):
        ends = indptr[q:q + _CHUNK + 1]
        e, outer = slice(ends[0], ends[-1]), np.repeat(np.arange(q, q + ends.size - 1),
                                                       np.diff(ends))
        row, col = (indices[e], outer) if nd else (outer, indices[e])
        i, j, ic, jc = I[row], J[row], I[col], J[col]
        x, y = X.take(i * nx + ic, axis=1), Y.take(j * ny + jc, axis=1)
        v = us[row] * (x[1] * y[2] + x[3] * y[0]) - lap_us[row] * (x[1] * y[0])
        if coupled:
            s1 = s2 = 0.0
            for wx, wy in zip(win_x, win_y):
                iq, jq = wx[i], wy[j]
                k, yq = i * ny + jq, Y[1:3].take(jq * ny + jc, axis=1)
                s1 += Y[1, j * ny + jq] * (us_x[k] * (x[0] * yq[0])
                                           + vs[k] * (x[0] * yq[1]))
                s2 += X[1, i * nx + iq] * (vs[iq * ny + j] * (y[1] * X[1, iq * nx + ic]))
            v = v + ((s1 + s2) - x[1] * (vs_x[ic * ny + j] * y[1]))
        data[e] = v - problem.eps * ((x[4] * y[0] + 2.0 * (x[2] * y[2])) + x[0] * y[4])
    rows = boundary_rows(problem.grid.x, problem.grid.y, PSI_WALLS)
    data[at_wall] = np.concatenate([v for _, v in rows.values()])
    return data, indices, indptr, at_wall, rows


def solve_linearized(problem):
    """One linear remainder solve with the frozen pair in problem.(ubar, vbar).

    The assembled operator depends only on the background, so the one
    factored ``problem.system`` serves every Picard iteration.
    """
    ops = problem.ops
    N1, N2 = problem.nonlinear_terms()
    psi = problem.system.solve(ops.apply("Dy", N1 + problem.F1)
                               - ops.apply("Dx", N2 + problem.F2))
    return RemainderSolution(problem.grid, ops, ops.apply("Dy", psi),
                             -ops.apply("Dx", psi), psi=psi)


def recover_pressure(sol, problem):
    """Zero-mean P of the bordered Poisson-Neumann system [lap 1; w2^T 0],
    solved by the separable solve with one null mode (the constant); sets
    sol.P, sol.problem and sol.momentum, the residual pair of the two
    linearized momentum equations, from the same terms."""
    ops = problem.ops
    grid = problem.grid
    bg = problem.bg
    u, v = sol.u, sol.v
    N1, N2 = problem.nonlinear_terms()
    f1 = N1 + problem.F1
    f2 = N2 + problem.F2
    uy, vx, vy = ops.apply("Dy", u), ops.apply("Dx", v), ops.apply("Dy", v)
    rhs = (ops.apply("Dx", f1) + ops.apply("Dy", f2)
           - (2.0 * bg["us_y"] * vx + 4.0 * bg["vs_y"] * vy + 2.0 * bg["vs_x"] * uy))
    # Neumann data from the momentum balances
    m1, m2 = _momentum_balances(problem, u, v)
    gx = f1 - m1
    gy = f2 - m2

    nx, ny = grid.nx, grid.ny
    wall = gx.copy()    # gx at inflow and outflow, gy on the walls
    wall[:, [0, -1]] = gy[:, [0, -1]]
    # compatibility (Green): int rhs = sum of oriented boundary fluxes;
    # report the defect, which the multiplier absorbs (a point pin would
    # amplify it into a spurious constant through the null mode)
    flux = (float(ops.wx @ gy[:, ny - 1]) - float(ops.wx @ gy[:, 0])
            + float(ops.wy @ gx[nx - 1, :]) - float(ops.wy @ gx[0, :]))
    area = float(ops.w2.sum())
    defect = (ops.integrate(rhs) - flux) / area
    sol.residuals["pressure_compatibility_defect"] = abs(defect)
    xm = line_modes(grid.x, ops.d2x, (1, 1), 0.0)
    ym = line_modes(grid.y, ops.d2y, (1, 1), 0.0)
    system = SeparableSystem(xm, ym, null=True)
    log.debug("pressure system: %d x %d modes, null |mu + lambda| %.3g, "
              "next %.4g, eigenvector cond %.3g (x), %.3g (y)",
              nx - 2, ny - 2, *system.floor, xm.cond, ym.cond)
    P = system.solve(-rhs, wall)        # its operator is -lap
    P = P - ops.integrate(P) / ops.integrate(np.ones_like(P))
    sol.P, sol.problem = P, problem
    sol.momentum = _momentum_residual(problem, P, (N1, N2), (m1, m2))
    return P


def _momentum_balances(problem, u, v):
    """The two linearized momentum balances of (u, v) without pressure and
    force: background convection minus eps times the Laplacian."""
    ops = problem.ops
    bg = problem.bg
    eps = problem.eps
    m1 = (bg["u_s"] * ops.apply("Dx", u) + bg["us_y"] * v + bg["us_x"] * u
          + bg["v_s"] * ops.apply("Dy", u) - eps * ops.apply("lap", u))
    m2 = (bg["u_s"] * ops.apply("Dx", v) + bg["v_s"] * ops.apply("Dy", v)
          + bg["vs_x"] * u + v * bg["vs_y"] - eps * ops.apply("lap", v))
    return m1, m2


def _momentum_residual(problem, P, N, m):
    """The residual pair of P, frozen terms N and momentum balances m."""
    return (m[0] + problem.ops.apply("Dx", P) - N[0] - problem.F1,
            m[1] + problem.ops.apply("Dy", P) - N[1] - problem.F2)


def curl_residual(sol, problem):
    """Residual of the curl equation (the one actually solved)."""
    ops = problem.ops
    bg = problem.bg
    eps = problem.eps
    u, v = sol.u, sol.v
    N1, N2 = problem.nonlinear_terms()
    curl_rhs = ops.apply("Dy", N1 + problem.F1) - ops.apply("Dx", N2 + problem.F2)
    S = (ops.apply("Dy", bg["us_x"] * u + bg["v_s"] * ops.apply("Dy", u))
         - ops.apply("Dx", bg["v_s"] * ops.apply("Dy", v) + bg["vs_x"] * u))
    lhs = (-bg["u_s"] * ops.apply("Dyy", v) + ops.apply("Dyy", bg["u_s"]) * v
           - bg["u_s"] * ops.apply("Dxx", v) + ops.apply("Dxx", bg["u_s"]) * v
           + S - eps * ops.apply("lap", ops.apply("Dy", u) - ops.apply("Dx", v)))
    return lhs - curl_rhs


def compute_q(u_s, v, grid, ops):
    """q = v/u_s with l'Hopital wall rows where |u_s| <= 1e-10 max|u_s|."""
    q = np.empty_like(v)
    scale = float(np.max(np.abs(u_s)))
    if scale <= 0.0:
        raise LinearSolveError("background u_s vanishes identically")
    floor = 1e-10 * scale
    dy_v = ops.apply("Dy", v)
    dy_us = ops.apply("Dy", u_s)
    safe = np.abs(u_s) > floor
    q[safe] = v[safe] / u_s[safe]
    bad = ~safe
    if np.any(bad):
        interior = bad.copy()
        interior[:, 0] = False
        interior[:, -1] = False
        if np.any(interior):
            raise LinearSolveError("u_s below floor away from the walls")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(np.abs(dy_us) > floor, dy_v / dy_us, 0.0)
        q[bad] = ratio[bad]
    return q


def compute_norms(sol, background, eps):
    """A1, A2, A3 and the weighted solution norm of a remainder pair.

    ``X_norm`` is the sum of four terms, weighted as implemented here:

    - ``||sqrt(u_s) grad v||``;
    - ``eps^(1/2) ||sqrt(u_s) grad^2 q||``;
    - ``eps^(3/2) ||grad^3 (u, v)||``;
    - the ``x = 0`` edge term ``||u_s q_y||``.

    The paper's own definition of the norm is not in the repo, so these
    weights have not been checked against it.
    """
    ops = sol.ops
    grid = sol.grid
    u, v = sol.u, sol.v
    u_s = background["u_s"]
    sqrt_us = np.sqrt(np.maximum(u_s, 0.0))
    vx = ops.apply("Dx", v)
    vy = ops.apply("Dy", v)
    A1 = np.sqrt(ops.norm_l2(sqrt_us * vy) ** 2 + ops.norm_l2(sqrt_us * vx) ** 2)

    q = compute_q(u_s, v, grid, ops)
    qxx, qxy, qyy, qy, qx = (ops.apply(op, q)
                             for op in ("Dxx", "Dxy", "Dyy", "Dy", "Dx"))
    wy = ops.wy
    edge_qy = float(np.sqrt(wy @ (u_s[0] * qy[0]) ** 2))
    edge_qx = float(np.sqrt(wy @ (u_s[-1] * qx[-1]) ** 2))
    grad2 = (ops.norm_l2(sqrt_us * qxx) ** 2 + ops.norm_l2(sqrt_us * qxy) ** 2
             + ops.norm_l2(sqrt_us * qyy) ** 2)
    A2 = np.sqrt(eps * grad2 + edge_qy ** 2 + edge_qx ** 2)

    # squared norms of (Dxxx, Dxxy, Dxyy, Dyyy) applied to u, then to v
    third = [ops.norm_l2(ops.apply(op, f)) ** 2
             for f in (u, v) for op in ("Dxxx", "Dxxy", "Dxyy", "Dyyy")]
    A3 = np.sqrt(eps ** 3 * (third[4] + third[5] + third[6]))
    third_sum = 0.0
    for t in third:     # left to right: sum() compensates from Python 3.12
        third_sum += t
    X = (A1 + np.sqrt(eps) * np.sqrt(grad2)
         + eps ** 1.5 * np.sqrt(third_sum)
         + edge_qy)
    report = {"A1": float(A1), "A2": float(A2), "A3": float(A3),
              "X_norm": float(X)}
    sol.norms.update(report)
    return report


def norm_report(sol):
    """JSON-ready norm report with the substitution residuals of sol.problem."""
    rep = {k: sol.norms.get(k) for k in ("A1", "A2", "A3", "X_norm")}
    ops = sol.problem.ops
    cr = curl_residual(sol, sol.problem)
    inner = np.zeros_like(cr)
    inner[2:-2, 2:-2] = cr[2:-2, 2:-2]  # boundary rows carry BC equations
    rep["residual_curl"] = ops.norm(inner, "L2")
    r1, r2 = sol.momentum
    rep["residual_momentum"] = float(np.hypot(ops.norm(r1, "L2"),
                                              ops.norm(r2, "L2")))
    return rep
