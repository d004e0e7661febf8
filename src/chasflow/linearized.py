"""Linearized remainder solver via the stream-function biharmonic formulation.

The curl of the linearized momentum system reduces to a fourth-order scalar
equation for psi (u = psi_y, v = -psi_x): the velocity pair is then exactly
divergence-free and the outflow condition v_xx = 0 becomes a plain boundary
row on psi.  The pressure is recovered afterwards from a Poisson problem with
Neumann data read off the momentum equations.  All diagnostic norms (A1-A3
and the weighted solution norm) live here as well.
"""

import logging

import numpy as np

from .discretization import SeparableSystem, line_modes, scale_rows

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


def assemble_linearized_operator(problem):
    """u_s psi_xyy + u_s psi_xxx - lap(u_s) psi_x + S(psi_y, -psi_x) - eps lap^2,
    its coefficients row scalings; S only if v_s, us_x or vs_x is nonzero."""
    ops, bg = problem.ops, problem.bg
    Dx = ops.kron("Dx")
    A = (scale_rows(bg["u_s"], ops.kron("Dxyy") + ops.kron("Dxxx"))
         - scale_rows(bg["lap_us"], Dx))
    if any(np.any(bg[k]) for k in ("v_s", "us_x", "vs_x")):
        Dy, vs = ops.kron("Dy"), bg["v_s"]
        A = A + (Dy @ (scale_rows(bg["us_x"], Dy) + scale_rows(vs, ops.kron("Dyy")))
                 + Dx @ scale_rows(vs, Dy @ Dx) - Dx @ scale_rows(bg["vs_x"], Dy))
    return A - problem.eps * ops.kron("bih")


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
