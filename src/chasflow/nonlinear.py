"""Contraction iteration for the full steady remainder system.

The map freezes the quadratic terms at the previous iterate and solves the
linearized system; its fixed point is the Navier-Stokes remainder.  A damped
Newton-Krylov solve of the same discrete system serves as an independent
oracle: GMRES, preconditioned by Picard's factor, solves each Newton step
with the Jacobian applied from the stencils (never assembled), while
Newton's own residual and stopping rule set the root.
"""

import logging

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .linearized import (LinearizedProblem, RemainderSolution, compute_norms,
                         psi_operator, psi_system, recover_pressure,
                         solve_linearized)


NONCONTRACTION_LIMIT = 3   # growing Picard steps in a row that stop the map
# relative residual each Newton step's GMRES solve must reach; the direct
# solve's own backward error is about 5e-9, so not much below 1e-8
NEWTON_INNER_RTOL = 1e-6

log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    pass


class ForcingError(ValueError):
    pass


def build_case_forcing(expansion, g_eps=None, alpha0=None):
    """The forcing (F1, F2) of the expansion's case.

    (i), (ii) unforced:  F = the measured expansion remainders (Fu, Fv)
    (iii) forced:        F = eps^{-M0} g, after checking the smallness
          hypothesis ||g||_{H2} <= alpha0 eps^M0, M0 = 11/8 + gamma.
    """
    if expansion.spec.case != "forced":
        return expansion.Fu, expansion.Fv
    if g_eps is None or alpha0 is None:
        raise ForcingError("forced case needs the control force g_eps and "
                           "the alpha0 of its smallness hypothesis")
    g1, g2 = g_eps
    eps, M0, ops = expansion.eps, expansion.M0, expansion.ops
    h2 = np.hypot(ops.norm(g1, "H2"), ops.norm(g2, "H2"))
    bound = alpha0 * eps ** M0
    if h2 > bound:
        raise ForcingError(
            f"control force too large: ||g||_H2 = {h2:.3e} > "
            f"alpha0 eps^M0 = {bound:.3e}")
    return g1 / eps ** M0, g2 / eps ** M0


class IterationTrace:
    columns = ("k", "X_norm", "diff_X_norm", "ratio", "nonlinear_residual")

    def __init__(self):
        self.rows = []

    def add(self, k, xnorm, diff, ratio):
        """A row; its nonlinear residual is NaN until the last row's is
        known."""
        self.rows.append((int(k), float(xnorm), float(diff), float(ratio),
                          np.nan))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r},{row[4]!r}\n")

    @property
    def ratios(self):
        return [r[3] for r in self.rows]


def picard_solve(expansion, forcing):
    """Iterate the linearized map from zero until the X-norm difference
    drops below the spec's tol, in at most its max_iter steps; returns the
    converged remainder, with its problem (and that problem's factored
    ``system``) on ``sol.problem``, and the trace."""
    grid, ops, eps, M0 = (expansion.grid, expansion.ops, expansion.eps,
                          expansion.M0)
    background, spec = expansion.fields, expansion.spec
    F1, F2 = forcing
    prob = LinearizedProblem(background, eps, M0, F1=F1, F2=F2, grid=grid,
                             ops=ops)
    prob.system = psi_system(prob)
    trace = IterationTrace()
    ubar = np.zeros((grid.nx, grid.ny))
    vbar = np.zeros_like(ubar)
    prev_diff = None
    bad = 0
    sol = None
    for k in range(1, spec.max_iter + 1):
        prob.ubar, prob.vbar = ubar, vbar
        sol = solve_linearized(prob)
        xnorm = compute_norms(sol, background, eps)["X_norm"]
        # from the zero start (k = 1) the step sol - 0.0 is sol, bit for bit
        diff = xnorm if k == 1 else compute_norms(RemainderSolution(
            grid, ops, sol.u - ubar, sol.v - vbar), background, eps)["X_norm"]
        ratio = np.nan if prev_diff is None else (
            diff / prev_diff if prev_diff > 0 else 0.0)
        trace.add(k, xnorm, diff, ratio)
        if prev_diff is not None and prev_diff > 0 and diff >= prev_diff:
            bad += 1
            if bad >= NONCONTRACTION_LIMIT:
                raise ConvergenceError(
                    f"no contraction for {bad} consecutive steps "
                    f"(diff {prev_diff:.3e} -> {diff:.3e})")
        else:
            bad = 0
        ubar, vbar = sol.u, sol.v
        prev_diff = diff
        if diff < spec.tol * max(1.0, xnorm):
            break
    else:
        raise ConvergenceError(
            f"Picard did not converge in {spec.max_iter} iterations")
    prob.ubar, prob.vbar = sol.u, sol.v
    recover_pressure(sol, prob)
    r1, r2 = sol.momentum
    resid = eps ** M0 * float(np.hypot(ops.norm(r1, "L2"), ops.norm(r2, "L2")))
    trace.rows[-1] = trace.rows[-1][:4] + (resid,)
    sol.residuals["nonlinear_momentum"] = resid
    sol.norms["iterations"] = len(trace.rows)
    return sol, trace


class _NewtonJacobian(LinearOperator):
    """Newton's row-scaled Jacobian diag(1/d) (A - diag(mask) curl J_N) at
    (u, v), applied from the stencils; J_N is the derivative of (N1, N2)
    along (Dy p, -Dx p).  ``products`` counts the products taken."""

    def __init__(self, problem, A, mask, u, v):
        super().__init__(float, A.shape)
        ops = problem.ops
        self.problem, self.A, self.mask, self.products = problem, A, mask, 0
        self.fields = (u, v) + tuple(ops.apply(op, f) for f in (u, v)
                                     for op in ("Dx", "Dy"))

    def _matvec(self, p):
        self.products += 1
        ops = self.problem.ops
        u, v, ux, uy, vx, vy = self.fields
        du, dv = ops.apply("Dy", p), -ops.apply("Dx", p)
        c = -self.problem.eps ** self.problem.M0
        J1 = c * (uy * dv + v * ops.apply("Dy", du)
                  + ux * du + u * ops.apply("Dx", du))
        J2 = c * (vy * dv + v * ops.apply("Dy", dv)
                  + vx * du + u * ops.apply("Dx", dv))
        curlJ = ops.apply("Dy", J1) - ops.apply("Dx", J2)
        return (self.A @ p.ravel() - self.mask * curlJ.ravel()) / self.problem.system.d


def newton_solve(problem):
    """Damped Newton on the discrete nonlinear psi system of Picard's
    converged ``problem`` (the oracle), in at most 30 steps.  It stops on
    one rule, a Newton correction of at most 1e-13 max(1, |psi|) tested
    before the line search: an absolute 1e-13, as |psi| is 2e-5 to 1e-4 on
    the points it runs on, whose residual floors at 2.2e-9 to 2.6e-9 of its
    first value.  A zero first residual (an exact point) gives psi = 0; a
    line search that cannot decrease the residual raises
    ``ConvergenceError``.  GMRES solves each Jacobian system, applied from
    the stencils (``_NewtonJacobian``), to NEWTON_INNER_RTOL, preconditioned
    by the factor of ``problem.system``; a factor that fits badly costs
    iterations but cannot move the root, which Newton's own residual sets.
    The problem's frozen pair is left as it is.  The oracle compares
    velocities, so no pressure is recovered (P stays None);
    ``norms["gmres_iterations"]`` counts the inner iterations."""
    grid, ops, system = problem.grid, problem.ops, problem.system
    A, d = psi_operator(problem), system.d
    curlF = (ops.apply("Dy", problem.F1)
             - ops.apply("Dx", problem.F2)).ravel()
    mask = np.ones(grid.nx * grid.ny)
    mask[system.bnd] = curlF[system.bnd] = 0.0
    precond = LinearOperator(A.shape, matvec=system.lu.solve, dtype=float)

    def residual(psi_flat):
        sf = psi_flat.reshape(grid.nx, grid.ny)
        u = ops.apply("Dy", sf)
        v = -ops.apply("Dx", sf)
        N1, N2 = problem.nonlinear_terms(u, v)
        curlN = (ops.apply("Dy", N1) - ops.apply("Dx", N2)).ravel()
        return A @ psi_flat - mask * curlN - curlF, u, v

    psi = np.zeros(grid.nx * grid.ny)
    G, u, v = residual(psi)
    inner_total = 0
    for it in range(30):
        gnorm = np.linalg.norm(G)
        if gnorm == 0.0:    # an exact root: the zero start of an exact point
            break
        Js = _NewtonJacobian(problem, A, mask, u, v)
        b = -G / d
        inner = []
        delta, _ = gmres(Js, b, rtol=NEWTON_INNER_RTOL, restart=30, maxiter=2,
                         M=precond, callback=inner.append,
                         callback_type="pr_norm")
        products = Js.products
        # gmres's info does not say how far it got: test the true residual
        rel = np.linalg.norm(b - Js @ delta) / np.linalg.norm(b)
        inner_total += len(inner)
        log.debug("newton step %d: |G| %.3e, %d GMRES iterations, inner "
                  "residual %.1e, %d Jacobian products", it + 1, gnorm,
                  len(inner), rel, products)
        if not rel <= NEWTON_INNER_RTOL:
            raise ConvergenceError(
                f"Newton step {it + 1}: GMRES reached a relative residual of "
                f"{rel:.1e} > {NEWTON_INNER_RTOL:.0e} in {len(inner)} "
                "iterations")
        # a Newton correction within the step tolerance is convergence: the
        # residual may sit at its round-off floor, where no step decreases
        # it.  A larger correction must decrease the residual
        if np.linalg.norm(delta) <= 1e-13 * max(1.0, np.linalg.norm(psi)):
            break
        step = 1.0
        for _ in range(20):
            G_new, u_new, v_new = residual(psi + step * delta)
            if np.linalg.norm(G_new) < (1.0 - 0.25 * step) * gnorm:
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                f"Newton step {it + 1}: line search found no decrease of "
                f"|G| = {gnorm:.3e} down to a step of {2.0 * step:.1e}")
        psi = psi + step * delta
        G, u, v = G_new, u_new, v_new
    else:
        raise ConvergenceError("Newton did not converge")
    sol = RemainderSolution(grid, ops, u, v, psi=psi.reshape(grid.nx, grid.ny))
    compute_norms(sol, problem.bg, problem.eps)
    sol.norms["gmres_iterations"] = inner_total
    return sol


def assemble_full_solution(expansion, sol):
    """u^eps = u_s + eps^M0 u with the boundary audit of the full fields."""
    grid, ops = expansion.grid, expansion.ops
    background, profile = expansion.fields, expansion.profile
    c = expansion.eps ** expansion.M0
    u_full = background["u_s"] + c * sol.u
    v_full = background["v_s"] + c * sol.v
    P_full = background.get("P_s", np.zeros_like(u_full)) + (
        c * sol.P if sol.P is not None else 0.0)
    mu = profile.mu(grid.y)
    audit = {
        "u_wall_bottom": float(np.max(np.abs(u_full[:, 0]))),
        "v_wall_bottom": float(np.max(np.abs(v_full[:, 0]))),
        "u_wall_top": float(np.max(np.abs(u_full[:, -1] - 2.0 * profile.alpha1))),
        "v_wall_top": float(np.max(np.abs(v_full[:, -1]))),
        "inflow_u": float(np.max(np.abs(u_full[0, :] - mu))),
        "outflow_v": float(np.max(np.abs(v_full[-1, :]))),
    }
    report = {
        "sup_u_minus_mu": float(np.max(np.abs(u_full - mu[None, :]))),
        "sup_v": float(np.max(np.abs(v_full))),
        "H2_u_minus_mu": ops.norm(u_full - mu[None, :], "H2"),
        "H2_v": ops.norm(v_full, "H2"),
        "boundary_audit": audit,
        "nonlinear_residual": sol.residuals.get("nonlinear_momentum", np.nan),
    }
    return {"u": u_full, "v": v_full, "P": P_full, "report": report}
