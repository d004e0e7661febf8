"""Elliptic vorticity solves for the Euler correctors.

The first corrector balances the viscous stress of the base shear flow:
-lap(v) + (mu''/mu) v = mu'''/mu with v_x=0 at inflow, v=0 at outflow and at
both walls.  Higher correctors solve the homogeneous equation with a wall
trace handed down from the previous boundary layer and a Neumann condition on
the opposite wall.  u is recovered from the divergence-free relation
u = -int_0^x v_y and the pressure from the x-momentum balance.
"""

import numpy as np
import scipy.sparse as sp

from .discretization import (DiffOps, boundary_rows, cumtrapz0, grid_lu,
                             replace_rows)

# side -> (at_start, deriv) of the conditions on the y = 0 and y = 2 walls:
# v = 0 or the handed-down trace (deriv 0), or dv/dy = 0 (deriv 1)
WALLS = {"first": ((True, 0), (False, 0)), "plus": ((True, 1), (False, 0)),
         "minus": ((True, 0), (False, 1))}


class EulerSolveError(RuntimeError):
    pass


class EulerCorrector:
    """Velocity/pressure triple for one corrector layer on the channel grid."""

    def __init__(self, index, side, grid, u, v, P):
        self.index = index
        self.side = side
        self.grid = grid
        self.u = u
        self.v = v
        self.P = P

    def divergence(self, ops):
        return ops.apply(ops.Dx, self.u) + ops.apply(ops.Dy, self.v)


class EulerSolver:
    """Shared sparse factorizations for all corrector layers on one grid.

    The homogeneous vorticity operator is layer independent, so one LU per
    boundary-condition variant (first/plus/minus) serves every index i.
    """

    def __init__(self, grid, profile):
        self.grid = grid
        self.profile = profile
        self.ops = DiffOps(grid.x, grid.y)
        # traces handed down by the layers need not vanish at the outflow end;
        # production solves run on an extended strip so that the outflow
        # corner (where the trace meets v=0) lies outside the reported domain.
        self.w = np.tile(profile.ratio2(grid.y), (grid.nx, 1))
        if not np.all(np.isfinite(self.w)):
            raise EulerSolveError("mu''/mu is unbounded on this profile")
        self._base = (-self.ops.lap + sp.diags(self.w.ravel())).tocsr()
        self._lu = {}

    def _factorize(self, side):
        """LU of the side's system and its boundary rows, built once."""
        if side not in WALLS:
            raise ValueError(f"side must be one of {tuple(WALLS)}")
        if side not in self._lu:
            g, inner = self.grid, slice(1, -1)
            rows = boundary_rows(g.x, g.y, [
                (1, at_start, deriv, 3, 0, slice(None))
                for at_start, deriv in WALLS[side]] + [
                (0, True, 1, 3, 0, inner),     # v_x = 0 at inflow
                (0, False, 0, 1, 0, inner)])   # v = 0 at outflow
            A = replace_rows(self._base, rows)
            self._lu[side] = (grid_lu(A, g.nx, g.ny), np.fromiter(rows, int))
        return self._lu[side]

    def _solve_v(self, side, rhs, trace):
        g = self.grid
        lu, bnd = self._factorize(side)
        b = np.asarray(rhs, dtype=float).ravel().copy()
        b[bnd] = 0.0
        if trace is not None:   # on the one Dirichlet wall of plus or minus
            j_wall = 0 if side == "minus" else g.ny - 1
            b[j_wall + g.ny * np.arange(g.nx)] = np.asarray(trace, dtype=float)
        v = lu.solve(b).reshape(g.nx, g.ny)
        if not np.all(np.isfinite(v)):
            raise EulerSolveError("corrector solve produced non-finite values")
        return v

    def solve_first(self):
        """First Euler corrector: offsets the base viscous stress (rhs mu'''/mu)."""
        rhs = np.tile(self.profile.ratio3(self.grid.y), (self.grid.nx, 1))
        v = self._solve_v("first", rhs, None)
        return self._complete(1, "first", v, rhs_x=self.profile.mu(self.grid.y, 2))

    def solve_higher(self, index, side, trace):
        """Corrector i >= 2 whose wall trace cancels the previous layer's v.

        side 'plus': v = trace on y=2, dv/dy = 0 on y=0 (mirrored for 'minus').
        The trace must nearly vanish at the inflow: |g(0)| <= 0.25 max|g|.
        """
        if side not in ("plus", "minus"):
            raise ValueError("higher correctors take side 'plus' or 'minus'")
        trace = np.asarray(trace, dtype=float)
        if trace.shape != (self.grid.nx,):
            raise ValueError("trace must be sampled on the grid x nodes")
        scale = float(np.max(np.abs(trace)))
        if abs(trace[0]) > 0.25 * scale + 1e-13:
            raise EulerSolveError(
                f"incompatible trace: g(0) = {trace[0]:.3g} vs scale {scale:.3g}")
        v = self._solve_v(side, np.zeros(self.grid.shape), trace)
        return self._complete(index, side, v, rhs_x=np.zeros(self.grid.ny))

    def _complete(self, index, side, v, rhs_x):
        g, ops = self.grid, self.ops
        vy = ops.apply(ops.Dy, v)
        u = -cumtrapz0(vy, g.x)
        P = recover_corrector_pressure_fields(u, v, g, self.profile, rhs_x, ops)
        return EulerCorrector(index, side, g, u, v, P)


def recover_corrector_pressure_fields(u, v, grid, profile, rhs_x, ops):
    """Integrate dP/dx = rhs_x - mu du/dx - mu' v along x (P = 0 at inflow).

    du/dx = -dv/dy exactly by construction, so the y-momentum relation
    dP/dy = -mu dv/dx holds identically in the continuum; the cross
    -consistency residual measures pure discretization error.
    """
    mu = profile.mu(grid.y)
    mup = profile.mu(grid.y, 1)
    dxu = -ops.apply(ops.Dy, v)
    integrand = rhs_x[None, :] - mu[None, :] * dxu - mup[None, :] * v
    return cumtrapz0(integrand, grid.x)
