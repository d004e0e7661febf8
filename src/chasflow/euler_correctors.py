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

from .discretization import (DiffOps, cumtrapz0, grid_lu, one_sided_row,
                             replace_rows)

SIDES = ("first", "plus", "minus")

# row kinds in the assembled operator
_INTERIOR, _DIR_WALL, _DIR_OUT, _NEUMANN = 0, 1, 2, 3


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

    def __init__(self, grid, profile, ops=None):
        self.grid = grid
        self.profile = profile
        self.ops = ops if ops is not None else DiffOps(grid.x, grid.y)
        # traces handed down by the layers need not vanish at the outflow end;
        # production solves run on an extended strip so that the outflow
        # corner (where the trace meets v=0) lies outside the reported domain.
        self.w = np.tile(profile.ratio2(grid.y), (grid.nx, 1))
        if not np.all(np.isfinite(self.w)):
            raise EulerSolveError("mu''/mu is unbounded on this profile")
        self._base = (-self.ops.lap + sp.diags(self.w.ravel())).tocsr()
        self._lu = {}
        self._rows = {}

    def _node(self, i, j):
        return i * self.grid.ny + j

    def _assemble(self, side):
        g = self.grid
        if side == "first":
            y_dir, y_neu = (0, g.ny - 1), ()
        elif side == "plus":
            y_dir, y_neu = (g.ny - 1,), (0,)
        elif side == "minus":
            y_dir, y_neu = (0,), (g.ny - 1,)
        else:
            raise ValueError(f"side must be one of {SIDES}")

        kind = np.zeros(g.nx * g.ny, dtype=np.int8)
        for i in range(g.nx):
            for j in y_dir:
                kind[self._node(i, j)] = _DIR_WALL
            for j in y_neu:
                kind[self._node(i, j)] = _NEUMANN
        for j in range(g.ny):
            r0, rL = self._node(0, j), self._node(g.nx - 1, j)
            if kind[r0] == _INTERIOR:
                kind[r0] = _NEUMANN  # v_x = 0 at inflow
            if kind[rL] == _INTERIOR:
                kind[rL] = _DIR_OUT  # v = 0 at outflow

        idy0, wy0 = one_sided_row(g.y, True, 1, 3)
        idy2, wy2 = one_sided_row(g.y, False, 1, 3)
        idx0, wx0 = one_sided_row(g.x, True, 1, 3)
        rows = {}
        for i in range(g.nx):
            for j in y_dir:
                r = self._node(i, j)
                rows[r] = ([r], [1.0])
            for j in y_neu:
                idx, wgt = (idy0, wy0) if j == 0 else (idy2, wy2)
                rows[self._node(i, j)] = ([self._node(i, k) for k in idx], wgt)
        for j in range(g.ny):
            r0, rL = self._node(0, j), self._node(g.nx - 1, j)
            if kind[r0] == _NEUMANN and j not in y_neu:
                rows[r0] = ([self._node(k, j) for k in idx0], wx0)
            if kind[rL] == _DIR_OUT:
                rows[rL] = ([rL], [1.0])
        return replace_rows(self._base, rows), kind

    def _factorize(self, side):
        if side not in self._lu:
            A, kind = self._assemble(side)
            self._lu[side] = grid_lu(A, self.grid.nx, self.grid.ny)
            self._rows[side] = kind
        return self._lu[side], self._rows[side]

    def _solve_v(self, side, rhs, trace):
        g = self.grid
        lu, kind = self._factorize(side)
        b = np.asarray(rhs, dtype=float).ravel().copy()
        b[kind == _NEUMANN] = 0.0
        b[kind == _DIR_OUT] = 0.0
        wall = np.where(kind == _DIR_WALL)[0]
        if trace is None:
            b[wall] = 0.0
        else:
            b[wall] = np.asarray(trace, dtype=float)[wall // g.ny]
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
        P = recover_corrector_pressure_fields(u, v, g, self.profile, rhs_x, ops=ops)
        return EulerCorrector(index, side, g, u, v, P)


def recover_corrector_pressure_fields(u, v, grid, profile, rhs_x, ops=None):
    """Integrate dP/dx = rhs_x - mu du/dx - mu' v along x (P = 0 at inflow).

    du/dx = -dv/dy exactly by construction, so the y-momentum relation
    dP/dy = -mu dv/dx holds identically in the continuum; the cross
    -consistency residual measures pure discretization error.
    """
    mu = profile.mu(grid.y)
    mup = profile.mu(grid.y, 1)
    if ops is None:
        ops = DiffOps(grid.x, grid.y)
    dxu = -ops.apply(ops.Dy, v)
    integrand = rhs_x[None, :] - mu[None, :] * dxu - mup[None, :] * v
    return cumtrapz0(integrand, grid.x)
