"""Elliptic vorticity solves for the Euler correctors.

The first corrector balances the viscous stress of the base shear flow:
-lap(v) + (mu''/mu) v = mu'''/mu with v_x=0 at inflow, v=0 at outflow and at
both walls.  Higher correctors solve the homogeneous equation with a wall
trace handed down from the previous boundary layer and a Neumann condition on
the opposite wall.  u is recovered from the divergence-free relation
u = -int_0^x v_y and the pressure from the x-momentum balance; each
corrector keeps every field the cascade reads in one record.
"""

import logging

import numpy as np

from .discretization import DiffOps, SeparableSystem, cumtrapz0, line_modes

log = logging.getLogger(__name__)

# side -> the derivative that its y = 0 and y = 2 walls fix at every x node:
# 0 the value (0 or the handed-down trace), 1 the 3-point one-sided dv/dy
# (= 0).  INFLOW_OUTFLOW gives the x ends of every side in the same code:
# v_x = 0 at the inflow and v = 0 at the outflow, between the walls
SIDES = {"first": (0, 0), "plus": (1, 0), "minus": (0, 1)}
INFLOW_OUTFLOW = (1, 0)


class EulerSolveError(RuntimeError):
    pass


class EulerCorrector:
    """One corrector layer on the channel grid: its unit-prefactor field
    record and mu on the grid's y nodes."""

    def __init__(self, index, side, grid, fields, mu):
        self.index = index
        self.side = side
        self.grid = grid
        self.fields = fields    # u, v, ux, uy, vx, vy, lap_u, lap_v, px, P
        self.mu = mu
        self.u, self.v, self.P = fields["u"], fields["v"], fields["P"]

    def divergence(self, ops):
        return ops.apply("Dx", self.u) + ops.apply("Dy", self.v)


class EulerSolver:
    """The corrector systems of all layers on one grid.

    The homogeneous vorticity operator is layer independent, so one
    ``SeparableSystem`` per boundary-condition variant (first/plus/minus),
    built on first use, serves every index i; the x modes are shared.
    """

    def __init__(self, grid, profile):
        self.grid = grid
        self.profile = profile
        self.ops = DiffOps(grid.x, grid.y)
        # traces handed down by the layers need not vanish at the outflow end;
        # production solves run on an extended strip so that the outflow
        # corner (where the trace meets v=0) lies outside the reported domain.
        self.w = profile.ratio2(grid.y)
        if not np.all(np.isfinite(self.w)):
            raise EulerSolveError("mu''/mu is unbounded on this profile")
        self.x_modes = line_modes(grid.x, self.ops.d2x, INFLOW_OUTFLOW, 0.0)
        self.systems = {}

    def _solve_v(self, side, rhs, trace):
        """v of the side's system; the trace (or 0) on its Dirichlet walls."""
        if side not in self.systems:
            ym = line_modes(self.grid.y, self.ops.d2y, SIDES[side],
                            self.w[1:-1])
            log.debug("euler %s system: %d x %d modes, lambda in "
                      "[%.4g, %.4g], eigenvector cond %.3g (x), %.3g (y)",
                      side, self.grid.nx - 2, self.grid.ny - 2,
                      ym.lam.real.min(), ym.lam.real.max(),
                      self.x_modes.cond, ym.cond)
            self.systems[side] = SeparableSystem(self.x_modes, ym, null=False)
        wall = np.zeros(self.grid.shape)
        if trace is not None:   # on the one Dirichlet wall of plus or minus
            wall[:, 0 if side == "minus" else -1] = trace
        return self.systems[side].solve(rhs, wall)

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
        """The field record of v; rhs_x is mu'' for the first corrector, 0
        for higher ones.  u = -int_0^x v_y makes du/dx = -dv/dy exact, and P
        integrates the x-momentum balance px from P = 0 at the inflow, so
        dP/dy = -mu dv/dx holds in the continuum."""
        g, ops = self.grid, self.ops
        mu, mup = self.profile.mu(g.y), self.profile.mu(g.y, 1)
        vy = ops.apply("Dy", v)
        u = -cumtrapz0(vy, g.x)
        ux = -vy
        px = rhs_x[None, :] - mu[None, :] * ux - mup[None, :] * v
        fields = {"u": u, "v": v, "ux": ux, "uy": ops.apply("Dy", u),
                  "vx": ops.apply("Dx", v), "vy": vy,
                  "lap_u": ops.apply("lap", u), "lap_v": ops.apply("lap", v),
                  "px": px, "P": cumtrapz0(px, g.x)}
        return EulerCorrector(index, side, g, fields, mu)
