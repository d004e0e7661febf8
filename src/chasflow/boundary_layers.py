"""Two-scale weak boundary layers: half-line solves, cut-offs, cascade.

Layers live on (x, Y) with Y = y/eps^(1/3) at the lower wall ("minus",
degenerate operator Y du/dx + v - u_YY) and Y = (2-y)/eps^(1/2) at the upper
wall ("plus", heat operator mu(2) du/dx - u_YY).  Vertical layer velocities
are stored with the sign that makes the physical corrector pair
divergence-free.  Marching is an implicit theta scheme (backward-Euler
start-up steps, Crank-Nicolson after) with graded x steps near the inflow.

The cascade bookkeeping is mechanical: every x-momentum residual term that
the correctors built so far generate at a wall is held in a per-side pending
list (tagged cut / approx / quad / shear); the next same-side layer takes
the accumulated sum as its forcing, and an auxiliary layer pressure zeroes
the pending vertical-momentum terms order by order.
"""

from collections import OrderedDict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import cumtrapz0, diff_matrix, one_sided_row, pchip_operator

SIGN_Y = {"minus": 1.0, "plus": -1.0}   # d/dy -> SIGN_Y * eps^(-s) d/dY
S_EXP = {"minus": 1.0 / 3.0, "plus": 0.5}
BE_STEPS = 3     # backward-Euler start-up steps of the "cn" scheme
BLOWUP = 1e6     # a marched column above this times the data scale fails
# step LUs each process keeps; a couette sweep factors 128 distinct ones
MARCH_LU_MEMO = 192


class MarchError(RuntimeError):
    pass


# -- smooth cut-off ---------------------------------------------------------

def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return a / (a + b)


def chi(t):
    """C-infinity cut-off: 1 on [0, 1/2], 0 on [1, inf)."""
    t = np.asarray(t, dtype=float)
    return _smoothstep(2.0 * (1.0 - t))


def chi_prime(t):
    t = np.asarray(t, dtype=float)
    h = 1e-6
    return (chi(t + h) - chi(t - h)) / (2.0 * h)


def chi_d2(t):
    t = np.asarray(t, dtype=float)
    h = 1e-4
    return (chi(t + h) - 2.0 * chi(t) + chi(t - h)) / h ** 2


def chi_d3(t):
    t = np.asarray(t, dtype=float)
    h = 1e-4
    return (chi(t + 2 * h) - 2 * chi(t + h) + 2 * chi(t - h)
            - chi(t - 2 * h)) / (2.0 * h ** 3)


def smooth_x(field):
    """Damp grid-scale x-oscillations (two 1/4, 1/2, 1/4 filter passes)."""
    f = np.array(field, dtype=float)
    for _ in range(2):
        g = f.copy()
        g[1:-1] = 0.25 * f[:-2] + 0.5 * f[1:-1] + 0.25 * f[2:]
        f = g
    return f


def fitted_dx(x, field, weight):
    """d/dx via a weighted degree-8 Chebyshev least-squares fit along x.

    The genuine cascade forcings vary on the channel scale; fitting before
    differentiating annihilates marching dust and inflow-corner spikes that
    a grid derivative would amplify.
    """
    degree = 8
    t = 2.0 * (x - x[0]) / (x[-1] - x[0]) - 1.0
    B = np.polynomial.chebyshev.chebvander(t, degree)
    W = weight.reshape(-1, 1)
    coef, *_ = np.linalg.lstsq(W * B, W * field, rcond=None)
    dcoef = np.polynomial.chebyshev.chebder(coef, axis=0)
    Bd = np.polynomial.chebyshev.chebvander(t, degree - 1)
    return (Bd @ dcoef) * (2.0 / (x[-1] - x[0]))


# -- half-line marching solvers ---------------------------------------------

def _integral_matrix(grid, last_layer):
    """K with V = K @ (dx u): from Ymax down (decaying) or -int from 0 (last)."""
    nY = grid.nY
    w = np.zeros((nY, nY))
    dY = np.diff(grid.Y)
    if not last_layer:
        for j in range(nY - 2, -1, -1):
            w[j] = w[j + 1]
            w[j, j] += 0.5 * dY[j]
            w[j, j + 1] += 0.5 * dY[j]
    else:
        for j in range(1, nY):
            w[j] = w[j - 1]
            w[j, j - 1] -= 0.5 * dY[j - 1]
            w[j, j] -= 0.5 * dY[j - 1]
    return sp.csr_matrix(w)


def _integral_rows(Y, last_layer):
    """Blocks (Ru, Rw) with Ru @ u + Rw @ W = 0 exactly when W = K @ u.

    The two-term trapezoid recurrence of `_integral_matrix`: W(Ymax) = 0 and
    W_j = W_{j+1} + dY_j (u_j + u_{j+1})/2 downwards, or for the last layer
    W(0) = 0 and W_j = W_{j-1} - dY_{j-1} (u_{j-1} + u_j)/2 upwards.
    """
    h = 0.5 * np.diff(Y)
    one = np.ones(Y.size)
    if last_layer:
        return (sp.diags([np.r_[0.0, h], h], [0, -1]),
                sp.diags([one, -one[1:]], [0, -1]))
    return (-sp.diags([np.r_[h, 0.0], h], [0, 1]),
            sp.diags([one, -one[1:]], [0, 1]))


def _wall_rows(Y, last_layer):
    """Row mask of the interior equations, and the two boundary rows.

    Row 0 imposes u(x,0) = g; row nY-1 imposes u(x,Ymax) = 0, or for the
    last layer the one-sided d_Y u(x,Ymax) = 0.
    """
    nY = Y.size
    mask = np.ones(nY)
    mask[[0, -1]] = 0.0
    if last_layer:
        idx, w = one_sided_row(Y, False, 1, 3)
    else:
        idx, w = np.array([nY - 1]), np.array([1.0])
    rows = np.r_[0, np.full(idx.size, nY - 1)]
    walls = sp.csr_matrix((np.r_[1.0, w], (rows, np.r_[0, idx])), shape=(nY, nY))
    return sp.diags(mask), walls


def _dxu_at_inflow(grid, F0, m_coef, kind, g_slope):
    """Consistent d_x u at x=0 from the PDE with u(0,.) = 0.

    The wall row carries the data slope g'(0) so the divergence relation
    holds up to the corner.
    """
    if kind == "plus":
        out = F0 / m_coef
        out[0] = g_slope
        return out
    # degenerate side: the similarity limit of d_x u at x=0 concentrates at
    # the wall (g'(0) there, 0 above); the integral equation itself is
    # ill-conditioned near Y=0 and is not used by the march.
    out = np.zeros(grid.nY)
    out[0] = g_slope
    return out


class LayerProfile:
    """One solved boundary-layer corrector on its half-line grid."""

    def __init__(self, grid, side, index, last_layer, U, DXU, V, F):
        self.grid = grid
        self.side = side
        self.index = index
        self.last_layer = last_layer
        self.U = U          # (nx, nY)
        self.DXU = DXU      # backward differences, consistent with the march
        self.V = V          # divergence-consistent vertical velocity
        self.W = cumtrapz0(V, grid.x)
        self.DXW = np.empty_like(V)
        self.DXW[0] = V[0]
        self.DXW[1:] = 0.5 * (V[1:] + V[:-1])
        self.F = F          # the forcing the march balanced (None: zero)

    def far_field(self):
        if self.last_layer:
            dY = self.grid.Y[-1] - self.grid.Y[-2]
            return float(np.max(np.abs(self.U[:, -1] - self.U[:, -2])) / dY)
        return float(np.max(np.abs(self.U[:, -1])))

    def weighted_norm(self, m=0, n=0, l=0):
        """|| (1+Y)^m dx^n dY^l U || on the half-line grid."""
        f = self.U
        if n:
            d1x = diff_matrix(self.grid.x, 1)
            for _ in range(n):
                f = d1x @ f
        if l:
            d1Y = diff_matrix(self.grid.Y, 1)
            for _ in range(l):
                f = (d1Y @ f.T).T
        wgt = (1.0 + self.grid.Y) ** (2 * m)
        w2 = np.outer(self.grid.wx, self.grid.wY * wgt)
        return float(np.sqrt(np.sum(w2 * f * f)))


_step_lus = OrderedDict()


def _step_lu(A):
    """splu of a CSC step matrix, shared by every march that builds the same
    matrix: the layer grids, m_coef and the x steps do not change with eps,
    so the points of a sweep factor the same matrices."""
    # the exact arrays are the key, so equal keys are equal matrices
    key = (A.shape, A.data.tobytes(), A.indices.dtype.str,
           A.indices.tobytes(), A.indptr.tobytes())
    lu = _step_lus.pop(key, None)
    if lu is None:
        lu = spla.splu(A)
    _step_lus[key] = lu
    if len(_step_lus) > MARCH_LU_MEMO:
        _step_lus.popitem(last=False)
    return lu


def _march(grid, F, g, last_layer, kind, m_coef, scheme="cn", g0_tol=None):
    """Implicit theta-scheme march in x for both layer types."""
    x, Y = grid.x, grid.Y
    nx, nY = grid.nx, grid.nY
    F = np.zeros((nx, nY)) if F is None else np.asarray(F, dtype=float)
    g = np.zeros(nx) if g is None else np.asarray(g, dtype=float)
    scale = max(np.max(np.abs(g)), np.max(np.abs(F)), 1.0)
    if g0_tol is not None and abs(g[0]) > g0_tol * max(np.max(np.abs(g)), 1e-300) + 1e-13:
        raise MarchError(f"incompatible corner data g(0) = {g[0]:.3g}")

    d2 = diff_matrix(Y, 2)
    kq = _integral_matrix(grid, last_layer)
    interior, walls = _wall_rows(Y, last_layer)

    U = np.zeros((nx, nY))
    DXU = np.zeros((nx, nY))
    U[0, 0] = g[0]
    g_slope = (g[1] - g[0]) / (x[1] - x[0])
    DXU[0] = _dxu_at_inflow(grid, F[0], m_coef, kind, g_slope=g_slope)

    # step matrix (m/dx) C - theta D + E; on the minus side W = kq @ u joins
    # the unknowns through its recurrence rows, so it stays sparse
    coupled = kind == "minus"
    conv = sp.diags(Y) if coupled else sp.identity(nY, format="csr")
    C, D, E = interior @ conv, interior @ d2, walls
    if coupled:
        zero = sp.csr_matrix((nY, nY))
        C = sp.bmat([[C, interior], [zero, zero]])
        D = sp.bmat([[D, zero], [zero, zero]])
        E = sp.bmat([[E, None], list(_integral_rows(Y, last_layer))])
        W = kq @ U[0]
    C, D, E = C.tocsc(), D.tocsc(), E.tocsc()
    lus = {}   # the step matrix depends on (dx, theta) only
    for k in range(1, nx):
        dx = x[k] - x[k - 1]
        th = 1.0 if (scheme == "be" or k <= BE_STEPS) else 0.5
        if (dx, th) not in lus:
            lus[dx, th] = _step_lu((m_coef / dx) * C - th * D + E)
        carry = conv @ U[k - 1]
        if coupled:
            carry += W
        b = (th * F[k] + (1.0 - th) * F[k - 1] + (m_coef / dx) * carry
             + (1.0 - th) * (d2 @ U[k - 1]))
        b[0] = g[k]
        b[-1] = 0.0
        if coupled:
            sol = lus[dx, th].solve(np.r_[b, np.zeros(nY)])
            U[k], W = sol[:nY], sol[nY:]
        else:
            U[k] = lus[dx, th].solve(b)
        if not np.all(np.isfinite(U[k])) or np.max(np.abs(U[k])) > BLOWUP * scale:
            raise MarchError(f"marching blow-up at step {k} (x={x[k]:.4g})")
        DXU[k] = (U[k] - U[k - 1]) / dx
    V = DXU @ kq.T.toarray()
    return U, DXU, V


def solve_layer_plus(F, g, grid, last_layer=False, m_coef=2.0, index=0,
                     scheme="cn", g0_tol=None):
    """u solves m u_x - u_YY = F, u(0,Y)=0, u(x,0)=g, decaying far field.

    The stored V carries the divergence-consistent sign for the upper wall:
    V = -int_Y^inf dx u (last layer: V = +int_0^Y dx u, so V(x,0) = 0).
    """
    U, DXU, V = _march(grid, F, g, last_layer, "plus", m_coef,
                       scheme=scheme, g0_tol=g0_tol)
    return LayerProfile(grid, "plus", index, last_layer, U, DXU, -V, F)


def solve_layer_minus(F, g, grid, last_layer=False, m_coef=1.0, index=0,
                      scheme="cn", g0_tol=None):
    """u solves m (Y u_x + v) - u_YY = F with the nonlocal vertical velocity.

    Each implicit step couples u to v = int_Y^inf dx u and solves the
    coupled system monolithically.
    """
    U, DXU, V = _march(grid, F, g, last_layer, "minus", m_coef,
                       scheme=scheme, g0_tol=g0_tol)
    return LayerProfile(grid, "minus", index, last_layer, U, DXU, V, F)


# -- cut-off -----------------------------------------------------------------

class CutLayer:
    """Cut-off layer fields on the half-line grid, divergence-consistent.

    minus: Uhat = chi U - (eps^s/a0) chi' W;  plus: Uhat = chi U + (eps^s/a0) chi' W
    (the sign difference mirrors the stored V sign); Vhat = chi V.
    """

    def __init__(self, layer, a0, eps, x2_floor=0.0):
        self.layer = layer
        self.eps = eps
        # rows below the reporting-grid cell scale carry unresolvable
        # corner singularities of d_xx; they are zeroed (sub-quadrature).
        self.x2_mask = (layer.grid.x >= x2_floor).astype(float)[:, None]
        side = layer.side
        s = S_EXP[side]
        yy = eps ** s * layer.grid.Y          # distance from the wall
        self.y_wall_dist = yy
        self.chi = chi(yy / a0)
        chip = chi_prime(yy / a0)
        sgn = -1.0 if side == "minus" else 1.0
        scale = eps ** s / a0
        self.c1 = scale * chip
        self.c2 = scale ** 2 * chi_d2(yy / a0)
        self.cc = sgn * self.c1       # a sign flip is exact
        self.ccp = sgn * self.c2
        self.ccpp = sgn * scale ** 3 * chi_d3(yy / a0)
        cc = self.cc
        self.Uhat = self.chi[None, :] * layer.U + cc[None, :] * layer.W
        self.DXUhat = self.chi[None, :] * layer.DXU + cc[None, :] * layer.DXW
        self.Vhat = self.chi[None, :] * layer.V
        self.DXVhat = np.empty_like(self.Vhat)
        self.DXVhat[0] = 0.0
        dxs = np.diff(layer.grid.x)[:, None]
        self.DXVhat[1:] = (self.Vhat[1:] - self.Vhat[:-1]) / dxs
        self._d1Y = diff_matrix(layer.grid.Y, 1)
        self._d2Y = diff_matrix(layer.grid.Y, 2)
        self._d2x = diff_matrix(layer.grid.x, 2)

    def dY(self, f):
        return (self._d1Y @ f.T).T

    def dYY(self, f):
        return (self._d2Y @ f.T).T

    def dXX(self, f):
        return self.x2_mask * (self._d2x @ f)


# -- corrector parts --------------------------------------------------------

class LayerTarget:
    """A wall's half-line grid and the channel y of each of its Y nodes."""

    def __init__(self, side, grid, eps):
        self.grid = grid
        s = S_EXP[side]
        if side == "minus":
            self.y_of_Y = np.clip(eps ** s * grid.Y, 0.0, 2.0)
        else:
            self.y_of_Y = np.clip(2.0 - eps ** s * grid.Y, 0.0, 2.0)


_CONV_KEYS = ("u", "v", "ux", "uy", "vx", "vy")   # read by the quadratic terms


def interp_layer_field(field, lgrid, side, eps, cx, cy):
    """Interpolate a half-line field to channel nodes (0 beyond Ymax)."""
    s = S_EXP[side]
    Yq = (cy / eps ** s) if side == "minus" else ((2.0 - cy) / eps ** s)
    inside = Yq <= lgrid.Ymax
    # the columns beyond Ymax are +0.0, so only the inside ones interpolate
    tmp = np.zeros((field.shape[0], cy.size))
    Yc = np.clip(Yq[inside], 0.0, lgrid.Ymax)
    tmp[:, inside] = pchip_operator(lgrid.Y, Yc)(field, axis=1)
    return pchip_operator(lgrid.x, cx)(tmp, axis=0)


def interp_channel_field(field, cgrid, xq, yq):
    """Interpolate a channel field to arbitrary (xq, yq) tensor nodes."""
    yc = np.clip(yq, cgrid.y[0], cgrid.y[-1])
    xc = np.clip(xq, cgrid.x[0], cgrid.x[-1])
    tmp = pchip_operator(cgrid.y, yc)(field, axis=1)
    return pchip_operator(cgrid.x, xc)(tmp, axis=0)


def restrict_channel_field(field, src, dst):
    """A field on channel grid src, on dst: exact slicing when dst's nodes
    are a leading x block of src's with the same y, else interpolated."""
    if (src.nx >= dst.nx and src.ny == dst.ny
            and np.allclose(src.x[:dst.nx], dst.x)
            and np.allclose(src.y, dst.y)):
        return field[:dst.nx]
    return interp_channel_field(field, src, dst.x, dst.y)


def _layer_to_channel(fields, lgrid, side, eps, grid):
    return {k: interp_layer_field(f, lgrid, side, eps, grid.x, grid.y)
            for k, f in fields.items()}


# Every part gives channel_fields(grid): its nonzero keys among u, v, ux, uy,
# vx, vy, lap_u, lap_v, P, px, py on a channel grid.  Euler and layer parts
# also give convection(side): the _CONV_KEYS on that wall's layer grid,
# cached per side.  side is the wall of a layer or aux part, None for an
# Euler part.

class BasePart:
    """The base shear flow (mu(y), 0) with constant pressure."""

    def __init__(self, profile):
        self.profile = profile

    def channel_fields(self, grid):
        mu, nx = self.profile.mu, grid.nx
        return {"u": np.tile(mu(grid.y), (nx, 1)),
                "uy": np.tile(mu(grid.y, 1), (nx, 1)),
                "lap_u": np.tile(mu(grid.y, 2), (nx, 1))}


class EulerPart:
    """One Euler corrector, prefactor included; exact-construction derivatives.

    ux is stored as -d_y v (the divergence relation used to build u) and the
    pressure gradients as the exact momentum balances, so the x- and
    y-momentum kills cancel pointwise in the remainder assembly.
    """

    side = None

    def __init__(self, corr, prefac, ops, profile, rhs_x, walls):
        self.corr = corr
        self.prefac = prefac
        self.walls = walls
        c = prefac
        mu = profile.mu(corr.grid.y)
        mup = profile.mu(corr.grid.y, 1)
        vy = ops.apply(ops.Dy, corr.v)
        vx = ops.apply(ops.Dx, corr.v)
        ux = -vy
        uy = ops.apply(ops.Dy, corr.u)
        # rhs_x: mu'' for the first corrector, 0 for higher ones
        self.fields = {   # on the corrector's own grid
            "u": c * corr.u, "v": c * corr.v,
            "ux": c * ux, "uy": c * uy,
            "vx": c * vx, "vy": c * vy,
            "lap_u": c * ops.apply(ops.lap, corr.u),
            "lap_v": c * ops.apply(ops.lap, corr.v),
            "px": c * (rhs_x[None, :] - mu[None, :] * ux - mup[None, :] * corr.v),
            "py": -c * mu[None, :] * vx,
        }
        self._conv = {}

    def channel_fields(self, grid):
        src = self.corr.grid
        f = {k: restrict_channel_field(v, src, grid) for k, v in self.fields.items()}
        f["P"] = self.prefac * restrict_channel_field(self.corr.P, src, grid)
        return f

    def convection(self, side):
        if side not in self._conv:
            wall = self.walls[side]
            self._conv[side] = {
                k: interp_channel_field(self.fields[k], self.corr.grid,
                                        wall.grid.x, wall.y_of_Y)
                for k in _CONV_KEYS}
        return self._conv[side]


class LayerPart:
    """One cut boundary-layer corrector with divergence-consistent fields."""

    def __init__(self, cut, cu):
        lay = cut.layer
        self.cut = cut
        self.layer = lay
        self.side = lay.side
        self.eps = cut.eps
        s = S_EXP[lay.side]
        cv = self.cv = cu * cut.eps ** s
        chain = SIGN_Y[lay.side] * cut.eps ** (-s)
        e2s = self.eps ** (-2.0 * s)
        self.fields = {   # on the layer grid
            "u": cu * cut.Uhat, "v": cv * cut.Vhat,
            "ux": cu * cut.DXUhat, "uy": cu * chain * cut.dY(cut.Uhat),
            "vx": cv * cut.DXVhat, "vy": cv * chain * cut.dY(cut.Vhat),
            "lap_u": cu * (cut.dXX(cut.Uhat) + e2s * cut.dYY(cut.Uhat)),
            "lap_v": cv * (cut.dXX(cut.Vhat) + e2s * cut.dYY(cut.Vhat)),
        }
        # cut supports are disjoint: a layer convects at its own wall only
        self._conv = {self.side: {k: self.fields[k] for k in _CONV_KEYS}}

    def channel_fields(self, grid):
        return _layer_to_channel(self.fields, self.layer.grid, self.side,
                                 self.eps, grid)

    def convection(self, side):
        return self._conv[side]


class AuxPart:
    """Auxiliary layer pressure: zeroes pending vertical-momentum terms."""

    def __init__(self, side, lgrid, eps, py, px, P):
        self.side = side
        self.lgrid = lgrid
        self.eps = eps
        self.fields = {"px": px, "py": py, "P": P}   # on the layer grid

    def channel_fields(self, grid):
        return _layer_to_channel(self.fields, self.lgrid, self.side,
                                 self.eps, grid)


def _pair_terms(P, Q, side, comp):
    """Quadratic convection products of two parts (P != Q), both orderings."""
    a, b = P.convection(side), Q.convection(side)
    if comp == "u":
        return (a["u"] * b["ux"] + b["u"] * a["ux"]
                + a["v"] * b["uy"] + b["v"] * a["uy"])
    return (a["u"] * b["vx"] + b["u"] * a["vx"]
            + a["v"] * b["vy"] + b["v"] * a["vy"])


def _self_terms(P, side, comp):
    a = P.convection(side)
    if comp == "u":
        return a["u"] * a["ux"] + a["v"] * a["uy"]
    return a["u"] * a["vx"] + a["v"] * a["vy"]


class Cascade:
    """Pending-term registry driving the layer forcings and aux pressures.

    Every corrector added pushes the x- and y-momentum residual terms it
    creates at each wall (quadratic interactions and, for layers, cut-off
    commutators, mu-approximation errors, viscous-x leftovers and the
    shear-convection term) onto tagged per-side lists.  A layer solve takes
    minus the accumulated u-list as forcing; an aux pressure zeroes the
    v-list.  Euler-Euler interactions are excluded: they stay in the
    measured remainder.
    """

    def __init__(self, profile, eps, a0, grid, layer_grids):
        self.profile = profile
        self.eps = eps
        self.a0 = a0
        self.hx = grid.x[1] - grid.x[0]   # of the Euler correctors' grid
        self.walls = {side: LayerTarget(side, layer_grids[side], eps)
                      for side in ("minus", "plus")}
        self.m0 = float(profile.mu(np.array([0.0]), 1)[0])
        self.m1 = float(profile.mu(np.array([2.0]))[0])
        self.parts = [BasePart(profile)]   # every part, in assembly order
        self.convecting = []               # the Euler and layer parts
        self.pending_u = {"minus": [], "plus": []}
        self.pending_v = {"minus": [], "plus": []}
        # corner ramp: forcings and aux pressures only absorb residual terms
        # where the inflow-corner singularities are resolvable; the sliver
        # below a few reporting cells stays in the measured remainder.
        hx = self.hx
        width = max(grid.L / 3.0, 8.0 * hx)
        self.ramp = {}
        self.ramp_aux = {}
        for side, tgt in self.walls.items():
            # forcing absorption ramps on the macro scale (re-expanding sharp
            # onsets would amplify); the aux kill only needs the corner guard
            self.ramp[side] = _smoothstep((tgt.grid.x - 2.0 * hx) / width)[:, None]
            self.ramp_aux[side] = _smoothstep((tgt.grid.x - 2.0 * hx)
                                              / (4.0 * hx))[:, None]

    # -- bookkeeping helpers ------------------------------------------------

    def _push(self, side, comp, tag, field):
        if not np.any(field):
            return
        lst = self.pending_u[side] if comp == "u" else self.pending_v[side]
        lst.append([tag, field])

    def eq_scale(self, side, index):
        if side == "minus":
            return self.eps ** (4.0 / 3.0 + (index - 1) / 3.0)
        return self.eps ** (1.0 + (index - 1) / 2.0)

    def u_prefac(self, side, index):
        if side == "minus":
            return self.eps ** (1.0 + (index - 1) / 3.0)
        return self.eps ** (1.0 + (index - 1) / 2.0)

    def layer_forcing(self, side, index):
        """Forcing for the next layer plus its recorded component breakdown."""
        q = self.eq_scale(side, index)
        tgt = self.walls[side]
        ramp = self.ramp[side]
        comps = {}
        for tag, f in self.pending_u[side]:
            comps[tag] = comps.get(tag, 0.0) + f
        F = np.zeros((tgt.grid.nx, tgt.grid.Y.size))
        for tag in comps:
            comps[tag] = -(ramp * comps[tag]) / q
            F = F + comps[tag]
        return smooth_x(F), comps

    # -- adding correctors ----------------------------------------------------

    def _push_quads(self, new_part, sides=("minus", "plus")):
        # base x layer is handled analytically in add_layer, and the aux
        # pressures have no convection products
        for side in sides:
            for Q in self.convecting:
                pair = {Q.side, new_part.side}
                if pair == {None}:
                    continue  # Euler-Euler stays in the measured remainder
                if pair - {None, side}:
                    continue  # a layer of the other wall contributes nothing here
                self._push(side, "u", "quad", _pair_terms(new_part, Q, side, "u"))
                self._push(side, "v", "quad", _pair_terms(new_part, Q, side, "v"))

    def add_euler(self, corrector, prefac, channel_ops):
        rhs_x = (self.profile.mu(corrector.grid.y, 2)
                 if corrector.side == "first" else np.zeros(corrector.grid.ny))
        part = EulerPart(corrector, prefac, channel_ops, self.profile, rhs_x,
                         self.walls)
        self._push_quads(part)
        self.parts.append(part)
        self.convecting.append(part)
        return part

    def add_layer(self, layer, index):
        side = layer.side
        tgt = self.walls[side]
        cu = self.u_prefac(side, index)
        q = self.eq_scale(side, index)
        cut = CutLayer(layer, self.a0, self.eps, x2_floor=1.5 * self.hx)
        part = LayerPart(cut, cu)
        mu_y = self.profile.mu(tgt.y_of_Y)
        mup_y = self.profile.mu(tgt.y_of_Y, 1)
        chiv = cut.chi[None, :]

        # old pending content survives outside the new cut support and in
        # the unabsorbed corner sliver
        damp = 1.0 - self.ramp[side] * chiv
        for lst in (self.pending_u[side],):
            for item in lst:
                item[1] = damp * item[1]

        # cut-off commutator, analytic in the layer fields (the discrete
        # scheme residual stays in the measured remainder, never in the
        # forcing: dividing it by the next equation order would compound
        # solver truncation through the cascade)
        UY = (cut._d1Y @ layer.U.T).T
        sgnW = 1.0 if side == "plus" else -1.0
        conv = (self.m0 * tgt.grid.Y[None, :] if side == "minus" else self.m1)
        commut = (conv * cut.cc[None, :] * layer.DXW
                  - cut.c2[None, :] * layer.U
                  - 2.0 * cut.c1[None, :] * UY
                  - cut.ccpp[None, :] * layer.W
                  - 2.0 * sgnW * cut.ccp[None, :] * layer.U
                  - sgnW * cut.cc[None, :] * UY)
        if side == "minus":
            approx = (cu * (mu_y - self.m0 * tgt.y_of_Y)[None, :] * cut.DXUhat
                      + part.cv * (mup_y - self.m0)[None, :] * cut.Vhat)
            shear = None
        else:
            approx = cu * (mu_y - self.m1)[None, :] * cut.DXUhat
            shear = part.cv * mup_y[None, :] * cut.Vhat
        self._push(side, "u", "cut", q * commut)
        self._push(side, "u", "approx", approx)
        if shear is not None:
            self._push(side, "u", "shear", shear)
        # vertical momentum: base convection + viscous of the layer's v
        nf = part.fields
        self._push(side, "v", "vmom", mu_y[None, :] * nf["vx"] - self.eps * nf["lap_v"])
        self._push(side, "v", "vmom", _self_terms(part, side, "v"))
        self._push(side, "u", "quad", _self_terms(part, side, "u"))
        self._push_quads(part, sides=(side,))
        self.parts.append(part)
        self.convecting.append(part)
        return part

    def make_aux(self, side):
        """Auxiliary pressure killing the accumulated (ramped) v-momentum terms."""
        # its eps^2-order x-gradient (like the layers' viscous-x leftover)
        # stays in the measured remainder: fed into the next forcing it would
        # re-amplify marching dust by 1/q per level at desk resolutions
        lgrid = self.walls[side].grid
        ramp = self.ramp_aux[side]
        pv = ramp * sum((f for _, f in self.pending_v[side]),
                        np.zeros(lgrid.shape))
        for item in self.pending_v[side]:
            item[1] = (1.0 - ramp) * item[1]
        py = -pv
        s = S_EXP[side]
        sgn = 1.0 if side == "minus" else -1.0
        wtail = _integral_matrix(lgrid, last_layer=False)  # int_Y^Ymax
        Pi = sgn * self.eps ** s * (pv @ wtail.T.toarray())
        dxpv = fitted_dx(lgrid.x, pv, self.ramp[side].ravel())
        # the fit is unconstrained where the corner weight vanishes
        px = self.ramp[side] * (sgn * self.eps ** s * (dxpv @ wtail.T.toarray()))
        part = AuxPart(side, lgrid, self.eps, py, px, Pi)
        self.parts.append(part)
        return part

    def dumped_report(self):
        out = {}
        for side in ("minus", "plus"):
            for comp, lst in (("u", self.pending_u[side]), ("v", self.pending_v[side])):
                for tag, f in lst:
                    key = f"{side}.{comp}.{tag}"
                    out[key] = out.get(key, 0.0) + float(np.max(np.abs(f)))
        return out


def apply_cutoff(layer, a0, eps, channel_grid):
    """Cut a layer and express the corrector pair on the channel grid.

    Returns (u_field, v_field, cut) where u,v carry the layer-variable
    profile only (unit prefactor); the divergence identity of the cut pair
    holds analytically and is verified discretely in the tests.
    """
    cut = CutLayer(layer, a0, eps)
    s = S_EXP[layer.side]
    u = interp_layer_field(cut.Uhat, layer.grid, layer.side, eps,
                           channel_grid.x, channel_grid.y)
    v = eps ** s * interp_layer_field(cut.Vhat, layer.grid, layer.side, eps,
                                      channel_grid.x, channel_grid.y)
    return u, v, cut
