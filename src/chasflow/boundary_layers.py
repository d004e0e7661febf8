"""Two-scale weak boundary layers: half-line solves, cut-offs, cascade.

Layers live on (x, Y) with Y = y/eps^(1/3) at the lower wall ("minus",
degenerate operator Y du/dx + v - u_YY) and Y = (2-y)/eps^(1/2) at the upper
wall ("plus", heat operator mu(2) du/dx - u_YY).  Vertical layer velocities
are stored with the sign that makes the physical corrector pair
divergence-free.  Marching is an implicit theta scheme (backward-Euler
start-up steps, Crank-Nicolson after) with graded x steps near the inflow.

The cascade bookkeeping is mechanical: each wall is one record (`Wall`:
layer grid, cut-off and its coefficients, march coefficient, corner ramps,
pending lists), and every
x-momentum residual term that the correctors built so far generate at a
wall is held in that wall's pending list (tagged cut / approx / quad /
shear); the next layer of that wall takes the accumulated sum as its
forcing, and an auxiliary layer pressure zeroes the pending
vertical-momentum terms order by order.  Each layer level is one part
(`LayerPart`): its cut fields and their record, read off its wall.
"""

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import (HalfLineGrid, cumtrapz0, diff_matrix, one_sided_row,
                             pchip_operator)

SIGN_Y = {"minus": 1.0, "plus": -1.0}   # d/dy -> SIGN_Y * eps^(-s) d/dY
WALL_Y = {"minus": 0.0, "plus": 2.0}    # y = WALL_Y + SIGN_Y * eps^s * Y
S_EXP = {"minus": 1.0 / 3.0, "plus": 0.5}
BE_STEPS = 3     # backward-Euler start-up steps of the "cn" scheme
BLOWUP = 1e6     # a marched column above this times the data scale fails
# a layer decays into its far field, and on x86 every subnormal operand takes
# a slow path: the march sets each |v| below this to v * 0.0, a signed zero
TINY = np.finfo(float).tiny
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
    h = 1e-6
    return (chi(t + h) - chi(t - h)) / (2.0 * h)


def chi_d2(t):
    h = 1e-4
    return (chi(t + h) - 2.0 * chi(t) + chi(t - h)) / h ** 2


def chi_d3(t):
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

def _integral_matrix(Y, last_layer):
    """K with V = K @ (dx u) on the Y nodes: from Ymax down (decaying) or
    -int from 0 (last).

    An entry is a sum of at most two half-spacings: column c takes h_c from
    the trapezoid on [Y_c, Y_c+1] (lo) and h_c-1 from the one on
    [Y_c-1, Y_c] (hi), in every row whose integral covers that trapezoid.
    """
    h = 0.5 * np.diff(Y)
    lo, hi = np.r_[h, 0.0], np.r_[0.0, h]
    n = lo.size
    if last_layer:
        w = -(np.tril(np.tile(lo + hi, (n, 1)), -1) + np.diag(hi))
    else:
        w = np.triu(np.tile(lo + hi, (n, 1)), 1) + np.diag(lo)
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


class _MarchPlan:
    """What a march builds before its first step: it depends on the Y nodes,
    the side and the far-field row alone, so each process builds it once
    (`_march_plan`) and keeps the step LUs of every (m/dx, theta) on it."""

    def __init__(self, Y, side, last_layer):
        nY = Y.size
        self.coupled = side == "minus"
        self.conv = Y if self.coupled else np.ones(nY)   # diagonal of conv
        self.d2 = diff_matrix(Y, 2)
        self.kq = _integral_matrix(Y, last_layer)
        self.kqT = self.kq.T.toarray()
        self.kqT.flags.writeable = False
        interior, walls = _wall_rows(Y, last_layer)
        # step matrix (m/dx) C - theta D + E; on the minus side W = kq @ u
        # joins the unknowns through its recurrence rows, so it stays sparse
        C, D, E = interior @ sp.diags(self.conv), interior @ self.d2, walls
        if self.coupled:
            zero = sp.csr_matrix((nY, nY))
            C = sp.bmat([[C, interior], [zero, zero]])
            D = sp.bmat([[D, zero], [zero, zero]])
            E = sp.bmat([[E, None], list(_integral_rows(Y, last_layer))])
        self.C, self.D, self.E = C.tocsc(), D.tocsc(), E.tocsc()

    @functools.lru_cache(maxsize=MARCH_LU_MEMO)
    def step_lu(self, m_dx, th):
        """splu of the step matrix; m_dx is the quotient m/dx that scales C,
        so (plan, m_dx, th) fixes the matrix bit for bit."""
        return spla.splu(m_dx * self.C - th * self.D + self.E)


@functools.lru_cache(maxsize=8)
def _march_plan(Ybytes, side, last_layer):
    # keyed on the float64 bytes: equal keys are equal nodes, bit for bit
    return _MarchPlan(np.frombuffer(Ybytes), side, last_layer)


def _march(grid, F, g, last_layer, kind, m_coef, scheme):
    """Implicit theta-scheme march in x for both layer types."""
    x = grid.x
    nx, nY = grid.nx, grid.nY
    F = np.zeros((nx, nY)) if F is None else np.asarray(F, dtype=float)
    g = np.zeros(nx) if g is None else np.asarray(g, dtype=float)
    scale = max(np.max(np.abs(g)), np.max(np.abs(F)), 1.0)
    plan = _march_plan(grid.Y.tobytes(), kind, last_layer)

    U = np.zeros((nx, nY))
    DXU = np.zeros((nx, nY))
    U[0, 0] = g[0]
    g_slope = (g[1] - g[0]) / (x[1] - x[0])
    DXU[0] = _dxu_at_inflow(grid, F[0], m_coef, kind, g_slope=g_slope)
    W = plan.kq @ U[0]
    # the right-hand side; on the minus side W's recurrence rows read 0
    rhs = np.zeros(2 * nY if plan.coupled else nY)
    b = rhs[:nY]
    ths = np.where((scheme == "be") | (np.arange(1, nx) <= BE_STEPS), 1.0, 0.5)
    blend = ths[:, None] * F[1:] + (1.0 - ths[:, None]) * F[:-1]    # all steps
    for k in range(1, nx):
        dx = x[k] - x[k - 1]
        th = float(ths[k - 1])
        m_dx = m_coef / dx
        # conv @ u as a sparse product forms it, from 0.0 up (-0.0 -> +0.0)
        carry = plan.conv * U[k - 1] + 0.0
        if plan.coupled:
            carry += W
        b[:] = blend[k - 1] + m_dx * carry
        if th != 1.0:
            b += (1.0 - th) * (plan.d2 @ U[k - 1])
        b[0] = g[k]
        b[-1] = 0.0
        sol = plan.step_lu(m_dx, th).solve(rhs)
        mag = np.abs(sol)
        np.multiply(sol, 0.0, out=sol, where=mag < TINY)
        U[k], W = sol[:nY], sol[nY:]
        if not np.max(mag[:nY]) <= BLOWUP * scale:
            raise MarchError(f"marching blow-up at step {k} (x={x[k]:.4g})")
    DXU[1:] = np.diff(U, axis=0) / np.diff(x)[:, None]
    np.multiply(DXU, 0.0, out=DXU, where=np.abs(DXU) < TINY)
    V = DXU @ plan.kqT
    np.multiply(V, 0.0, out=V, where=np.abs(V) < TINY)
    return U, DXU, V


def solve_layer_plus(F, g, grid, last_layer=False, m_coef=2.0, index=0, *,
                     scheme):
    """u solves m u_x - u_YY = F, u(0,Y)=0, u(x,0)=g, decaying far field.

    The stored V carries the divergence-consistent sign for the upper wall:
    V = -int_Y^inf dx u (last layer: V = +int_0^Y dx u, so V(x,0) = 0).
    """
    U, DXU, V = _march(grid, F, g, last_layer, "plus", m_coef, scheme)
    return LayerProfile(grid, "plus", index, last_layer, U, DXU, -V, F)


def solve_layer_minus(F, g, grid, last_layer=False, m_coef=1.0, index=0, *,
                      scheme):
    """u solves m (Y u_x + v) - u_YY = F with the nonlocal vertical velocity.

    Each implicit step couples u to v = int_Y^inf dx u and solves the
    coupled system monolithically.
    """
    U, DXU, V = _march(grid, F, g, last_layer, "minus", m_coef, scheme)
    return LayerProfile(grid, "minus", index, last_layer, U, DXU, V, F)


# -- corrector parts --------------------------------------------------------

def layer_grid(side, eps, a0, x, nY):
    """A wall's half-line grid on the layer x nodes: Y reaches 1.1 times the
    cut-off's edge a0 eps^-s, and 20 at least."""
    ymax = max(20.0, 1.1 * a0 * eps ** (-S_EXP[side]))
    return HalfLineGrid(x[-1], None, nY, Ymax=ymax, x=x)


class Wall:
    """One wall's layer state, built once per point and read by its parts:
    the half-line grid (full width: the march's), d_xx with its corner mask,
    the march coefficient, the corner ramps and, on the first nS Y nodes
    (the support), their channel y, mu and mu' there, the cut-off chi(t),
    t = eps^s Y / a0, with its coefficients, the Y difference matrices, the
    aux tail integral and the (nx, nS) pending momentum lists.  chi_d3
    reads chi(t + 2e-4), so every cut coefficient is 0 from t = 1 + 3e-4 on;
    4 more nodes keep the d1/d2 stencils of nonzero nodes off the cut end
    and end on a PCHIP interval with zero ends and slopes (exactly +0.0)."""

    def __init__(self, side, grid, profile, eps, a0, hx):
        self.side, self.grid, self.eps = side, grid, eps
        s = S_EXP[side]
        self.es = eps ** s
        self.chain = SIGN_Y[side] * eps ** (-s)   # d/dy = chain * d/dY
        self.e2s = eps ** (-2.0 * s)
        yy = self.es * grid.Y                     # distance from the wall
        t = yy / a0
        self.nS = nS = min(grid.nY, int(np.count_nonzero(t < 1.0 + 3e-4)) + 4)
        self.Y, yy, t = grid.Y[:nS], yy[:nS], t[:nS]
        self.y_of_Y = np.clip(WALL_Y[side] + SIGN_Y[side] * yy, 0.0, 2.0)
        self.mu_y, self.mup_y = profile.mu(self.y_of_Y), profile.mu(self.y_of_Y, 1)
        # convection at the wall: mu'(0) Y below, mu(2) above
        k = 1 if side == "minus" else 0
        self.m_coef = float(profile.mu(np.array([WALL_Y[side]]), k)[0])
        scale, sgn = self.es / a0, -SIGN_Y[side]
        self.chi = chi(t)
        self.c1 = scale * chi_prime(t)
        self.c2 = scale ** 2 * chi_d2(t)
        self.cc = sgn * self.c1       # a sign flip is exact
        self.ccpp = sgn * scale ** 3 * chi_d3(t)
        self.d1Y, self.d2Y = diff_matrix(self.Y, 1), diff_matrix(self.Y, 2)
        self.d2x = diff_matrix(grid.x, 2)
        # rows below the reporting-grid cell scale carry unresolvable
        # corner singularities of d_xx; they are zeroed (sub-quadrature).
        self.x2_mask = (grid.x >= 1.5 * hx).astype(float)[:, None]
        # int_Y^Ymax of a field that is 0 beyond the support (the aux
        # pressure's): the block of the march's integral matrix suffices
        self.tail = _march_plan(grid.Y.tobytes(), side, False).kqT[:nS, :nS]
        # corner ramp: forcings and aux pressures only absorb residual terms
        # where the inflow-corner singularities are resolvable; the sliver
        # below a few reporting cells stays in the measured remainder.
        # Forcing absorption ramps on the macro scale (re-expanding sharp
        # onsets would amplify); the aux kill only needs the corner guard.
        width = max(grid.x[-1] / 3.0, 8.0 * hx)
        self.ramp = _smoothstep((grid.x - 2.0 * hx) / width)[:, None]
        self.ramp_aux = _smoothstep((grid.x - 2.0 * hx) / (4.0 * hx))[:, None]
        self.pending = {"u": [], "v": []}   # [tag, field] items by component

    def dY(self, f):
        return (self.d1Y @ f.T).T

    def cut(self, layer):
        """A layer's cut arrays on the support: U (a view of the march's),
        W = int_0^x V (column by column: the full-width W's leading block),
        DXW, Uhat = chi U + cc W (cc carries the stored V sign), DXUhat,
        Vhat = chi V and DXVhat."""
        U, V = layer.U[:, :self.nS], layer.V[:, :self.nS]
        W = cumtrapz0(V, self.grid.x)
        DXW = np.concatenate([V[:1], 0.5 * (V[1:] + V[:-1])])
        chiv, cc = self.chi[None, :], self.cc[None, :]
        Vhat = chiv * V
        DXVhat = np.zeros_like(Vhat)
        DXVhat[1:] = np.diff(Vhat, axis=0) / np.diff(self.grid.x)[:, None]
        return {"U": U, "W": W, "DXW": DXW, "Uhat": chiv * U + cc * W,
                "DXUhat": chiv * layer.DXU[:, :self.nS] + cc * DXW,
                "Vhat": Vhat, "DXVhat": DXVhat}

    def lap(self, f):
        return self.x2_mask * (self.d2x @ f) + self.e2s * (self.d2Y @ f.T).T


_CONV_KEYS = ("u", "v", "ux", "uy", "vx", "vy")   # read by the quadratic terms


def interp_layer_field(field, lgrid, side, eps, cx, cy):
    """Interpolate a cut field on a wall's support, the first nS Y nodes of
    its layer grid, to channel nodes.  Past those, PCHIP of the full-width
    field gives exactly +0.0, so those channel columns stay zero untouched.
    Leading axes stack fields into one pass pair; a pass works column by
    column, so each field comes out as from its own call, bit for bit."""
    Y = lgrid.Y[:field.shape[-1]]
    Yq = SIGN_Y[side] * (cy - WALL_Y[side]) / eps ** S_EXP[side]
    inside = Yq <= Y[-1]
    tmp = pchip_operator(Y, np.clip(Yq[inside], 0.0, Y[-1]))(field, axis=-1)
    out = np.zeros(field.shape[:-2] + (cx.size, cy.size))
    out[..., inside] = pchip_operator(lgrid.x, cx)(tmp, axis=-2)
    return out


def interp_channel_field(field, cgrid, xq, yq):
    """Interpolate a channel field, or a stack of them along leading axes
    (as `interp_layer_field`), to arbitrary (xq, yq) tensor nodes."""
    yc = np.clip(yq, cgrid.y[0], cgrid.y[-1])
    xc = np.clip(xq, cgrid.x[0], cgrid.x[-1])
    tmp = pchip_operator(cgrid.y, yc)(field, axis=-1)
    return pchip_operator(cgrid.x, xc)(tmp, axis=-2)


def restrict_channel_field(field, src, dst):
    """A field (or a dict of fields) on channel grid src, on dst, whose nodes
    are a leading x block of src's with the same y (to round-off: h*arange)."""
    if not (src.nx >= dst.nx and src.ny == dst.ny
            and np.allclose(src.x[:dst.nx], dst.x)
            and np.allclose(src.y, dst.y)):
        raise ValueError("dst grid is not a leading x block of src grid")
    return ({k: f[:dst.nx] for k, f in field.items()}
            if isinstance(field, dict) else field[:dst.nx])


# Every part gives channel_fields(grid): its nonzero keys among u, v, ux, uy,
# vx, vy, lap_u, lap_v, P, px, py on a channel grid.  Euler and layer parts
# also give convection(side): the _CONV_KEYS on that wall's layer grid,
# cached per side.  side is a layer part's wall, None for an Euler part.

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
    """One Euler corrector, prefactor included: its field record, scaled
    when read (the record is the only copy).

    The record's derivatives are exact for the construction (ux is -d_y v,
    the divergence relation used to build u) and px and py are its exact
    momentum balances, so the x- and y-momentum kills cancel pointwise in
    the remainder assembly.
    """

    side = None

    def __init__(self, corr, prefac, walls):
        self.corr, self.prefac, self.walls = corr, prefac, walls
        self._conv = {}

    def scaled(self, key):
        """A field of the record times the prefactor (py = -prefac mu vx)."""
        if key == "py":
            return -self.prefac * self.corr.mu[None, :] * self.corr.fields["vx"]
        return self.prefac * self.corr.fields[key]

    def channel_fields(self, grid):
        fields = {k: self.scaled(k) for k in [*self.corr.fields, "py"]}
        return restrict_channel_field(fields, self.corr.grid, grid)  # one check

    def convection(self, side):
        if side not in self._conv:
            wall = self.walls[side]
            stack = interp_channel_field(np.stack([self.scaled(k) for k in _CONV_KEYS]),
                                         self.corr.grid, wall.grid.x, wall.y_of_Y)
            self._conv[side] = dict(zip(_CONV_KEYS, stack))
        return self._conv[side]


class _CutPart:
    """A part whose fields live on its wall's support; they reach the
    channel as one stack."""

    def channel_fields(self, grid):
        w = self.wall
        stack = interp_layer_field(np.stack(list(self.fields.values())),
                                   w.grid, w.side, w.eps, grid.x, grid.y)
        return dict(zip(self.fields, stack))


class LayerPart(_CutPart):
    """One boundary-layer corrector cut off at its wall, prefactor cu
    included, with divergence-consistent fields made from its cut arrays
    (`Wall.cut`).  It keeps the fields, on the wall's support, and the wall
    column of Vhat, which the next Euler trace cancels; nothing more."""

    def __init__(self, cut, wall, cu):
        self.wall, self.side = wall, wall.side
        self.vhat_wall = cut["Vhat"][:, 0].copy()
        Uhat, Vhat = cut["Uhat"], cut["Vhat"]
        cv = self.cv = cu * wall.es
        self.fields = {   # on the wall's support
            "u": cu * Uhat, "v": cv * Vhat,
            "ux": cu * cut["DXUhat"], "uy": cu * wall.chain * wall.dY(Uhat),
            "vx": cv * cut["DXVhat"], "vy": cv * wall.chain * wall.dY(Vhat),
            "lap_u": cu * wall.lap(Uhat), "lap_v": cv * wall.lap(Vhat),
        }
        # cut supports are disjoint: a layer convects at its own wall only
        self._conv = {self.side: {k: self.fields[k] for k in _CONV_KEYS}}

    def convection(self, side):
        return self._conv[side]


class AuxPart(_CutPart):
    """Auxiliary layer pressure: zeroes pending vertical-momentum terms."""

    def __init__(self, wall, py, px, P):
        self.wall = wall
        self.fields = {"px": px, "py": py, "P": P}   # on the wall's support


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


def _tag_sums(items):
    """tag -> the sum of a pending list's fields of that tag, from 0.0 in
    list order."""
    sums = {}
    for tag, f in items:
        sums[tag] = sums.get(tag, 0.0) + f
    return sums


class Cascade:
    """Pending-term registry driving the layer forcings and aux pressures.

    Every corrector added pushes the x- and y-momentum residual terms it
    creates at each wall (quadratic interactions and, for layers, cut-off
    commutators, mu-approximation errors, viscous-x leftovers and the
    shear-convection term) onto that wall's tagged lists.  A layer solve
    takes minus the accumulated u-list as forcing; an aux pressure zeroes
    the v-list.  Euler-Euler interactions are excluded: they stay in the
    measured remainder.
    """

    def __init__(self, profile, eps, a0, grid, layer_x, layer_nY):
        self.eps = eps
        hx = grid.x[1] - grid.x[0]   # of the Euler correctors' grid
        self.walls = {side: Wall(side, layer_grid(side, eps, a0, layer_x, layer_nY),
                                 profile, eps, a0, hx)
                      for side in ("minus", "plus")}
        self.parts = [BasePart(profile)]   # every part, in assembly order
        self.convecting = []               # the Euler and layer parts

    # -- bookkeeping helpers ------------------------------------------------

    def _push(self, side, comp, tag, field):
        if np.any(field):
            self.walls[side].pending[comp].append([tag, field])

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
        wall = self.walls[side]
        comps = {tag: -(wall.ramp * total) / q
                 for tag, total in _tag_sums(wall.pending["u"]).items()}
        F = np.zeros(wall.grid.shape)   # the march's width: 0 past nS
        for comp in comps.values():
            F[:, :wall.nS] += comp
        return smooth_x(F), comps

    # -- adding correctors ----------------------------------------------------

    def _push_quads(self, new_part):
        # base x layer is handled analytically in add_layer, and the aux
        # pressures have no convection products
        for side in self.walls:
            for Q in self.convecting:
                pair = {Q.side, new_part.side}
                if pair == {None}:
                    continue  # Euler-Euler stays in the measured remainder
                if pair - {None, side}:
                    continue  # a layer of the other wall contributes nothing here
                self._push(side, "u", "quad", _pair_terms(new_part, Q, side, "u"))
                self._push(side, "v", "quad", _pair_terms(new_part, Q, side, "v"))

    def add_euler(self, corrector, prefac):
        part = EulerPart(corrector, prefac, self.walls)
        self._push_quads(part)
        self.parts.append(part)
        self.convecting.append(part)
        return part

    def add_layer(self, layer, index):
        side = layer.side
        wall = self.walls[side]
        cu = self.u_prefac(side, index)
        q = self.eq_scale(side, index)
        cut = wall.cut(layer)   # released on return: the part keeps its fields
        part = LayerPart(cut, wall, cu)

        # old pending content survives outside the new cut support and in
        # the unabsorbed corner sliver
        damp = 1.0 - wall.ramp * wall.chi[None, :]
        for item in wall.pending["u"]:
            item[1] = damp * item[1]

        # cut-off commutator, analytic in the layer fields (the discrete
        # scheme residual stays in the measured remainder, never in the
        # forcing: dividing it by the next equation order would compound
        # solver truncation through the cascade)
        U, W, DXW = cut["U"], cut["W"], cut["DXW"]
        UY = wall.dY(U)
        m = wall.m_coef
        conv = (m * wall.Y[None, :] if side == "minus" else m)
        commut = (conv * wall.cc[None, :] * DXW
                  - wall.c2[None, :] * U
                  - 2.0 * wall.c1[None, :] * UY
                  - wall.ccpp[None, :] * W
                  - 2.0 * wall.c2[None, :] * U
                  - wall.c1[None, :] * UY)
        self._push(side, "u", "cut", q * commut)
        mu_y, mup_y = wall.mu_y, wall.mup_y
        if side == "minus":
            self._push(side, "u", "approx",
                       cu * (mu_y - m * wall.y_of_Y)[None, :] * cut["DXUhat"]
                       + part.cv * (mup_y - m)[None, :] * cut["Vhat"])
        else:
            self._push(side, "u", "approx",
                       cu * (mu_y - m)[None, :] * cut["DXUhat"])
            self._push(side, "u", "shear",
                       part.cv * mup_y[None, :] * cut["Vhat"])
        # vertical momentum: base convection + viscous of the layer's v
        nf = part.fields
        self._push(side, "v", "vmom", mu_y[None, :] * nf["vx"] - self.eps * nf["lap_v"])
        self._push(side, "v", "vmom", _self_terms(part, side, "v"))
        self._push(side, "u", "quad", _self_terms(part, side, "u"))
        self._push_quads(part)
        self.parts.append(part)
        self.convecting.append(part)
        return part

    def make_aux(self, side):
        """Auxiliary pressure killing the accumulated (ramped) v-momentum terms."""
        # its eps^2-order x-gradient (like the layers' viscous-x leftover)
        # stays in the measured remainder: fed into the next forcing it would
        # re-amplify marching dust by 1/q per level at desk resolutions
        wall = self.walls[side]
        pv = wall.ramp_aux * sum((f for _, f in wall.pending["v"]),
                                 np.zeros((wall.grid.nx, wall.nS)))
        for item in wall.pending["v"]:
            item[1] = (1.0 - wall.ramp_aux) * item[1]
        Pi = SIGN_Y[side] * wall.es * (pv @ wall.tail)
        dxpv = fitted_dx(wall.grid.x, pv, wall.ramp.ravel())
        # the fit is unconstrained where the corner weight vanishes
        px = wall.ramp * (SIGN_Y[side] * wall.es * (dxpv @ wall.tail))
        part = AuxPart(wall, -pv, px, Pi)
        self.parts.append(part)
        return part

    def dumped_report(self):
        """Per wall, component and tag, max |sum| of the terms still pending:
        what is left in the remainder, however the terms were split."""
        return {f"{side}.{comp}.{tag}": float(np.max(np.abs(total)))
                for side, wall in self.walls.items()
                for comp, items in wall.pending.items()
                for tag, total in _tag_sums(items).items()}
