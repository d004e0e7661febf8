"""Full multi-scale construction: Euler correctors, layers, assembly, remainders.

For the Couette-type case the construction alternates Euler correctors and
two-scale boundary layers up to M levels, cutting each layer off at the wall
and feeding the generated residual terms forward through the cascade.  The
other two cases take u_s = (mu, 0) directly with the matching pressure.

Corrector BVPs are solved on a strip extended past x = L (same uniform x
spacing), so the artificial-outflow corner lies outside the reported domain;
all assembled fields and remainders are restricted to [0, L] by slicing.
"""

import numpy as np

from .discretization import ChannelGrid, DiffOps, HalfLineGrid, pchip_operator
from .euler_correctors import EulerSolver
from .boundary_layers import (BasePart, Cascade, S_EXP, solve_layer_minus,
                              solve_layer_plus)
from .profiles import check_couette_degeneracy

CASES = ("poiseuille_couette_noforce", "couette_noforce", "forced")
SCHEMES = ("be", "cn")
LAYER_SUB = 24                           # graded sub-steps in the first x cell
AUX_LIMIT = {"minus": 5, "plus": 3}      # levels that get an aux pressure
# assembled field <- part key (see boundary_layers' parts)
ASSEMBLED = (("u_s", "u"), ("v_s", "v"), ("us_x", "ux"), ("us_y", "uy"),
             ("vs_x", "vx"), ("vs_y", "vy"), ("lap_us", "lap_u"),
             ("lap_vs", "lap_v"), ("P_s", "P"), ("Ps_x", "px"), ("Ps_y", "py"))


class ExpansionError(RuntimeError):
    pass


class ExpansionConfig:
    """Knobs of the Section-2 construction."""

    def __init__(self, eps, M=3, gamma=0.05, a0=0.25, case="couette_noforce",
                 layer_nY=320, ext_factor=1.25, scheme="be"):
        if eps <= 0:
            raise ExpansionError("eps must be positive")
        if M < 1:
            raise ExpansionError("M must be >= 1")
        if gamma <= 0:
            raise ExpansionError("gamma must be positive")
        if case not in CASES:
            raise ExpansionError(f"case must be one of {CASES}")
        if not 0.0 < a0 <= 1.0:
            raise ExpansionError("a0 must lie in (0, 1]")
        if scheme not in SCHEMES:
            raise ExpansionError(f"scheme must be one of {SCHEMES}")
        if layer_nY < 4:
            raise ExpansionError("layer_nY must be >= 4 (the d2 stencil)")
        if not ext_factor >= 1.0:
            raise ExpansionError("ext_factor must be >= 1: the corrector "
                                 "strip has to cover the channel")
        self.eps = float(eps)
        self.M = int(M)
        self.gamma = float(gamma)
        self.M0 = 11.0 / 8.0 + self.gamma
        self.a0 = float(a0)
        self.case = case
        self.layer_nY = int(layer_nY)
        self.ext_factor = float(ext_factor)
        self.scheme = scheme


class CorrectorSet:
    """All solved correctors and the forcing record of each layer."""

    def __init__(self):
        self.euler = []        # EulerCorrector
        self.layers = []       # LayerProfile
        self.forcing_records = []


class ExpansionResult:
    def __init__(self, profile, config, grid, ops):
        self.profile = profile
        self.config = config
        self.grid = grid         # reporting grid, x in [0, L]
        self.ops = ops
        self.correctors = CorrectorSet()
        self.fields = {}         # u_s, v_s, P_s and semi-analytic derivatives
        self.Fu = None           # eps^{-M0}-scaled momentum remainders
        self.Fv = None
        self.report = {}
        self.cascade = None
        self.ext = None          # (grid, ops) of the extended corrector strip


def _extended_grid(grid, factor):
    h = grid.x[1] - grid.x[0]
    n_extra = int(np.ceil((factor - 1.0) * (grid.nx - 1)))
    x_ext = h * np.arange(grid.nx + n_extra)
    return ChannelGrid(x_ext[-1], x_ext, grid.y, sigma=grid.sigma)


def _layer_xgrid(x_ext, nsub):
    """Extended channel x nodes with a quadratically graded first cell."""
    first = x_ext[1]
    s = np.linspace(0.0, 1.0, nsub + 1)[1:-1]
    inner = first * s ** 2.0
    return np.concatenate([[0.0], inner, x_ext[1:]])


def _mollify_corner(g, x, x0):
    """Replace g on [0, x0] by the C1-matched cubic with g(0) = g'(0) = 0.

    The layer wall velocity behaves like sqrt(x) at the inflow corner; fed
    raw into the next Euler trace it would spike the corrector derivatives
    and inflate the remainder's Sobolev norms.  The wall-cancellation
    deficit introduced here is O(g(x0)) over four cells.
    """
    g = np.asarray(g, dtype=float).copy()
    k = int(np.searchsorted(x, x0))
    if k < 2 or k >= x.size - 2:
        return g
    xk = x[k]
    g0 = g[k]
    gp = (g[k + 1] - g[k - 1]) / (x[k + 1] - x[k - 1])
    c1 = (3.0 * g0 - gp * xk) / xk ** 2
    c2 = (gp * xk - 2.0 * g0) / xk ** 3
    g[:k] = c1 * x[:k] ** 2 + c2 * x[:k] ** 3
    return g


def construct_expansion(profile, config, grid):
    """Build (u_s, v_s, P_s) per the expansion ansatz and measure everything.

    couette_noforce runs the full corrector cascade (requires alpha2 = 0 and
    the degeneracy gate); the other cases return the base flow with the exact
    family pressure.
    """
    ops = DiffOps(grid.x, grid.y)
    res = ExpansionResult(profile, config, grid, ops)
    eps, M = config.eps, config.M

    if config.case == "couette_noforce":
        if profile.alpha2 != 0.0:
            raise ExpansionError("couette_noforce requires alpha2 = 0")
        gate = check_couette_degeneracy(profile)
        res.report["degeneracy"] = gate
        if not gate["pass"]:
            raise ExpansionError(
                f"degeneracy gate failed: sup|mu''/mu|={gate['sup_ratio2']:.3g}, "
                f"|mu'''/mu|_Ck={gate['ratio3_ck']:.3g}")
        _build_couette(res, profile, config, grid)
    else:
        _build_direct(res, profile, config, grid)

    compute_remainders(res)
    return res


def _build_direct(res, profile, config, grid):
    """Cases (i) and (iii): u_s = (mu, 0) with the family pressure."""
    eps = config.eps
    f = _assemble([BasePart(profile)], grid)
    if config.case == "poiseuille_couette_noforce":
        # P_s = eps U'' x = -2 eps alpha2 x
        f["P_s"] = -2.0 * eps * profile.alpha2 * grid.XX
        f["Ps_x"] = -2.0 * eps * profile.alpha2 * np.ones(grid.shape)
    res.fields = f


def _build_couette(res, profile, config, grid):
    eps, M, a0 = config.eps, config.M, config.a0
    grid_ext = _extended_grid(grid, config.ext_factor)
    ops_ext = DiffOps(grid_ext.x, grid_ext.y)
    res.ext = (grid_ext, ops_ext)

    lay_x = _layer_xgrid(grid_ext.x, LAYER_SUB)
    grids = {}
    for side in ("minus", "plus"):
        s = S_EXP[side]
        ymax = max(20.0, 1.1 * a0 * eps ** (-s))
        grids[side] = HalfLineGrid(grid_ext.L, None, config.layer_nY,
                                   Ymax=ymax, x=lay_x)

    casc = Cascade(profile, eps, a0, grid_ext, grids)
    res.cascade = casc

    solver = EulerSolver(grid_ext, profile, ops=ops_ext)
    e1 = solver.solve_first()
    res.correctors.euler.append(e1)
    casc.add_euler(e1, eps, ops_ext)

    wall_row = {"minus": 0, "plus": grid_ext.ny - 1}
    euler_of = {"minus": {1: e1}, "plus": {1: e1}}
    solve_fn = {"minus": solve_layer_minus, "plus": solve_layer_plus}
    m_coef = {"minus": casc.m0, "plus": casc.m1}
    parts = {}   # the level-i layer part of each side

    for i in range(1, M + 1):
        for side in ("minus", "plus"):
            lg = grids[side]
            ue = euler_of[side][i]
            g_layer = -pchip_operator(grid_ext.x, lg.x)(ue.u[:, wall_row[side]])
            F, comps = casc.layer_forcing(side, i)
            # default scheme "be": the L-stable march keeps the cascade's
            # repeated differentiation of marched fields free of ringing
            lay = solve_fn[side](F if i > 1 else None, g_layer, lg,
                                 last_layer=(i == M), m_coef=m_coef[side],
                                 index=i, scheme=config.scheme)
            res.correctors.layers.append(lay)
            parts[side] = casc.add_layer(lay, i)
            rec = {"index": i, "side": side, "far_field": lay.far_field(),
                   "forcing_max": float(np.max(np.abs(F))) if F is not None else 0.0,
                   "components_max": {k: float(np.max(np.abs(v)))
                                      for k, v in comps.items()}}
            res.correctors.forcing_records.append(rec)
            if i <= AUX_LIMIT[side]:
                casc.make_aux(side)
        if i < M:
            for side in ("minus", "plus"):
                vhat_wall = parts[side].cut.Vhat[:, 0]
                trace = -pchip_operator(grids[side].x, grid_ext.x)(vhat_wall)
                smooth = _mollify_corner(trace, grid_ext.x, 4.0 * grid_ext.x[1])
                res.report["wall_deficit"] = (
                    res.report.get("wall_deficit", 0.0)
                    + casc.u_prefac(side, i + 1)
                    * float(np.max(np.abs(smooth - trace))))
                ue = solver.solve_higher(i + 1, side, smooth)
                euler_of[side][i + 1] = ue
                res.correctors.euler.append(ue)
                casc.add_euler(ue, casc.u_prefac(side, i + 1), ops_ext)

    res.fields = _assemble(casc.parts, grid)
    res.report["dumped"] = casc.dumped_report()
    res.report["opposite_wall_traces"] = _opposite_wall_traces(res)


def _opposite_wall_traces(res):
    """max |v_e^{i,+}| on y=0 and |v_e^{i,-}| on y=2 over the reported x range."""
    nx = res.grid.nx
    out = {}
    for c in res.correctors.euler:
        if c.side == "plus":
            out[f"v_e{c.index}p(y=0)"] = float(np.max(np.abs(c.v[:nx, 0])))
            out[f"u_e{c.index}p(y=0)"] = float(np.max(np.abs(c.u[:nx, 0])))
        elif c.side == "minus":
            out[f"v_e{c.index}m(y=2)"] = float(np.max(np.abs(c.v[:nx, -1])))
            out[f"u_e{c.index}m(y=2)"] = float(np.max(np.abs(c.u[:nx, -1])))
    return out


def _assemble(parts, grid):
    """Sum the parts on the reporting grid (semi-analytic derivatives).

    Each sum starts at +0.0 and takes the parts in order; a part adds only
    the keys it has, which changes no bit, since such a sum never holds -0.0.
    """
    f = {dst: np.zeros(grid.shape) for dst, _ in ASSEMBLED}
    for part in parts:
        pf = part.channel_fields(grid)
        for dst, src in ASSEMBLED:
            if src in pf:
                f[dst] = f[dst] + pf[src]
    return f


def compute_remainders(res):
    """Momentum remainders of the assembled fields, semi-analytic derivatives."""
    eps, M0 = res.config.eps, res.config.M0
    ops, f = res.ops, res.fields
    Ru = (f["u_s"] * f["us_x"] + f["v_s"] * f["us_y"] + f["Ps_x"]
          - eps * f["lap_us"])
    Rv = (f["u_s"] * f["vs_x"] + f["v_s"] * f["vs_y"] + f["Ps_y"]
          - eps * f["lap_vs"])
    res.Fu = -Ru / eps ** M0
    res.Fv = -Rv / eps ** M0
    res.report["remainder_norms"] = {
        "Fu_H2": ops.norm(Ru, "H2"),
        "Fv_H2": ops.norm(Rv, "H2"),
        "Fu_L2": ops.norm(Ru, "L2"),
        "Fv_L2": ops.norm(Rv, "L2"),
    }
    res.report["pointwise_constants"] = _pointwise_constants(res)
    return res.Fu, res.Fv


def _pointwise_constants(res):
    """Fitted constants of the pointwise corrector-size bounds."""
    grid, f = res.grid, res.fields
    eps = res.config.eps
    y = grid.y
    inner = slice(1, -1)
    yv = y[inner]
    bound223 = np.minimum.reduce([eps ** (2.0 / 3.0) * yv,
                                  eps ** 0.5 * (2.0 - yv),
                                  eps * np.ones_like(yv)])
    mu = res.profile.mu(y)
    num223 = (np.abs(f["us_x"]) + np.abs(f["vs_y"])
              + np.abs(f["u_s"] - mu[None, :]))[:, inner]
    c223 = float(np.max(num223 / bound223[None, :]))
    bound225 = np.minimum(eps * yv, eps * (2.0 - yv))
    vx = f["vs_x"]
    # l = 0,1 from stored fields; l = 2 via one FD pass in x
    d2 = res.ops.apply(res.ops.Dxx, f["v_s"])
    num225 = np.maximum.reduce([np.abs(f["v_s"])[:, inner],
                                np.abs(vx)[:, inner], np.abs(d2)[:, inner]])
    c225 = float(np.max(num225 / bound225[None, :]))
    return {"c223": c223, "c225": c225}


def expansion_report(res):
    """JSON-ready expansion report."""
    cfg = res.config
    rep = {
        "epsilon": cfg.eps,
        "M": cfg.M,
        "M0": cfg.M0,
        "case": cfg.case,
        "L": res.grid.L,
        "norms": {k: res.report["remainder_norms"][k]
                  for k in ("Fu_H2", "Fv_H2")},
        "pointwise_constants": res.report.get("pointwise_constants", {}),
        "per_layer": res.correctors.forcing_records,
    }
    if "opposite_wall_traces" in res.report:
        rep["opposite_wall_traces"] = res.report["opposite_wall_traces"]
    if "dumped" in res.report:
        rep["dumped"] = res.report["dumped"]
    return rep
