import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy as sy

from chasflow import discretization, linearized
from chasflow.cli import EXIT_NUMERICAL, main
from chasflow.discretization import (ChannelGrid, DiffOps, GridSolveError,
                                     LineModes, SeparableSystem, boundary_rows,
                                     build_channel_grid, diff_matrix,
                                     one_sided_row, tanh_stretched)
from chasflow.expansion import construct_expansion
from chasflow.linearized import (PSI_WALLS, LinearizedProblem,
                                 RemainderSolution, compute_norms, compute_q,
                                 curl_residual, psi_operator, psi_system,
                                 recover_pressure, solve_linearized)
from conftest import (assemble_linearized_operator, grid_system, kron,
                      lil_replace_rows, make_grid, momentum_residual,
                      point_spec, same_arrays)

L = 0.1
M0 = 11.0 / 8.0 + 0.05
XS, YS = sy.symbols("x y")


def _lam(expr):
    f = sy.lambdify((XS, YS), expr, "numpy")
    return lambda X, Y: f(X, Y) + 0.0 * X


def _couette_bg(grid):
    z = np.zeros(grid.shape)
    return {"u_s": np.tile(grid.y, (grid.nx, 1)), "v_s": z, "us_x": z,
            "us_y": np.ones(grid.shape), "vs_x": z, "vs_y": z,
            "lap_us": z, "lap_vs": z}


def _solve(prob):
    """solve_linearized on the problem's own factored psi system."""
    prob.system = psi_system(prob)
    return solve_linearized(prob)


def test_biharmonic_zero_rhs(channel_48x96, ops_48x96):
    psi = grid_system(kron(ops_48x96, "bih"), channel_48x96).solve(
        np.zeros(channel_48x96.shape))
    assert np.abs(psi).max() < 1e-14


def test_biharmonic_mms_order():
    # psi* = sin(pi x / 2L) sin^2(pi y / 2) satisfies all seven BCs;
    # f* = lap^2 psi* derived analytically
    k = np.pi / (2 * L)

    def level(n):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        X = np.sin(k * g.XX)
        Y = np.sin(np.pi * g.YY / 2) ** 2
        f = X * (k ** 4 * Y - k ** 2 * np.pi ** 2 * np.cos(np.pi * g.YY)
                 - (np.pi ** 4 / 2) * np.cos(np.pi * g.YY))
        psi = grid_system(kron(ops, "bih"), g).solve(f)
        return 1.0 / n, np.abs(psi - X * Y).max()

    errs = []
    for n in (32, 64, 128):
        _, e = level(n)
        errs.append(e)
    order = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(errs), 1)[0]
    assert order >= 1.9


def test_full_operator_mms():
    eps = 1e-2
    psib = sy.Rational(1, 20) * XS ** 2 * YS ** 3 * (2 - YS) ** 2
    us = YS + sy.diff(psib, YS)
    vs = -sy.diff(psib, XS)
    k = sy.pi / (2 * L)
    psis = sy.sin(k * XS) * sy.sin(sy.pi * YS / 2) ** 2
    u_e = sy.diff(psis, YS)
    v_e = -sy.diff(psis, XS)
    lap = lambda f: sy.diff(f, XS, 2) + sy.diff(f, YS, 2)
    S = (sy.diff(sy.diff(us, XS) * u_e + vs * sy.diff(u_e, YS), YS)
         - sy.diff(vs * sy.diff(v_e, YS) + sy.diff(vs, XS) * u_e, XS))
    op = (us * sy.diff(psis, XS, 1, YS, 2) + us * sy.diff(psis, XS, 3)
          - lap(us) * sy.diff(psis, XS) + S - eps * lap(lap(psis)))
    fns = {"us": _lam(us), "vs": _lam(vs), "usx": _lam(sy.diff(us, XS)),
           "usy": _lam(sy.diff(us, YS)), "vsx": _lam(sy.diff(vs, XS)),
           "vsy": _lam(sy.diff(vs, YS)), "lapus": _lam(lap(us)),
           "lapvs": _lam(lap(vs)), "psi": _lam(psis), "f": _lam(op)}

    errs = []
    for n in (32, 64, 128):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        bg = {"u_s": fns["us"](g.XX, g.YY), "v_s": fns["vs"](g.XX, g.YY),
              "us_x": fns["usx"](g.XX, g.YY), "us_y": fns["usy"](g.XX, g.YY),
              "vs_x": fns["vsx"](g.XX, g.YY), "vs_y": fns["vsy"](g.XX, g.YY),
              "lap_us": fns["lapus"](g.XX, g.YY),
              "lap_vs": fns["lapvs"](g.XX, g.YY)}
        prob = LinearizedProblem(bg, eps, M0, grid=g, ops=ops)
        psi = psi_system(prob).solve(fns["f"](g.XX, g.YY))
        errs.append(np.abs(psi - fns["psi"](g.XX, g.YY)).max())
    order = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(errs), 1)[0]
    assert order >= 1.9


def test_zero_forcing_zero_solution():
    g = make_grid(32, L=L)
    ops = DiffOps(g.x, g.y)
    prob = LinearizedProblem(_couette_bg(g), 1e-2, M0, grid=g, ops=ops)
    sol = _solve(prob)
    assert np.abs(sol.u).max() < 1e-13
    assert np.abs(sol.v).max() < 1e-13


def test_remainder_divergence_exact():
    # u = psi_y, v = -psi_x with kron operators: Dx Dy == Dy Dx exactly
    g = make_grid(32, L=L)
    ops = DiffOps(g.x, g.y)
    prob = LinearizedProblem(_couette_bg(g), 1e-2, M0,
                             F1=np.sin(g.XX * 31) * np.sin(np.pi * g.YY),
                             grid=g, ops=ops)
    sol = _solve(prob)
    div = ops.apply("Dx", sol.u) + ops.apply("Dy", sol.v)
    assert np.abs(div).max() < 1e-12 * max(np.abs(sol.u).max(), 1e-30)


def _pressure_mms_fields(eps):
    psis = sy.sin(sy.pi * XS / (2 * L)) * sy.sin(sy.pi * YS / 2) ** 2 / 100
    u_e = sy.diff(psis, YS)
    v_e = -sy.diff(psis, XS)
    P_e = sy.cos(sy.pi * XS / (2 * L)) * sy.cos(sy.pi * YS / 2) / 50
    us = YS
    lap = lambda f: sy.diff(f, XS, 2) + sy.diff(f, YS, 2)
    f1 = us * sy.diff(u_e, XS) + sy.diff(us, YS) * v_e - eps * lap(u_e) + sy.diff(P_e, XS)
    f2 = us * sy.diff(v_e, XS) - eps * lap(v_e) + sy.diff(P_e, YS)
    return {k: _lam(v) for k, v in
            [("u", u_e), ("v", v_e), ("P", P_e), ("f1", f1), ("f2", f2)]}


def test_pressure_recovery_trivial():
    g = make_grid(24, L=L)
    ops = DiffOps(g.x, g.y)
    prob = LinearizedProblem(_couette_bg(g), 1e-2, M0, grid=g, ops=ops)
    sol = RemainderSolution(g, ops, np.zeros(g.shape), np.zeros(g.shape))
    P = recover_pressure(sol, prob)
    assert np.abs(P).max() < 1e-10
    assert abs(ops.integrate(P)) < 1e-12


# the pressure's Neumann rows (a ``boundary_rows`` table): the 3-point
# one-sided normal derivative on the y walls at every x, then at the inflow
# and outflow between them
_EVERY, _INNER = slice(None), slice(1, -1)
NEUMANN_WALLS = ((1, True, 1, 3, 0, _EVERY), (1, False, 1, 3, 0, _EVERY),
                 (0, True, 1, 3, 0, _INNER), (0, False, 1, 3, 0, _INNER))


def _bordered_neumann(g, ops):
    """The bordered Neumann matrix [lap 1; w2^T 0] with the Neumann rows in
    place of the Laplacian's and the multiplier column's wall entries, and
    those rows."""
    rows = boundary_rows(g.x, g.y, NEUMANN_WALLS)
    bnd = np.fromiter(rows, int)
    n = g.nx * g.ny
    col = np.ones((n, 1))
    col[bnd] = 0.0
    lap = lil_replace_rows(ops.lap,
                           [(r, c, v) for r, (c, v) in rows.items()])
    A = sp.bmat([[lap, col],
                 [sp.csr_matrix(ops.w2.reshape(1, -1)), None]], format="csc")
    return A, bnd


def _bordered_pressure(g, ops, rhs, wall):
    """The zero-mean P of the bordered Neumann system, solved by splu and
    refined twice against its residual."""
    A, bnd = _bordered_neumann(g, ops)
    n = g.nx * g.ny
    b = np.r_[rhs.ravel(), 0.0]
    b[bnd] = wall.ravel()[bnd]
    lu = spla.splu(A)
    x = lu.solve(b)
    for _ in range(2):
        x += lu.solve(b - A @ x)
    P = x[:n].reshape(g.shape)
    return P - ops.integrate(P) / ops.integrate(np.ones_like(P))


def test_pressure_neumann_rows_match_lil():
    g = make_grid(24, L=L)
    ops = DiffOps(g.x, g.y)
    A, bnd = _bordered_neumann(g, ops)
    # the Neumann rows in the order the LIL loop set them
    nx, ny = g.nx, g.ny
    ix0, wx0 = one_sided_row(g.x, True, 1, 3)
    ixL, wxL = one_sided_row(g.x, False, 1, 3)
    iy0, wy0 = one_sided_row(g.y, True, 1, 3)
    iyL, wyL = one_sided_row(g.y, False, 1, 3)
    ref = []
    for i in range(nx):
        ref.append((i * ny, [i * ny + k for k in iy0], wy0))
        ref.append((i * ny + ny - 1, [i * ny + k for k in iyL], wyL))
    for j in range(1, ny - 1):
        ref.append((j, [k * ny + j for k in ix0], wx0))
        ref.append(((nx - 1) * ny + j, [k * ny + j for k in ixL], wxL))
    # the bordered Laplacian: its wall rows drop the border column too
    n = nx * ny
    bordered = sp.bmat([[ops.lap, np.ones((n, 1))],
                        [sp.csr_matrix(ops.w2.reshape(1, -1)), None]])
    assert same_arrays(A, lil_replace_rows(bordered, ref))
    assert sorted(bnd) == sorted(r for r, _, _ in ref)
    # recover_pressure's P meets those rows: F1 at the inflow and outflow
    # and F2 on the walls, random, with u = v = 0
    rng = np.random.default_rng(11)
    F1, F2 = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    prob = LinearizedProblem(_couette_bg(g), 1e-2, M0, F1=F1, F2=F2,
                             grid=g, ops=ops)
    zero = np.zeros(g.shape)
    P = recover_pressure(RemainderSolution(g, ops, zero, zero), prob)
    wall = F1.copy()
    wall[:, [0, -1]] = F2[:, [0, -1]]
    rows = A[bnd]
    got = rows @ np.r_[P.ravel(), 0.0]
    scale = abs(rows).sum(axis=1).max() * np.abs(P).max()
    assert np.abs(got - wall.ravel()[bnd]).max() <= 1e-12 * scale


@pytest.mark.parametrize("nx, ny, eps", [(48, 96, 1e-3), (96, 192, 1e-2)],
                         ids=["stretched_48x96", "96x192"])
def test_pressure_matches_the_bordered_lu(nx, ny, eps):
    # with u = v = 0, rhs = div(F1, F2) and the Neumann data are F1 at the
    # inflow and outflow and F2 on the walls, all random
    g = build_channel_grid(L, nx, ny, eps)
    ops = DiffOps(g.x, g.y)
    rng = np.random.default_rng(7)
    bg = {k: rng.standard_normal(g.shape)
          for k in ("u_s", "v_s", "us_x", "us_y", "vs_x", "vs_y",
                    "lap_us", "lap_vs")}
    F1, F2 = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    prob = LinearizedProblem(bg, 1e-2, M0, F1=F1, F2=F2, grid=g, ops=ops)
    zero = np.zeros(g.shape)
    P = recover_pressure(RemainderSolution(g, ops, zero, zero), prob)
    wall = F1.copy()
    wall[:, [0, -1]] = F2[:, [0, -1]]
    rhs = ops.apply("Dx", F1) + ops.apply("Dy", F2)
    ref = _bordered_pressure(g, ops, rhs, wall)
    assert np.abs(P - ref).max() <= 1e-10 * np.abs(ref).max()


def test_a_second_near_null_mode_is_refused(monkeypatch, tmp_path, capsys):
    # Neumann modes on one set of nodes along both axes, the y ones shifted
    # by -mu_1 (the second x eigenvalue): then mode (1, 0) and mode (0, 1)
    # both have |mu + lambda| at round-off
    nodes = tanh_stretched(0.0, 2.0, 33, 1.2)
    d2 = diff_matrix(nodes, 2)
    xm = LineModes(nodes, d2, (1, 1), 0.0)
    system = SeparableSystem(xm, xm, null=True)
    assert system.floor[1] > 1e9 * system.floor[0]
    mu1 = np.sort(xm.lam.real)[1]
    shifted = LineModes(nodes, d2, (1, 1), -mu1)
    with pytest.raises(GridSolveError, match="second near-null mode"):
        SeparableSystem(xm, shifted, null=True)
    # a run whose pressure system fails the guard exits 3
    monkeypatch.setattr(discretization, "NULL_MODE_GAP", np.inf)
    rc = main(["solve", "--set", "grid.nx=24", "--set", "grid.ny=48",
               "--set", "expansion.case=poiseuille_couette_noforce",
               "--set", "profile.kind=poiseuille_couette",
               "--set", "profile.alpha1=0.5", "--set", "profile.alpha2=0.5",
               "--set", "profile.perturbation.amplitude=0.05",
               "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert "near-null mode" in capsys.readouterr().err


def test_each_pressure_build_logs_one_debug_line(caplog):
    caplog.set_level(logging.DEBUG, logger="chasflow.linearized")
    g = make_grid(24, L=L)
    ops = DiffOps(g.x, g.y)
    prob = LinearizedProblem(_couette_bg(g), 1e-2, M0, grid=g, ops=ops)
    zero = np.zeros(g.shape)
    for _ in range(2):
        recover_pressure(RemainderSolution(g, ops, zero, zero), prob)
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 2
    assert lines[0].startswith(f"pressure system: {g.nx - 2} x {g.ny - 2} "
                               "modes, null |mu + lambda| ")
    assert "eigenvector cond" in lines[0]


def test_pressure_recovery_mms_order():
    eps = 1e-2
    F = _pressure_mms_fields(eps)
    errs = []
    for n in (24, 48, 96):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        prob = LinearizedProblem(_couette_bg(g), eps, M0,
                                 F1=F["f1"](g.XX, g.YY), F2=F["f2"](g.XX, g.YY),
                                 grid=g, ops=ops)
        sol = RemainderSolution(g, ops, F["u"](g.XX, g.YY), F["v"](g.XX, g.YY))
        P = recover_pressure(sol, prob)
        Pex = F["P"](g.XX, g.YY)
        Pex = Pex - ops.integrate(Pex) / ops.integrate(np.ones_like(Pex))
        errs.append(np.abs(P - Pex).max())
    order = np.polyfit(np.log([1 / 24, 1 / 48, 1 / 96]), np.log(errs), 1)[0]
    assert order >= 1.9
    assert errs[-1] < 1e-3


def test_momentum_residual_decreases():
    eps = 1e-2
    F = _pressure_mms_fields(eps)
    vals = []
    for n in (24, 48):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        prob = LinearizedProblem(_couette_bg(g), eps, M0,
                                 F1=F["f1"](g.XX, g.YY), F2=F["f2"](g.XX, g.YY),
                                 grid=g, ops=ops)
        sol = RemainderSolution(g, ops, F["u"](g.XX, g.YY), F["v"](g.XX, g.YY))
        recover_pressure(sol, prob)
        r1, r2 = momentum_residual(sol, prob)
        vals.append(np.hypot(ops.norm(r1, "L2"), ops.norm(r2, "L2")))
    assert vals[1] < 0.5 * vals[0]


def test_curl_vorticity_roundtrip():
    # curl(psi_y, -psi_x) equals the lap-psi vorticity to operator tolerance
    g = make_grid(96, L=L)
    ops = DiffOps(g.x, g.y)
    psi = np.sin(np.pi * g.XX / (2 * L)) * np.sin(np.pi * g.YY / 2) ** 2
    u = ops.apply("Dy", psi)
    v = -ops.apply("Dx", psi)
    curl = ops.apply("Dy", u) - ops.apply("Dx", v)
    vort = ops.apply("lap", psi)
    # composed first-derivative stencils vs the direct Laplacian agree to
    # truncation level (quadrature norm; the one-sided boundary rows of the
    # composition are one order lower pointwise)
    assert ops.norm(curl - vort, "L2") / ops.norm(vort, "L2") < 5e-3


def test_norms_zero_and_homogeneity():
    g = make_grid(32, L=L)
    ops = DiffOps(g.x, g.y)
    bg = _couette_bg(g)
    zero = RemainderSolution(g, ops, np.zeros(g.shape), np.zeros(g.shape))
    rep = compute_norms(zero, bg, 1e-2)
    assert all(v == 0.0 for v in rep.values())
    psi = np.sin(np.pi * g.XX / (2 * L)) * np.sin(np.pi * g.YY / 2) ** 2
    u = ops.apply("Dy", psi)
    v = -ops.apply("Dx", psi)
    r1 = compute_norms(RemainderSolution(g, ops, u, v), bg, 1e-2)
    r5 = compute_norms(RemainderSolution(g, ops, 5 * u, 5 * v), bg, 1e-2)
    for k in r1:
        assert r5[k] == pytest.approx(5.0 * r1[k], rel=1e-10)


def test_norms_analytic_oracle():
    # product field v = sin(pi x / L) sin(pi y) over Couette u_s = y:
    # A1^2 = int y (v_y^2 + v_x^2), both factors integrable in closed form
    g = make_grid(96, L=L)
    ops = DiffOps(g.x, g.y)
    bg = _couette_bg(g)
    v = np.sin(np.pi * g.XX / L) * np.sin(np.pi * g.YY)
    u = np.zeros(g.shape)
    sol = RemainderSolution(g, ops, u, v)
    rep = compute_norms(sol, bg, 1e-2)
    # sympy quadrature oracle
    vy_sq = sy.integrate(sy.integrate(
        YS * (sy.sin(sy.pi * XS / L) * sy.pi * sy.cos(sy.pi * YS)) ** 2,
        (XS, 0, L)), (YS, 0, 2))
    vx_sq = sy.integrate(sy.integrate(
        YS * ((sy.pi / L) * sy.cos(sy.pi * XS / L) * sy.sin(sy.pi * YS)) ** 2,
        (XS, 0, L)), (YS, 0, 2))
    exact = float(sy.sqrt(vy_sq + vx_sq))
    assert rep["A1"] == pytest.approx(exact, rel=2e-3)


def test_q_wall_regularization(poiseuille):
    # u_s vanishing at both walls: q = v / u_s via the derivative ratio rows
    g = make_grid(32, L=L)
    ops = DiffOps(g.x, g.y)
    us = np.tile(poiseuille.mu(g.y), (g.nx, 1))
    v = np.sin(np.pi * g.XX / (2 * L)) * (g.YY * (2 - g.YY)) ** 2
    q = compute_q(us, v, g, ops)
    assert np.all(np.isfinite(q))
    # interior agreement with the plain quotient
    inner = (g.YY > 0.2) & (g.YY < 1.8)
    assert np.allclose(q[inner], v[inner] / us[inner])


def test_q_floor_guard():
    g = make_grid(16, L=L)
    ops = DiffOps(g.x, g.y)
    us = np.ones(g.shape)
    us[5, 5] = 0.0  # interior degeneracy: invalid background
    from chasflow.linearized import LinearSolveError
    with pytest.raises(LinearSolveError):
        compute_q(us, np.ones(g.shape), g, ops)


def test_poincare_constant_tracked():
    # ||v|| <= C L^(1/4) (||sqrt(us) v_y|| + ||sqrt(us) v_x||): C stable
    consts = []
    for n in (24, 48, 96):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        bg = _couette_bg(g)
        v = np.sin(np.pi * g.XX / (2 * L)) * np.sin(np.pi * g.YY / 2) ** 2
        sq = np.sqrt(bg["u_s"])
        a1 = np.hypot(ops.norm_l2(sq * ops.apply("Dy", v)),
                      ops.norm_l2(sq * ops.apply("Dx", v)))
        consts.append(ops.norm(v, "L2") / (L ** 0.25 * a1))
    assert max(consts) / min(consts) < 1.05
    assert max(consts) < 10.0


def test_residual_substitution_small():
    # returned solutions satisfy the momentum equations with the recovered
    # pressure at discretization level
    g = make_grid(48, L=L)
    ops = DiffOps(g.x, g.y)
    bg = _couette_bg(g)
    eps = 1e-2
    F1 = 1e-3 * np.sin(np.pi * g.XX / L) * np.sin(np.pi * g.YY)
    prob = LinearizedProblem(bg, eps, M0, F1=F1, grid=g, ops=ops)
    sol = _solve(prob)
    recover_pressure(sol, prob)
    r1, r2 = momentum_residual(sol, prob)
    resid = np.hypot(ops.norm(r1, "L2"), ops.norm(r2, "L2"))
    scale = ops.norm(F1, "L2")
    assert resid < 0.05 * scale
    cr = curl_residual(sol, prob)
    inner = np.zeros(g.shape, dtype=bool)
    inner[3:-3, 3:-3] = True
    assert np.abs(cr[inner]).max() < 0.2 * np.abs(
        ops.apply("Dy", F1)).max()


# -- the one-pass psi build against the sparse algebra -----------------------

PSI_POINTS = {      # name -> (case, settings)
    "case_i": ("poiseuille_couette_noforce",
               {"kind": "poiseuille_couette", "alpha1": 0.5, "alpha2": 0.5,
                "pert_amplitude": 0.05, "pert_exponent": 0.425}),
    "couette": ("couette_noforce", {"pert_amplitude": 0.05}),   # S terms
    "linear": ("couette_noforce", {"pert_amplitude": 0.0}),     # lap_us = 0
}


def _psi_problem(name, nx, ny, eps=1e-2):
    if name == "random":    # O(1) S terms, and x stretched: no zero d1 weight
        g = ChannelGrid(0.1, tanh_stretched(0.0, 0.1, nx, 1.1),
                        tanh_stretched(0.0, 2.0, ny, 1.2))
        rng = np.random.default_rng(nx * ny)
        bg = {k: rng.standard_normal(g.shape) for k in (
            "u_s", "v_s", "us_x", "us_y", "vs_x", "vs_y", "lap_us", "lap_vs")}
        return LinearizedProblem(bg, eps, 1.5, grid=g, ops=DiffOps(g.x, g.y))
    case, settings = PSI_POINTS[name]
    exp = construct_expansion(point_spec(case, nx, ny, **settings), eps)
    return LinearizedProblem(exp.fields, exp.eps, exp.M0, grid=exp.grid,
                             ops=exp.ops)


def _same_system(problem, walls=PSI_WALLS):
    """psi_system and psi_operator give, array for array, the CSC SuperLU
    factors, A, d and bnd of the sparse algebra's chain."""
    system, A = psi_system(problem), psi_operator(problem)
    ref = grid_system(assemble_linearized_operator(problem), problem.grid, walls)
    return (same_arrays(system.B, ref.B) and same_arrays(A, ref.A)
            and system.d.tobytes() == ref.d.tobytes()
            and system.bnd.tobytes() == ref.bnd.tobytes())


@pytest.mark.parametrize("nx, ny", [(32, 64), (48, 96), (25, 47)])
@pytest.mark.parametrize("name", ["case_i", "couette", "linear", "random"])
def test_psi_build_is_the_sparse_algebra_byte_for_byte(name, nx, ny):
    problem = _psi_problem(name, nx, ny)
    bg = problem.bg
    assert any(np.any(bg[k]) for k in ("v_s", "us_x", "vs_x")) == (
        name in ("couette", "random"))
    assert (not np.any(bg["lap_us"])) == (name == "linear")
    assert _same_system(problem)


def test_psi_operator_keeps_a_wall_rows_explicit_zero(monkeypatch):
    # a zero wall weight stays in A, as the replaced rows kept it, and the
    # row-scaled CSC drops it, as diag(1/d) A did
    import conftest
    problem = _psi_problem("case_i", 32, 64)
    g = problem.grid
    rows = boundary_rows(g.x, g.y, PSI_WALLS)
    r = g.ny + 4                                # psi_xx = 0 at x = 0
    rows[r] = (rows[r][0], np.r_[0.0, rows[r][1][1:]])
    for module in (linearized, conftest):
        monkeypatch.setattr(module, "boundary_rows", lambda *_: rows)
    A = psi_operator(problem)
    assert np.count_nonzero(A.data == 0.0) == 1
    assert A.indices[A.indptr[r]] == r - g.ny and A.data[A.indptr[r]] == 0.0
    assert _same_system(problem)


def test_psi_pattern_is_kept_per_shape_coupling_and_walls(monkeypatch):
    memo = linearized._psi_pattern
    memo.cache_clear()
    assert memo.cache_info().maxsize == 2           # bounded
    a, b = _psi_problem("case_i", 32, 64), _psi_problem("case_i", 32, 64, 1e-1)
    assert a.grid.shape == b.grid.shape and not np.array_equal(a.grid.y, b.grid.y)
    assert _same_system(a) and _same_system(b)
    info = memo.cache_info()
    assert (info.misses, info.currsize) == (1, 1)   # one shape, one pattern
    key = (32, 64, False, repr(PSI_WALLS), True)
    pattern = memo(*key)
    assert memo(*key) is pattern
    for arr in pattern:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # another shape, S terms, or other walls: another pattern
    assert _same_system(_psi_problem("case_i", 48, 96))
    assert _same_system(_psi_problem("couette", 32, 64))
    walls = PSI_WALLS[:-1]
    monkeypatch.setattr(linearized, "PSI_WALLS", walls)
    assert _same_system(a, walls)
    assert memo.cache_info().misses == 4
    assert memo(*key) is not pattern                # evicted: two are kept
    memo.cache_clear()
