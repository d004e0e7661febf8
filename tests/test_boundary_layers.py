import numpy as np
import pytest
from scipy.special import erfc

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chasflow.boundary_layers import (CutLayer, MarchError, _dxu_at_inflow,
                                      _integral_matrix, _step_lu, _wall_rows,
                                      apply_cutoff, chi, chi_prime,
                                      solve_layer_minus, solve_layer_plus)
from chasflow.discretization import (DiffOps, HalfLineGrid, build_channel_grid,
                                     diff_matrix, one_sided_row)

L = 0.1


def test_chi_shape():
    t = np.linspace(0, 2, 401)
    c = chi(t)
    assert np.all(c[t <= 0.5] == 1.0)
    assert np.all(c[t >= 1.0] == 0.0)
    assert np.all(np.diff(c) <= 1e-12)
    assert np.abs(chi_prime(np.array([0.1, 1.5]))).max() < 1e-12


def test_zero_data_zero_solution():
    grid = HalfLineGrid(L, 61, 101)
    for solver, m in ((solve_layer_plus, 2.0), (solve_layer_minus, 1.0)):
        lay = solver(None, None, grid, m_coef=m)
        assert np.abs(lay.U).max() == 0.0
        assert np.abs(lay.V).max() == 0.0


def test_plus_erfc_similarity():
    # 2 u_x = u_YY with g = 1: u = erfc(Y / sqrt(2x)); corner-singular data
    grid = HalfLineGrid(L, 201, 400, Ymax=20.0)
    lay = solve_layer_plus(None, np.ones(201), grid, m_coef=2.0)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    with np.errstate(divide="ignore"):
        exact = erfc(Y / np.sqrt(2.0 * np.maximum(X, 1e-300)))
    mask = grid.x >= 0.1 * L
    assert np.abs(lay.U[mask] - exact[mask]).max() < 1e-3


def test_plus_mms_sine():
    # u* = sin(x) e^-Y => F* = 2 cos(x) e^-Y - sin(x) e^-Y, g* = sin(x)
    grid = HalfLineGrid(L, 161, 360)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = 2.0 * np.cos(X) * np.exp(-Y) - np.sin(X) * np.exp(-Y)
    lay = solve_layer_plus(F, np.sin(grid.x), grid, m_coef=2.0)
    assert np.abs(lay.U - np.sin(X) * np.exp(-Y)).max() < 5e-6


def test_minus_mms_handbuilt():
    # u* = x e^-Y: v* = e^-Y, F* = Y e^-Y + e^-Y - x e^-Y (hand-derived)
    grid = HalfLineGrid(L, 101, 301)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = Y * np.exp(-Y) + np.exp(-Y) - X * np.exp(-Y)
    lay = solve_layer_minus(F, grid.x.copy(), grid, m_coef=1.0)
    assert np.abs(lay.U - X * np.exp(-Y)).max() < 5e-6
    # the x = 0 column of V is the definitional wall-concentrated start
    inner = grid.Y < 10.0
    assert np.abs(lay.V - np.exp(-Y))[1:, inner].max() < 1e-4


def _march_minus_picard(grid, F, g, last_layer, m_coef, tol=1e-10, max_it=200):
    """Backward-Euler minus march that iterates v = kq @ dx u to a fixed point
    at each step: a reference for the monolithic (u, W) step."""
    x, Y = grid.x, grid.Y
    nx, nY = grid.nx, grid.nY
    d2 = diff_matrix(Y, 2)
    kq = _integral_matrix(grid, last_layer)
    interior, walls = _wall_rows(Y, last_layer)
    U = np.zeros((nx, nY))
    U[0, 0] = g[0]
    DXU = np.zeros((nx, nY))
    DXU[0] = _dxu_at_inflow(grid, F[0], m_coef, "minus",
                            g_slope=(g[1] - g[0]) / (x[1] - x[0]))
    diagY = sp.diags(Y)
    lus = {}
    for k in range(1, nx):
        dx = x[k] - x[k - 1]
        if dx not in lus:
            A = interior @ ((m_coef / dx) * diagY - d2) + walls
            lus[dx] = spla.splu(A.tocsc())
        v = kq @ DXU[k - 1]
        for _ in range(max_it):
            b = F[k] + (m_coef / dx) * (diagY @ U[k - 1]) - m_coef * v
            b[0] = g[k]
            b[-1] = 0.0
            unew = lus[dx].solve(b)
            vnew = kq @ ((unew - U[k - 1]) / dx)
            delta = np.max(np.abs(vnew - v))
            v = vnew
            if delta < tol * max(1.0, np.max(np.abs(v))):
                break
        else:
            raise MarchError(f"inner Picard stalled at step {k}: delta={delta:.3g}")
        U[k] = unew
        DXU[k] = (U[k] - U[k - 1]) / dx
    return U


def test_minus_picard_fallback_agrees():
    grid = HalfLineGrid(L, 61, 201)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = Y * np.exp(-Y) + np.exp(-Y) - X * np.exp(-Y)
    a = solve_layer_minus(F, grid.x.copy(), grid, m_coef=1.0, scheme="be")
    b = _march_minus_picard(grid, F, grid.x.copy(), False, 1.0)
    assert np.abs(a.U - b).max() < 1e-7


@pytest.mark.parametrize("scheme", ["be", "cn"])
@pytest.mark.parametrize("last_layer", [False, True])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_march_matches_dense_step_reference(side, last_layer, scheme):
    # uniform x with dx = 2^-8 exactly: the same dx recurs across the
    # backward-Euler -> Crank-Nicolson switch after three steps, so a step
    # factorization reused by dx alone would solve the wrong system
    be_steps = 3
    x = np.arange(21) / 256.0
    grid = HalfLineGrid(x[-1], None, 41, x=x)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = np.sin(40.0 * X) * np.exp(-Y) + 0.3 * Y * np.exp(-Y)
    g = 0.1 * np.sin(np.pi * grid.x / (2 * x[-1])) + grid.x
    m = {"plus": 2.0, "minus": 1.0}[side]
    solver = {"plus": solve_layer_plus, "minus": solve_layer_minus}[side]
    lay = solver(F, g, grid, last_layer=last_layer, m_coef=m, scheme=scheme)

    # each step solved densely: m/dx conv u - th u_YY = theta-weighted rest
    nY = grid.nY
    d2 = diff_matrix(grid.Y, 2).toarray()
    kq = _integral_matrix(grid, last_layer).toarray()
    conv = np.eye(nY) if side == "plus" else np.diag(grid.Y) + kq
    ider, wder = one_sided_row(grid.Y, False, 1, 3)
    U = np.zeros(grid.shape)
    U[0, 0] = g[0]
    for k in range(1, grid.nx):
        dx = x[k] - x[k - 1]
        th = 1.0 if (scheme == "be" or k <= be_steps) else 0.5
        A = (m / dx) * conv - th * d2
        b = (th * F[k] + (1.0 - th) * F[k - 1] + (m / dx) * conv @ U[k - 1]
             + (1.0 - th) * d2 @ U[k - 1])
        A[[0, -1]] = 0.0
        A[0, 0] = 1.0
        b[0], b[-1] = g[k], 0.0
        if last_layer:
            A[-1, ider] = wder
        else:
            A[-1, -1] = 1.0
        U[k] = np.linalg.solve(A, b)
    # V of the marched columns; the x = 0 column is the inflow convention
    V = (np.diff(U, axis=0) / np.diff(x)[:, None]) @ kq.T
    V = V if side == "minus" else -V
    assert np.abs(lay.U - U).max() <= 1e-10 * np.abs(U).max()
    assert np.abs(lay.V[1:] - V).max() <= 1e-10 * np.abs(V).max()


def test_step_lu_memo_is_sound():
    # the step LUs are shared through a process memo keyed on the exact CSC
    # arrays: an equal matrix gets the same factor, a matrix that differs in
    # one entry its own
    n = 30
    A = sp.diags([-1.0, 4.0, -1.5], [-1, 0, 1], shape=(n, n), format="csc")
    B = A.copy()
    B.data[7] += 1e-12
    lu = _step_lu(A)
    assert _step_lu(A.copy()) is lu
    other = _step_lu(B)
    assert other is not lu
    b = np.arange(n, dtype=float)
    assert lu.solve(b).tobytes() == spla.splu(A).solve(b).tobytes()
    assert other.solve(b).tobytes() == spla.splu(B).solve(b).tobytes()
    assert other.solve(b).tobytes() != lu.solve(b).tobytes()


def test_repeated_march_factors_nothing(monkeypatch):
    grid = HalfLineGrid(L, 41, 61)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = np.exp(-Y) * (1.0 + X)
    first = solve_layer_minus(F, grid.x.copy(), grid, m_coef=1.0)

    def no_splu(A, *args, **kwargs):
        raise AssertionError("step matrix refactored")
    monkeypatch.setattr(spla, "splu", no_splu)
    again = solve_layer_minus(2.0 * F, 2.0 * grid.x, grid, m_coef=1.0)
    assert np.array_equal(again.U, 2.0 * first.U)


def test_layer_linearity():
    grid = HalfLineGrid(L, 61, 201)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = Y * np.exp(-Y) + np.exp(-Y) - X * np.exp(-Y)
    g = grid.x.copy()
    one = solve_layer_minus(F, g, grid, m_coef=1.0)
    two = solve_layer_minus(2 * F, 2 * g, grid, m_coef=1.0)
    assert np.allclose(two.U, 2 * one.U, rtol=1e-12, atol=1e-16)


def test_marching_x_order():
    # theta scheme: second order in the x step on a curved solution
    k = 40.0
    errs = []
    for nx in (51, 101, 201):
        grid = HalfLineGrid(L, nx, 401)
        X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
        F = 2 * k * np.cos(k * X) * np.exp(-Y) - np.sin(k * X) * np.exp(-Y)
        lay = solve_layer_plus(F, np.sin(k * grid.x), grid, m_coef=2.0)
        errs.append(np.abs(lay.U - np.sin(k * X) * np.exp(-Y)).max())
    order = np.polyfit(np.log([1 / 50, 1 / 100, 1 / 200]), np.log(errs), 1)[0]
    assert order >= 1.7


def test_corner_compatibility_guard():
    grid = HalfLineGrid(L, 61, 101)
    with pytest.raises(MarchError):
        solve_layer_plus(None, np.ones(61), grid, m_coef=2.0, g0_tol=1e-8)


def test_last_layer_wall_normal_velocity_zero():
    grid = HalfLineGrid(L, 81, 201)
    g = 0.1 * np.sin(np.pi * grid.x / (2 * L))
    for solver, m in ((solve_layer_plus, 2.0), (solve_layer_minus, 1.0)):
        lay = solver(None, g, grid, last_layer=True, m_coef=m)
        assert np.abs(lay.V[:, 0]).max() == 0.0
        # ||v / Y|| finite near Y = 0
        ratio = lay.V[:, 1:6] / grid.Y[None, 1:6]
        assert np.all(np.isfinite(ratio))
        assert np.abs(ratio).max() < 10.0 * np.abs(lay.DXU).max()


def test_far_field_decay_and_ymax_doubling():
    g = 0.1 * np.sin(np.pi * np.linspace(0, 1, 81) ** 2)
    base = HalfLineGrid(L, 81, 201, Ymax=20.0)
    # extend with the same node set below Ymax so only the tail changes
    ext_Y = np.concatenate([base.Y, base.Y[-1] + np.cumsum(
        np.full(40, base.Y[-1] - base.Y[-2]))])
    doubled = HalfLineGrid(L, 81, None, x=base.x, Y=ext_Y)
    norms = {}
    for grid in (base, doubled):
        lay = solve_layer_plus(None, g, grid, m_coef=2.0)
        assert lay.far_field() < 1e-12
        for m in (0, 2, 4):
            for n in (0, 1, 2):
                for l in (0, 1, 2):
                    norms.setdefault((m, n, l), []).append(
                        lay.weighted_norm(m, n, l))
    for key, (a, b) in norms.items():
        assert abs(a - b) / max(abs(a), 1e-30) < 1e-2, (key, a, b)


def test_marching_monotone_mass_for_negative_trace():
    # discrete maximum principle of the implicit scheme: for F = 0 and
    # sign-definite g <= 0 the Y-integral of u is non-increasing in x
    grid = HalfLineGrid(L, 121, 201)
    g = -0.2 * np.sin(np.pi * grid.x / (2 * L)) ** 2 - 0.05 * grid.x / L
    lay = solve_layer_plus(None, g, grid, m_coef=2.0, scheme="be")
    mass = lay.U @ grid.wY
    assert np.all(np.diff(mass) <= 1e-12)


def test_cutoff_zero_layer_and_identity_region():
    eps, a0 = 1e-2, 0.25
    grid = HalfLineGrid(L, 81, 201, Ymax=max(20.0, 1.1 * a0 * eps ** -0.5))
    lay = solve_layer_plus(None, np.zeros(81), grid, m_coef=2.0)
    cg = build_channel_grid(L, 32, 96, eps)
    u, v, cut = apply_cutoff(lay, a0, eps, cg)
    assert np.abs(u).max() == 0.0 and np.abs(v).max() == 0.0
    # chi = 1 where the wall distance stays below a0/2
    lay2 = solve_layer_plus(None, 0.1 * np.sin(np.pi * grid.x / (2 * L)),
                            grid, m_coef=2.0)
    cut2 = CutLayer(lay2, a0, eps)
    inner = cut2.y_wall_dist <= a0 / 2
    assert np.allclose(cut2.Uhat[:, inner], lay2.U[:, inner], atol=1e-300)


def test_cutoff_divergence_identity():
    # the cut pair stays divergence-free: exact analytically, checked at the
    # layer-grid level where the discrete calculus is consistent
    eps, a0 = 1e-2, 0.25
    d = {}
    for side, solver, m, sgn in (("plus", solve_layer_plus, 2.0, -1.0),
                                 ("minus", solve_layer_minus, 1.0, 1.0)):
        # physical div = dx u + dy v = DXU + SIGN_Y * dY(Vhat) on each side
        grid = HalfLineGrid(L, 121, 301,
                            Ymax=max(20.0, 1.1 * a0 * eps ** (-1 / 2)))
        g = 0.1 * np.sin(np.pi * grid.x / (2 * L))
        lay = solver(None, g, grid, m_coef=m)
        cut = CutLayer(lay, a0, eps)
        d1Y = diff_matrix(grid.Y, 1)
        # layer-variable divergence: dx u + sgn * dY(v) with the stored signs
        div = cut.DXUhat + sgn * (d1Y @ cut.Vhat.T).T
        scale = np.abs(cut.DXUhat).max()
        zone = slice(2, None)
        assert np.abs(div[zone]).max() < 4e-2 * scale, side


def test_channel_divergence_after_cutoff_converges():
    eps, a0 = 1e-2, 0.25
    rel = []
    for n in (1, 2):
        grid = HalfLineGrid(L, 100 * n + 1, 200 * n + 1)
        g = 0.05 * np.sin(np.pi * grid.x / (2 * L))
        lay = solve_layer_minus(None, g, grid, m_coef=1.0)
        cg = build_channel_grid(L, 32 * n, 96 * n, eps)
        u, v, _ = apply_cutoff(lay, a0, eps, cg)
        ops = DiffOps(cg.x, cg.y)
        div = ops.apply(ops.Dx, u) + ops.apply(ops.Dy, v)
        rel.append(ops.norm(div, "L2") / ops.norm(ops.apply(ops.Dx, u), "L2"))
    assert rel[1] < rel[0]
    assert rel[1] < 0.1
