import types

import numpy as np
import pytest
from scipy.special import erfc

import scipy.sparse as sp
import scipy.sparse.linalg as spla

import chasflow.boundary_layers as bl
from chasflow.boundary_layers import (BE_STEPS, S_EXP, SIGN_Y, LayerPart,
                                      LayerProfile, MarchError, Wall,
                                      _dxu_at_inflow, _integral_matrix,
                                      _march_plan, _wall_rows, chi, chi_d2,
                                      chi_d3, chi_prime, interp_channel_field,
                                      interp_layer_field, layer_grid,
                                      restrict_channel_field,
                                      solve_layer_minus, solve_layer_plus)
from chasflow.discretization import (DiffOps, HalfLineGrid, build_channel_grid,
                                     cumtrapz0, diff_matrix, one_sided_row)
from chasflow.profiles import build_profile

L = 0.1
CUT_COEFFS = ("chi", "c1", "c2", "cc", "ccpp")   # a Wall's, shared by its layers


def _wall(grid, side, eps, a0):
    """A Couette Wall on a given layer grid, its x2 mask below 1.5 x[1]."""
    return Wall(side, grid, build_profile("couette", 1.0, 0.0), eps, a0,
                hx=grid.x[1])


def _part(layer, wall, cu):
    """The LayerPart of a solved layer on a Wall."""
    return LayerPart(wall.cut(layer), wall, cu)


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
        lay = solver(None, None, grid, m_coef=m, scheme="cn")
        assert np.abs(lay.U).max() == 0.0
        assert np.abs(lay.V).max() == 0.0


def test_plus_erfc_similarity():
    # 2 u_x = u_YY with g = 1: u = erfc(Y / sqrt(2x)); corner-singular data
    grid = HalfLineGrid(L, 201, 400, Ymax=20.0)
    lay = solve_layer_plus(None, np.ones(201), grid, m_coef=2.0, scheme="cn")
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
    lay = solve_layer_plus(F, np.sin(grid.x), grid, m_coef=2.0, scheme="cn")
    assert np.abs(lay.U - np.sin(X) * np.exp(-Y)).max() < 5e-6


def test_minus_mms_handbuilt():
    # u* = x e^-Y: v* = e^-Y, F* = Y e^-Y + e^-Y - x e^-Y (hand-derived)
    grid = HalfLineGrid(L, 101, 301)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = Y * np.exp(-Y) + np.exp(-Y) - X * np.exp(-Y)
    lay = solve_layer_minus(F, grid.x.copy(), grid, m_coef=1.0, scheme="cn")
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
    kq = _integral_matrix(grid.Y, last_layer)
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
    kq = _integral_matrix(grid.Y, last_layer).toarray()
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


def _flush_subnormals(a):
    """a with each subnormal entry replaced by the zero of its sign."""
    sub = (a != 0.0) & (np.abs(a) < np.finfo(float).tiny)
    return np.where(sub, np.copysign(0.0, a), a)


def _march_step_loop(grid, F, g, last_layer, kind, m_coef, scheme, flush=True):
    """The march as one loop of sparse products per step, with each step
    matrix formed by sparse sums, its blow-up test on isfinite and each
    DXU row formed in the loop: the reference that the march's elementwise
    steps must reproduce bit for bit.  With flush, each step's solution,
    DXU and V have their subnormals set to signed zeros, as the march
    does; without, they are left as they come."""
    keep = _flush_subnormals if flush else (lambda a: a)
    x, Y = grid.x, grid.Y
    nx, nY = grid.nx, grid.nY
    scale = max(np.max(np.abs(g)), np.max(np.abs(F)), 1.0)
    plan = _march_plan(Y.tobytes(), kind, last_layer)
    conv = sp.diags(Y) if kind == "minus" else sp.identity(nY, format="csr")
    U = np.zeros((nx, nY))
    DXU = np.zeros((nx, nY))
    U[0, 0] = g[0]
    g_slope = (g[1] - g[0]) / (x[1] - x[0])
    DXU[0] = _dxu_at_inflow(grid, F[0], m_coef, kind, g_slope=g_slope)
    W = plan.kq @ U[0]
    lus = {}
    for k in range(1, nx):
        dx = x[k] - x[k - 1]
        th = 1.0 if (scheme == "be" or k <= BE_STEPS) else 0.5
        m_dx = m_coef / dx
        carry = conv @ U[k - 1]
        if kind == "minus":
            carry += W
        b = (th * F[k] + (1.0 - th) * F[k - 1] + m_dx * carry
             + (1.0 - th) * (plan.d2 @ U[k - 1]))
        b[0] = g[k]
        b[-1] = 0.0
        if (m_dx, th) not in lus:
            lus[m_dx, th] = spla.splu(m_dx * plan.C - th * plan.D + plan.E)
        if kind == "minus":
            sol = keep(lus[m_dx, th].solve(np.r_[b, np.zeros(nY)]))
            U[k], W = sol[:nY], sol[nY:]
        else:
            U[k] = keep(lus[m_dx, th].solve(b))
        if not np.all(np.isfinite(U[k])) or np.max(np.abs(U[k])) > bl.BLOWUP * scale:
            raise MarchError(f"marching blow-up at step {k} (x={x[k]:.4g})")
        DXU[k] = (U[k] - U[k - 1]) / dx
    DXU = keep(DXU)
    return U, DXU, keep(DXU @ plan.kqT)


def _signed_march_data(grid):
    """Forcing and wall data of both signs that are -0.0 on the first six
    x nodes (and the forcing far out), so that the marched columns hold
    zeros of both signs for the byte comparison to check."""
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = np.sin(40.0 * X) * np.exp(-Y) - 0.3 * Y * np.exp(-Y)
    F[:6] = -0.0
    F[:, grid.Y > 12.0] = -0.0
    g = 0.1 * np.sin(np.pi * grid.x / (2 * grid.x[-1])) - 0.5 * grid.x
    g[:6] = -0.0
    return F, g


@pytest.mark.parametrize("scheme", ["be", "cn"])
@pytest.mark.parametrize("last_layer", [False, True])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_march_matches_the_step_loop(side, last_layer, scheme):
    # graded x nodes, so each step size is its own factor
    grid = HalfLineGrid(L, 31, 61)
    F, g = _signed_march_data(grid)
    m = {"plus": 2.0, "minus": 1.0}[side]
    got = bl._march(grid, F, g, last_layer, side, m, scheme)
    ref = _march_step_loop(grid, F, g, last_layer, side, m, scheme)
    for name, a, b in zip(("U", "DXU", "V"), got, ref):
        assert a.tobytes() == b.tobytes(), name
    assert np.signbit(ref[0][ref[0] == 0.0]).any()


@pytest.mark.parametrize("scheme", ["be", "cn"])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_march_flushes_subnormals(side, scheme):
    # a layer without forcing decays into a far field at Ymax = 20 that is
    # deep in the subnormal range; the march leaves none of its values there
    tiny = np.finfo(float).tiny
    grid = HalfLineGrid(L, 31, 320, Ymax=20.0)
    F = np.zeros(grid.shape)
    g = 0.1 * np.sin(np.pi * grid.x / (2 * L))
    got = bl._march(grid, F, g, False, side, 1.0, scheme)
    flushed = _march_step_loop(grid, F, g, False, side, 1.0, scheme)
    raw = _march_step_loop(grid, F, g, False, side, 1.0, scheme, flush=False)
    assert np.count_nonzero((raw[0] != 0.0) & (np.abs(raw[0]) < tiny)) > 0
    for name, a, b, r in zip(("U", "DXU", "V"), got, flushed, raw):
        assert a.tobytes() == b.tobytes(), name
        assert not np.any((a != 0.0) & (np.abs(a) < tiny)), name
        normal = np.abs(r) >= 1e-250
        assert a[normal].tobytes() == r[normal].tobytes(), name
        assert np.abs(a - r).max() <= 1e-290, name


def test_march_flushes_dxu_and_v(monkeypatch):
    # normal columns whose x differences are subnormal (rows 1-4) or, at
    # the wall, just above the smallest normal, so that DXU and V = K DXU
    # (K's wall weight being dY/2 < 1) would hold subnormals of their own;
    # they replace the step solves
    tiny = np.finfo(float).tiny
    grid = HalfLineGrid(L, 11, 10)
    U = np.zeros(grid.shape)
    U[1:, 0] = 2.0 * tiny + 1.5 * tiny * grid.x[1:]
    U[1:, 1:5] = 2.0 * tiny * (1.0 + np.arange(1, 11)[:, None] * 2.0 ** -51)
    real = _march_plan(grid.Y.tobytes(), "plus", False)
    cols = iter(U[1:])
    step = types.SimpleNamespace(solve=lambda rhs: next(cols).copy())
    plan = types.SimpleNamespace(**vars(real), step_lu=lambda m_dx, th: step)
    monkeypatch.setattr(bl, "_march_plan", lambda *key: plan)
    got = bl._march(grid, None, U[:, 0], False, "plus", 1.0, "be")
    assert got[0].tobytes() == U.tobytes()
    dxu = np.diff(U, axis=0) / np.diff(grid.x)[:, None]
    flushed = _flush_subnormals(dxu)
    assert not np.array_equal(flushed, dxu)
    assert got[1][1:].tobytes() == flushed.tobytes()
    v = got[1] @ real.kqT
    assert not np.array_equal(_flush_subnormals(v), v)
    assert got[2].tobytes() == _flush_subnormals(v).tobytes()


@pytest.mark.parametrize("scheme", ["be", "cn"])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_march_blows_up_where_the_step_loop_does(side, scheme, monkeypatch):
    grid = HalfLineGrid(L, 31, 61)
    F, g = _signed_march_data(grid)
    m = {"plus": 2.0, "minus": 1.0}[side]
    U = _march_step_loop(grid, F, g, False, side, m, scheme)[0]
    scale = max(np.abs(g).max(), np.abs(F).max(), 1.0)
    # a bound that the middle step's column is the first to pass
    peak = np.maximum.accumulate(np.abs(U).max(axis=1))
    k = 15
    assert peak[k] > peak[k - 1]
    bound = 0.5 * (peak[k - 1] + peak[k]) / scale
    F_nan = F.copy()
    F_nan[22, 5] = np.nan       # and a NaN forcing under the usual bound
    for data, blowup, step in ((F, bound, k), (F_nan, 1e6, 22)):
        monkeypatch.setattr(bl, "BLOWUP", blowup)
        messages = []
        for march in (bl._march, _march_step_loop):
            with pytest.raises(MarchError) as err:
                march(grid, data, g, False, side, m, scheme)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"marching blow-up at step {step} ")


def _integral_matrix_rows(Y, last_layer):
    """The trapezoid integral matrix built one row at a time from the last."""
    nY = Y.size
    w = np.zeros((nY, nY))
    dY = np.diff(Y)
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


@pytest.mark.parametrize("last_layer", [False, True])
def test_integral_matrix_matches_row_loop(last_layer):
    Y = HalfLineGrid(L, 11, 57).Y
    K, ref = _integral_matrix(Y, last_layer), _integral_matrix_rows(Y, last_layer)
    for a in ("data", "indices", "indptr"):
        assert getattr(K, a).tobytes() == getattr(ref, a).tobytes()
    assert K.T.toarray().tobytes() == ref.T.toarray().tobytes()


def test_march_plan_memo_is_sound():
    # plans are keyed on (Y bytes, side, last_layer) and their step LUs on
    # (m/dx, theta): equal inputs share a factor, any other input has its own
    Y = HalfLineGrid(L, 11, 31).Y
    Y1 = Y.copy()
    Y1[5] = np.nextafter(Y1[5], 1.0)
    base = dict(Y=Y, side="minus", last_layer=False, m_dx=50.0, th=0.5)

    def plan_and_lu(**change):
        a = {**base, **change}
        plan = _march_plan(a["Y"].tobytes(), a["side"], a["last_layer"])
        return plan, plan.step_lu(a["m_dx"], a["th"]), a

    _, lu, _ = plan_and_lu()
    assert plan_and_lu(Y=Y.copy())[1] is lu
    rng = np.random.default_rng(5)
    for change in ({}, {"m_dx": np.nextafter(50.0, 51.0)}, {"th": 1.0}, {"last_layer": True},
                   {"side": "plus"}, {"Y": Y1}):
        plan, other, a = plan_and_lu(**change)
        assert (other is lu) == (not change)
        b = rng.standard_normal(plan.C.shape[0])
        A = a["m_dx"] * plan.C - a["th"] * plan.D + plan.E
        assert other.solve(b).tobytes() == spla.splu(A).solve(b).tobytes()


def test_repeated_march_factors_nothing(monkeypatch):
    grid = HalfLineGrid(L, 41, 61)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = np.exp(-Y) * (1.0 + X)
    first = solve_layer_minus(F, grid.x.copy(), grid, m_coef=1.0, scheme="cn")

    def no_splu(A, *args, **kwargs):
        raise AssertionError("step matrix refactored")
    monkeypatch.setattr(spla, "splu", no_splu)
    again = solve_layer_minus(2.0 * F, 2.0 * grid.x, grid, m_coef=1.0, scheme="cn")
    assert np.array_equal(again.U, 2.0 * first.U)


def test_layer_linearity():
    grid = HalfLineGrid(L, 61, 201)
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    F = Y * np.exp(-Y) + np.exp(-Y) - X * np.exp(-Y)
    g = grid.x.copy()
    one = solve_layer_minus(F, g, grid, m_coef=1.0, scheme="cn")
    two = solve_layer_minus(2 * F, 2 * g, grid, m_coef=1.0, scheme="cn")
    assert np.allclose(two.U, 2 * one.U, rtol=1e-12, atol=1e-16)


def test_marching_x_order():
    # theta scheme: second order in the x step on a curved solution
    k = 40.0
    errs = []
    for nx in (51, 101, 201):
        grid = HalfLineGrid(L, nx, 401)
        X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
        F = 2 * k * np.cos(k * X) * np.exp(-Y) - np.sin(k * X) * np.exp(-Y)
        lay = solve_layer_plus(F, np.sin(k * grid.x), grid, m_coef=2.0, scheme="cn")
        errs.append(np.abs(lay.U - np.sin(k * X) * np.exp(-Y)).max())
    order = np.polyfit(np.log([1 / 50, 1 / 100, 1 / 200]), np.log(errs), 1)[0]
    assert order >= 1.7


def test_last_layer_wall_normal_velocity_zero():
    grid = HalfLineGrid(L, 81, 201)
    g = 0.1 * np.sin(np.pi * grid.x / (2 * L))
    for solver, m in ((solve_layer_plus, 2.0), (solve_layer_minus, 1.0)):
        lay = solver(None, g, grid, last_layer=True, m_coef=m, scheme="cn")
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
    doubled = HalfLineGrid(L, None, None, x=base.x, Y=ext_Y)
    norms = {}
    for grid in (base, doubled):
        lay = solve_layer_plus(None, g, grid, m_coef=2.0, scheme="cn")
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
    grid = layer_grid("plus", eps, a0, HalfLineGrid(L, 81, 201).x, 201)
    wall = _wall(grid, "plus", eps, a0)
    lay = solve_layer_plus(None, np.zeros(81), grid, m_coef=2.0, scheme="cn")
    cg = build_channel_grid(L, 32, 96, eps)
    f = _part(lay, wall, 1.0).channel_fields(cg)
    assert np.abs(f["u"]).max() == 0.0 and np.abs(f["v"]).max() == 0.0
    # chi = 1 where the wall distance stays below a0/2
    lay2 = solve_layer_plus(None, 0.1 * np.sin(np.pi * grid.x / (2 * L)),
                            grid, m_coef=2.0, scheme="cn")
    cut2 = wall.cut(lay2)
    # the part keeps the first nS nodes, which hold every node of chi = 1
    inner = eps ** 0.5 * grid.Y[:wall.nS] <= a0 / 2
    assert np.count_nonzero(inner) == np.count_nonzero(
        eps ** 0.5 * grid.Y <= a0 / 2)
    assert np.allclose(cut2["Uhat"][:, inner], lay2.U[:, :wall.nS][:, inner],
                       atol=1e-300)


def _full_width_cut(layer, cu, a0, eps, x2_floor):
    """The cut arrays, fields and coefficients of Wall.cut, a LayerPart and
    its Wall built over every Y node of the layer grid, with the full-width
    difference matrices, in their operations."""
    side, grid = layer.side, layer.grid
    s = S_EXP[side]
    yy = eps ** s * grid.Y
    scale, sgn = eps ** s / a0, -SIGN_Y[side]
    c1 = scale * chi_prime(yy / a0)
    f = {"chi": chi(yy / a0), "c1": c1, "c2": scale ** 2 * chi_d2(yy / a0),
         "cc": sgn * c1, "ccpp": sgn * scale ** 3 * chi_d3(yy / a0)}
    f["W"] = cumtrapz0(layer.V, grid.x)
    f["DXW"] = np.empty_like(layer.V)
    f["DXW"][0] = layer.V[0]
    f["DXW"][1:] = 0.5 * (layer.V[1:] + layer.V[:-1])
    chiv, cc = f["chi"][None, :], f["cc"][None, :]
    f["Uhat"] = chiv * layer.U + cc * f["W"]
    f["DXUhat"] = chiv * layer.DXU + cc * f["DXW"]
    f["Vhat"] = chiv * layer.V
    f["DXVhat"] = np.zeros_like(f["Vhat"])
    f["DXVhat"][1:] = (f["Vhat"][1:] - f["Vhat"][:-1]) / np.diff(grid.x)[:, None]
    d1Y, d2Y = diff_matrix(grid.Y, 1), diff_matrix(grid.Y, 2)
    d2x = diff_matrix(grid.x, 2)
    x2_mask = (grid.x >= x2_floor).astype(float)[:, None]

    def lap(g):
        return x2_mask * (d2x @ g) + eps ** (-2.0 * s) * (d2Y @ g.T).T

    cv, chain = cu * eps ** s, SIGN_Y[side] * eps ** (-s)
    fields = {"u": cu * f["Uhat"], "v": cv * f["Vhat"],
              "ux": cu * f["DXUhat"], "uy": cu * chain * (d1Y @ f["Uhat"].T).T,
              "vx": cv * f["DXVhat"], "vy": cv * chain * (d1Y @ f["Vhat"].T).T,
              "lap_u": cu * lap(f["Uhat"]), "lap_v": cv * lap(f["Vhat"])}
    return f, fields


@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("a0", [0.25, 1.0])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("side", ["minus", "plus"])
def test_cut_fields_vanish_beyond_the_support_width(side, eps, a0, packed):
    # every cut field built at full width is exactly 0 from column nS (the
    # Wall's support width) on, and the support-width array of Wall.cut, the
    # LayerPart or the Wall is that field's leading block bit for bit; so are
    # W and DXW, which are not 0 past it.  The data is nonzero on every node.
    # On the graded nodes the last nonzero column lies close to the support's
    # end, so the pad is what keeps the stencils off it; packed nodes at
    # t = eps^s Y / a0 in [1 - 2e-3, 1 + 2e-3] make a wider reach of the chi
    # quotients (chi_d3 reads chi(t + 2e-4)) put a nonzero column past it.
    s = S_EXP[side]
    edge = a0 * eps ** -s
    ymax = max(20.0, 1.1 * edge)
    Y = ymax * np.linspace(0.0, 1.0, 121) ** 2
    if packed:
        Y = np.union1d(Y, edge * (1.0 + 1e-4 * np.arange(-20, 21)))
    grid = HalfLineGrid(L, 21, None, Y=Y)
    rng = np.random.default_rng(7)
    U, DXU, V = rng.uniform(0.5, 1.5, (3, grid.nx, Y.size))
    layer = LayerProfile(grid, side, 1, False, U, DXU, V, None)
    wall = _wall(grid, side, eps, a0)
    cut = wall.cut(layer)
    part = LayerPart(cut, wall, 0.5)
    nS = wall.nS
    assert nS < Y.size
    full, full_fields = _full_width_cut(layer, 0.5, a0, eps, 1.5 * grid.x[1])
    kept = {k: getattr(wall, k) if k in CUT_COEFFS else cut[k] for k in full}
    full |= {f"fields.{k}": f for k, f in full_fields.items()}
    kept |= {f"fields.{k}": f for k, f in part.fields.items()}
    assert set(kept) == set(full)
    for key, f in full.items():
        assert key in ("W", "DXW") or not np.any(f[..., nS:]), key
        assert f[..., :nS].tobytes() == kept[key].tobytes(), key
    if packed:   # the packed nodes reach into the quotients' nonzero band
        assert np.any(full["ccpp"][Y > 0.999 * edge])
    # in the channel: the columns past the support are the +0.0 that the
    # full-width field interpolates to
    cx, cy = np.linspace(0.0, L, 9), np.linspace(0.0, 2.0, 401)
    for key, f in part.fields.items():
        ref = interp_layer_field(full_fields[key], grid, side, eps, cx, cy)
        got = interp_layer_field(f, grid, side, eps, cx, cy)
        assert ref.tobytes() == got.tobytes(), key


def test_stacked_interpolation_matches_per_field_calls():
    # fields stacked along leading axes share one pass pair, and each comes
    # out as from its own call bit for bit.  The data mixes smooth values,
    # runs of equal values (zero secants), sign changes and -0.0
    eps = 1e-2
    rng = np.random.default_rng(3)
    lgrid = HalfLineGrid(L, 21, 81)
    cg = build_channel_grid(L, 16, 48, eps)

    def data(shape):
        f = rng.standard_normal(shape) * rng.integers(-2, 3, shape)
        f[0, 0] = -0.0
        return f

    layer = data((2, 3, lgrid.nx, 40))
    channel = data((2, 3, cg.nx, cg.ny))
    for side in ("minus", "plus"):
        got = interp_layer_field(layer, lgrid, side, eps, cg.x, cg.y)
        assert got.shape == (2, 3, cg.nx, cg.ny)
        for i in np.ndindex(2, 3):
            one = interp_layer_field(layer[i], lgrid, side, eps, cg.x, cg.y)
            assert got[i].tobytes() == one.tobytes(), (side, i)
    xq, yq = lgrid.x, 2.0 - eps ** 0.5 * lgrid.Y[:40]
    got = interp_channel_field(channel, cg, xq, yq)
    assert got.shape == (2, 3, xq.size, yq.size)
    for i in np.ndindex(2, 3):
        one = interp_channel_field(channel[i], cg, xq, yq)
        assert got[i].tobytes() == one.tobytes(), i


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
        lay = solver(None, g, grid, m_coef=m, scheme="cn")
        wall = _wall(grid, side, eps, a0)
        cut = wall.cut(lay)
        d1Y = diff_matrix(grid.Y[:wall.nS], 1)
        # layer-variable divergence: dx u + sgn * dY(v) with the stored signs
        div = cut["DXUhat"] + sgn * (d1Y @ cut["Vhat"].T).T
        scale = np.abs(cut["DXUhat"]).max()
        zone = slice(2, None)
        assert np.abs(div[zone]).max() < 4e-2 * scale, side


def test_channel_divergence_after_cutoff_converges():
    eps, a0 = 1e-2, 0.25
    rel = []
    for n in (1, 2):
        grid = HalfLineGrid(L, 100 * n + 1, 200 * n + 1)
        g = 0.05 * np.sin(np.pi * grid.x / (2 * L))
        lay = solve_layer_minus(None, g, grid, m_coef=1.0, scheme="cn")
        cg = build_channel_grid(L, 32 * n, 96 * n, eps)
        f = _part(lay, _wall(grid, "minus", eps, a0), 1.0).channel_fields(cg)
        u, v = f["u"], f["v"]
        ops = DiffOps(cg.x, cg.y)
        div = ops.apply("Dx", u) + ops.apply("Dy", v)
        rel.append(ops.norm(div, "L2") / ops.norm(ops.apply("Dx", u), "L2"))
    assert rel[1] < rel[0]
    assert rel[1] < 0.1


def test_restrict_channel_field_needs_a_leading_block():
    src, dst = build_channel_grid(0.1, 24, 48, 1e-2), build_channel_grid(0.1, 24, 40, 1e-2)
    with pytest.raises(ValueError):
        restrict_channel_field(np.zeros((24, 48)), src, dst)
