import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chasflow import discretization
from chasflow.cli import EXIT_NUMERICAL, main
from chasflow.discretization import (GridSolveError, LineModes,
                                     SeparableSystem, build_channel_grid,
                                     cumtrapz0, line_modes, one_sided_row)
from chasflow.euler_correctors import SIDES, EulerSolveError, EulerSolver
from chasflow.expansion import _extended_grid
from chasflow.profiles import PerturbationSpec, build_profile
from conftest import lil_replace_rows, mms_convergence

L = 0.1


def test_couette_first_corrector_is_zero(couette, channel_48x96):
    # mu''' = 0 kills the data; homogeneous problem has the zero solution
    solver = EulerSolver(channel_48x96, couette)
    c = solver.solve_first()
    assert np.abs(c.v).max() == 0.0
    assert np.abs(c.u).max() == 0.0
    assert np.abs(c.P).max() == 0.0


def test_first_solver_mms_order(perturbed_couette):
    def level(n):
        g = build_channel_grid(L, n, 2 * n, 1e-2)
        s = EulerSolver(g, perturbed_couette)
        # v* = cos(pi x / 2L) sin^2(pi y / 2): v_x(0)=0, v(L)=0, walls 0
        vstar = np.cos(np.pi * g.XX / (2 * L)) * np.sin(np.pi * g.YY / 2) ** 2
        w = np.tile(perturbed_couette.ratio2(g.y), (g.nx, 1))
        lap = (-(np.pi / (2 * L)) ** 2 * vstar
               + np.cos(np.pi * g.XX / (2 * L)) * (np.pi ** 2 / 2) * np.cos(np.pi * g.YY))
        f = -lap + w * vstar
        v = s._solve_v("first", f, None)
        return 1.0 / n, np.abs(v - vstar).max()

    slope, _, errs = mms_convergence(level, [12, 24, 48])
    assert slope >= 1.8
    assert errs[-1] < errs[0]


def test_solver_linearity(perturbed_couette, channel_48x96):
    s = EulerSolver(channel_48x96, perturbed_couette)
    c1 = s.solve_first()
    rhs2 = 2.0 * np.tile(perturbed_couette.ratio3(channel_48x96.y),
                         (channel_48x96.nx, 1))
    v2 = s._solve_v("first", rhs2, None)
    assert np.allclose(v2, 2.0 * c1.v, rtol=1e-12, atol=1e-16)


def test_higher_corrector_trace_and_maximum_principle(perturbed_couette,
                                                      channel_48x96):
    g = channel_48x96
    s = EulerSolver(g, perturbed_couette)
    trace = 0.1 * np.sin(np.pi * g.x / (2 * L))
    plus = s.solve_higher(2, "plus", trace)
    assert np.abs(plus.v[:, -1] - trace).max() < 1e-10
    # thin-strip decay: the corrector vanishes at the opposite wall
    assert np.abs(plus.v[:, 0]).max() < 1e-12 * np.abs(trace).max()
    assert np.abs(plus.u[:, 0]).max() < 1e-12 * np.abs(trace).max()
    minus = s.solve_higher(2, "minus", trace)
    assert np.abs(minus.v[:, 0] - trace).max() < 1e-10
    assert np.abs(minus.v[:, -1]).max() < 1e-12 * np.abs(trace).max()


def test_zero_trace_gives_zero_corrector(perturbed_couette, channel_48x96):
    s = EulerSolver(channel_48x96, perturbed_couette)
    c = s.solve_higher(2, "plus", np.zeros(channel_48x96.nx))
    assert np.abs(c.v).max() == 0.0


def test_incompatible_trace_rejected(perturbed_couette, channel_48x96):
    s = EulerSolver(channel_48x96, perturbed_couette)
    with pytest.raises(EulerSolveError):
        s.solve_higher(2, "plus", np.ones(channel_48x96.nx))


def test_divergence_free(perturbed_couette, channel_48x96):
    g = channel_48x96
    s = EulerSolver(g, perturbed_couette)
    trace = 0.1 * np.sin(np.pi * g.x / (2 * L)) ** 2
    c = s.solve_higher(2, "plus", trace)
    div = c.divergence(s.ops)
    scale = max(np.abs(s.ops.apply("Dx", c.u)).max(), 1e-30)
    assert np.abs(div).max() < 5e-2 * scale


def test_pressure_trivial_cases(couette, perturbed_couette, channel_48x96):
    g = channel_48x96
    zero = np.zeros(g.shape)
    # Couette, zero corrector: dP/dx = mu'' = 0 -> constant
    c = EulerSolver(g, couette)._complete(1, "first", zero, couette.mu(g.y, 2))
    assert np.abs(c.P).max() < 1e-14
    # zero corrector: dP/dx = mu'' -> P = mu''(y) x
    s = EulerSolver(g, perturbed_couette)
    mupp = perturbed_couette.mu(g.y, 2)
    c = s._complete(1, "first", zero, mupp)
    assert np.allclose(c.P, g.XX * mupp[None, :], rtol=1e-10, atol=1e-12)


def test_pressure_cross_consistency_refines(perturbed_couette):
    # dP/dy = -mu dv/dx holds identically in the continuum; measured on a
    # fixed interior subdomain (boundary rows carry BC equations, not the
    # vorticity equation) the residual is pure discretization error
    from conftest import make_grid
    residuals = []
    for n in (24, 48, 96):
        g = make_grid(n, L=L, sigma=1.2)
        s = EulerSolver(g, perturbed_couette)
        trace = 0.1 * np.sin(np.pi * g.x / L) ** 2  # compatible at both ends
        c = s.solve_higher(2, "plus", trace)
        mu = perturbed_couette.mu(g.y)
        r = (s.ops.apply("Dy", c.P)
             + mu[None, :] * s.ops.apply("Dx", c.v))
        mx = (g.x > 0.1 * L) & (g.x < 0.9 * L)
        my = (g.y > 0.1) & (g.y < 1.9)
        sub = r[np.ix_(mx, my)]
        w = np.outer(s.ops.wx[mx], s.ops.wy[my])
        residuals.append(float(np.sqrt(np.sum(w * sub * sub))))
    order = np.polyfit(np.log([1 / 24, 1 / 48, 1 / 96]),
                       np.log(residuals), 1)[0]
    assert order >= 1.9


def test_field_record_matches_its_relations(perturbed_couette,
                                            channel_48x96):
    # the record holds the derivatives of the construction and P is the
    # integral of its own x-momentum balance px
    s = EulerSolver(channel_48x96, perturbed_couette)
    g, ops = channel_48x96, s.ops
    c = s.solve_first()
    f = c.fields
    assert sorted(f) == sorted(["u", "v", "ux", "uy", "vx", "vy", "lap_u",
                                "lap_v", "px", "P"])
    assert np.array_equal(f["ux"], -ops.apply("Dy", c.v))
    assert np.array_equal(f["u"], cumtrapz0(f["ux"], g.x))
    assert np.array_equal(f["P"], cumtrapz0(f["px"], g.x))
    mu, mup = perturbed_couette.mu(g.y), perturbed_couette.mu(g.y, 1)
    px = (perturbed_couette.mu(g.y, 2)[None, :] - mu[None, :] * f["ux"]
          - mup[None, :] * c.v)
    assert np.array_equal(f["px"], px)
    for key, op, src in (("uy", "Dy", "u"), ("vx", "Dx", "v"),
                         ("vy", "Dy", "v"), ("lap_u", "lap", "u"),
                         ("lap_v", "lap", "v")):
        assert np.array_equal(f[key], ops.apply(op, f[src])), key
    assert np.abs(f["v"]).max() > 0.0


def _lil_boundary_rows(grid, side):
    """The boundary rows of each variant, in the order the LIL loop that
    assembled them set them: v = 0 or the trace on the Dirichlet walls,
    dv/dy = 0 on the Neumann wall, then v_x = 0 at inflow and v = 0 at
    outflow between the walls."""
    g = grid

    def nd(i, j):
        return i * g.ny + j

    y_dir, y_neu = {"first": ((0, g.ny - 1), ()), "plus": ((g.ny - 1,), (0,)),
                    "minus": ((0,), (g.ny - 1,))}[side]
    idy0, wy0 = one_sided_row(g.y, True, 1, 3)
    idy2, wy2 = one_sided_row(g.y, False, 1, 3)
    idx0, wx0 = one_sided_row(g.x, True, 1, 3)
    out = []
    for i in range(g.nx):
        for j in y_dir:
            out.append((nd(i, j), [nd(i, j)], [1.0]))
        for j in y_neu:
            idx, wgt = (idy0, wy0) if j == 0 else (idy2, wy2)
            out.append((nd(i, j), [nd(i, k) for k in idx], wgt))
    for j in range(1, g.ny - 1):
        out.append((nd(0, j), [nd(k, j) for k in idx0], wx0))
        out.append((nd(g.nx - 1, j), [nd(g.nx - 1, j)], [1.0]))
    return out


def _reference_v(A, grid, side, rhs, wall):
    """v from a sparse LU of A with the LIL boundary rows of the side: the
    corrector system as it was assembled before the separable solve."""
    lil = _lil_boundary_rows(grid, side)
    rows = [r for r, _, _ in lil]
    b = rhs.ravel().copy()
    b[rows] = wall.ravel()[rows]
    return spla.splu(lil_replace_rows(A, lil)).solve(b).reshape(grid.shape)


def _operator(solver):
    """-lap + mu''/mu on the solver's grid, C-order."""
    return -solver.ops.lap + sp.diags(np.tile(solver.w, solver.grid.nx))


def _stretched_24x48():
    return build_channel_grid(L, 24, 48, 1e-2)


def _extended_strip_60x96():
    return _extended_grid(build_channel_grid(L, 48, 96, 1e-3), 1.25)


@pytest.mark.parametrize("make", [_stretched_24x48, _extended_strip_60x96],
                         ids=["stretched_24x48", "strip_60x96"])
@pytest.mark.parametrize("side", ["first", "plus", "minus"])
def test_separable_solve_matches_sparse_lu(side, make, perturbed_couette):
    g = make()
    s = EulerSolver(g, perturbed_couette)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(g.shape)
    trace = None if side == "first" else rng.standard_normal(g.nx)
    wall = np.zeros(g.shape)
    if trace is not None:
        wall[:, 0 if side == "minus" else -1] = trace
    v = s._solve_v(side, rhs, trace)
    ref = _reference_v(_operator(s), g, side, rhs, wall)
    assert np.abs(v - ref).max() <= 1e-10 * np.abs(ref).max()
    # data at every wall row: the Neumann, inflow and outflow rows too
    wall = rng.standard_normal(g.shape)
    v = s.systems[side].solve(rhs, wall)
    ref = _reference_v(_operator(s), g, side, rhs, wall)
    assert np.abs(v - ref).max() <= 1e-10 * np.abs(ref).max()


def _skew(g):
    """A skew coupling of two y nodes: it gives Ky a complex-conjugate
    spectrum (eigenvector condition number 2.7)."""
    return sp.csr_matrix(([1e4, -1e4], ([20, 21], [21, 20])),
                         shape=(g.ny, g.ny))


def test_a_complex_spectrum_is_solved_in_complex_arithmetic(
        perturbed_couette):
    # the solve of a complex spectrum keeps the real part
    g = _stretched_24x48()
    s = EulerSolver(g, perturbed_couette)
    skew = _skew(g)
    ym = LineModes(g.y, s.ops.d2y + skew, SIDES["plus"], s.w[1:-1])
    assert np.iscomplexobj(ym.lam)
    rng = np.random.default_rng(6)
    rhs, wall = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    v = SeparableSystem(s.x_modes, ym, null=False).solve(rhs, wall)
    assert v.dtype == np.float64
    A = _operator(s) - sp.kron(sp.identity(g.nx), skew)
    ref = _reference_v(A, g, "plus", rhs, wall)
    assert np.abs(v - ref).max() <= 1e-10 * np.abs(ref).max()


def test_skewed_modes_are_never_served_from_the_memo(perturbed_couette):
    # the plus side's modes are memoized; the skewed d2 of the complex
    # spectrum differs in d2's arrays alone, so it gets its own build
    g = _stretched_24x48()
    s = EulerSolver(g, perturbed_couette)
    args = (g.y, s.ops.d2y, SIDES["plus"], s.w[1:-1])
    plain = line_modes(*args)
    skewed = line_modes(g.y, s.ops.d2y + _skew(g), *args[2:])
    assert skewed is not plain
    assert np.iscomplexobj(skewed.lam) and not np.iscomplexobj(plain.lam)
    fresh = LineModes(g.y, s.ops.d2y + _skew(g), *args[2:])
    assert skewed.lam.tobytes() == fresh.lam.tobytes()
    assert line_modes(*args) is plain


def test_ill_conditioned_modes_are_refused(perturbed_couette, channel_48x96,
                                           monkeypatch, tmp_path, capsys):
    # every eigenvector matrix has condition number >= 1
    monkeypatch.setattr(discretization, "EIG_COND_LIMIT", 0.5)
    with pytest.raises(GridSolveError, match="condition number"):
        EulerSolver(channel_48x96, perturbed_couette)
    rc = main(["construct", "--set", "grid.nx=24", "--set", "grid.ny=64",
               "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_each_side_build_logs_one_debug_line(perturbed_couette, channel_48x96,
                                             caplog):
    caplog.set_level(logging.DEBUG, logger="chasflow.euler_correctors")
    s = EulerSolver(channel_48x96, perturbed_couette)
    trace = 0.1 * np.sin(np.pi * channel_48x96.x / (2 * L))
    s.solve_first()
    for _ in range(2):
        s.solve_higher(2, "plus", trace)
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 2
    assert lines[0].startswith("euler first system: 46 x 94 modes, lambda in")
    assert lines[1].startswith("euler plus system: 46 x 94 modes")
    assert "eigenvector cond" in lines[1]
