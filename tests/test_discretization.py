import os
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import PchipInterpolator

from chasflow.discretization import (_NPTS, ChannelGrid, DiffOps, Field2D,
                                     GridResolutionError, HalfLineGrid,
                                     _fix_low_moments, build_channel_grid,
                                     diff_matrix, grid_lu, mms_convergence,
                                     nested_dissection, one_sided_row,
                                     pchip_operator, replace_rows,
                                     tanh_stretched)
from chasflow.expansion import LAYER_SUB, _extended_grid, _layer_xgrid
from chasflow.linearized import (LinearizedProblem, _bc_rows,
                                 assemble_linearized_operator)
from conftest import lil_replace_rows, make_grid, same_arrays


def test_build_channel_grid_resolves_layers():
    g = build_channel_grid(0.1, 32, 64, 1e-2)
    target = 0.5 * min(1e-2 ** (1 / 3), 1e-2 ** 0.5)
    lo, hi = g.wall_spacing()
    assert lo <= target and hi <= target
    assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(0.1)
    assert g.y[0] == 0.0 and g.y[-1] == pytest.approx(2.0)
    assert np.all(np.diff(g.x) > 0) and np.all(np.diff(g.y) > 0)


def test_build_channel_grid_uniform_when_eps_large():
    g = build_channel_grid(0.1, 16, 256, 0.5, stretching=True)
    assert g.sigma == 0.0
    assert np.allclose(np.diff(g.y), np.diff(g.y)[0])


def test_build_channel_grid_unresolvable():
    with pytest.raises(GridResolutionError):
        build_channel_grid(0.1, 32, 16, 1e-6)


def test_operators_annihilate_constants(ops_48x96):
    one = np.ones((48, 96))
    assert np.abs(ops_48x96.apply(ops_48x96.Dx, one)).max() < 1e-12
    # the h^-2 weight amplification makes the absolute linear-annihilation
    # bound an O(1)-spacing statement; roundoff floor ~ ulp(h^-2)
    x = np.linspace(0.0, 2.0, 20)
    y = tanh_stretched(0.0, 2.0, 24, 1.0)
    ops = DiffOps(x, y)
    lin = x[:, None] + 2.0 * y[None, :]
    assert np.abs(ops.apply(ops.lap, lin + 0.0)).max() < 1e-10


def test_biharmonic_exact_on_cubics():
    # exactness is a property of the stencil weights; measured on an O(1)
    # grid where the h^-4 roundoff amplification is benign
    x = np.linspace(0.0, 2.0, 11)
    y = np.linspace(0.0, 2.0, 12)
    ops = DiffOps(x, y)
    XX, YY = np.meshgrid(x, y, indexing="ij")
    cub = XX ** 3 + YY ** 3 + XX * YY ** 2 + XX ** 2 * YY
    assert np.abs(ops.apply(ops.bih, cub)).max() < 1e-9


def test_norm_trivial_cases(ops_48x96):
    z = np.zeros((48, 96))
    for kind in ("L2", "H1", "H2", "Linf"):
        assert ops_48x96.norm(z, kind) == 0.0
    one = np.ones((48, 96))
    # area of (0, 0.1) x (0, 2) is 0.2
    assert ops_48x96.norm(one, "L2") == pytest.approx(np.sqrt(0.2), rel=1e-12)


def test_norm_against_analytic_integral(channel_48x96, ops_48x96):
    # || sin(pi y / 2) ||_{L2}^2 = L * int_0^2 sin^2 = L * 1
    f = np.sin(np.pi * channel_48x96.YY / 2.0)
    exact = np.sqrt(0.1 * 1.0)
    assert ops_48x96.norm(f, "L2") == pytest.approx(exact, rel=1e-4)


def test_weighted_norm_and_mismatch(ops_48x96):
    # a kind that matches no norm is an error, never a silent L2
    with pytest.raises(ValueError):
        ops_48x96.norm(np.ones((48, 96)), "weighted_L2")


def test_norm_monotonicity(channel_48x96, ops_48x96):
    rng = np.random.default_rng(7)
    f = np.sin(3 * channel_48x96.XX) * np.cos(channel_48x96.YY) \
        + 0.1 * rng.standard_normal(channel_48x96.shape)
    l2 = ops_48x96.norm(f, "L2")
    h1 = ops_48x96.norm(f, "H1")
    h2 = ops_48x96.norm(f, "H2")
    assert h2 >= h1 >= l2


def test_mms_laplacian_order():
    L = 0.1

    def level(n):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        f = np.sin(np.pi * g.XX / L) * np.sin(np.pi * g.YY / 2)
        exact = -((np.pi / L) ** 2 + (np.pi / 2) ** 2) * f
        err = np.abs(ops.apply(ops.lap, f) - exact).max() / np.abs(exact).max()
        return 1.0 / n, err

    slope, _, errs = mms_convergence(level, [16, 32, 64])
    assert slope == pytest.approx(2.0, abs=0.6)
    assert errs[-1] < errs[0]


def test_mms_dx_constant_zero():
    for n in (16, 32):
        g = make_grid(n)
        ops = DiffOps(g.x, g.y)
        assert np.abs(ops.apply(ops.Dx, np.ones(g.shape))).max() < 1e-12


def test_refinement_never_degrades():
    # refining the grid must not increase the operator MMS error by > 5%
    L = 0.1
    errs = []
    for n in (16, 32, 64):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        f = np.sin(np.pi * g.XX / L) * np.sin(np.pi * g.YY / 2)
        exact = -((np.pi / L) ** 2 + (np.pi / 2) ** 2) * f
        errs.append(np.abs(ops.apply(ops.lap, f) - exact).max())
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.05 * a


def test_summation_by_parts():
    # for fields vanishing on the whole boundary:
    # |<dx f, g> + <f, dx g>| <= C h^2 ||f|| ||g||; with the uniform x
    # direction the central-difference/trapezoid pair is summation-exact,
    # so the defect sits at roundoff, far below any C h^2 envelope
    for n in (24, 48):
        g = make_grid(n)
        ops = DiffOps(g.x, g.y)
        bump_x = np.sin(np.pi * g.XX / g.L)
        bump_y = np.sin(np.pi * g.YY / 2)
        f = bump_x * bump_y
        h = bump_x ** 2 * bump_y ** 2
        lhs = abs(ops.integrate(ops.apply(ops.Dx, f) * h)
                  + ops.integrate(f * ops.apply(ops.Dx, h)))
        rel = lhs / (ops.norm(f, "L2") * ops.norm(h, "L2"))
        assert rel <= 1e-2 * (g.x[1] - g.x[0]) ** 2


def test_halfline_grid_defaults():
    g = HalfLineGrid(0.1, 64, 128)
    assert g.Ymax >= 20.0
    assert g.Y[0] == 0.0
    # graded toward Y = 0
    dY = np.diff(g.Y)
    assert dY[0] < dY[-1]


def test_field2d_shape_and_nan_guard(channel_48x96):
    with pytest.raises(ValueError):
        Field2D(channel_48x96, np.zeros((3, 3)))


def test_field2d_serialization_roundtrip(tmp_path, channel_48x96):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(channel_48x96.shape)
    f = Field2D(channel_48x96, vals)
    binpath = os.path.join(tmp_path, "f.bin")
    f.to_binary(binpath)
    back = Field2D.read_binary(binpath)
    assert back["values"].shape == tuple(channel_48x96.shape)
    assert np.array_equal(back["values"], vals)
    assert np.array_equal(back["x"], channel_48x96.x)
    with open(binpath, "rb") as fh:
        assert fh.read(4) == b"CHAS"
    csvpath = os.path.join(tmp_path, "f.csv")
    f.to_csv(csvpath)
    with open(csvpath) as fh:
        header = fh.readline().strip()
    assert header == "x,y,value"


# -- difference operators against the one-stencil Fornberg recursion --------

def fornberg_weights(z, x, m):
    """Weights for the m-th derivative at z from nodes x, one stencil at a
    time: the scalar recursion the library's row-vectorized kernel replaced,
    kept as its reference."""
    x = np.asarray(x, dtype=np.longdouble)
    z = np.longdouble(z)
    n = x.size
    w = np.zeros((n, m + 1), dtype=np.longdouble)
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = ((x[i] - z) * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = (x[i] - z) * w[j, 0] / c3
        c1 = c2
    return w[:, m].astype(float)


def _diff_matrix_loop(x, deriv):
    n = x.size
    npts = _NPTS[deriv]
    rows, cols, vals = [], [], []
    for i in range(n):
        lo = min(max(i - npts // 2, 0), n - npts)
        idx = np.arange(lo, lo + npts)
        w = _fix_low_moments(fornberg_weights(x[i], x[idx], deriv),
                             x[idx] - x[i], deriv)
        rows.extend([i] * npts)
        cols.extend(idx)
        vals.extend(w)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _workload_node_sets():
    """The channel x/y of the 48x96 sweep at its five eps and of the 96x192
    oracle, the layer x (60 and 83 nodes) and Y (320 nodes), and a random
    sorted set."""
    sets = []
    for eps in (1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3):
        g = build_channel_grid(0.1, 48, 96, eps)
        sets += [g.x, g.y]
    g = build_channel_grid(0.1, 96, 192, 1e-2)
    sets += [g.x, g.y]
    x_ext = _extended_grid(build_channel_grid(0.1, 48, 96, 1e-2), 1.25).x
    x_layer = _layer_xgrid(x_ext, LAYER_SUB)
    sets += [x_ext, x_layer, HalfLineGrid(0.1, None, 320, x=x_layer).Y]
    sets.append(np.sort(np.random.default_rng(11).uniform(0.0, 3.0, 41)))
    assert [x.size for x in sets[-4:]] == [60, 83, 320, 41]
    return sets


def test_diff_matrix_bit_identical_to_fornberg_loop():
    for x in _workload_node_sets():
        for deriv in (1, 2, 3, 4):
            assert same_arrays(diff_matrix(x, deriv),
                               _diff_matrix_loop(x, deriv)), (x.size, deriv)


def test_one_sided_row_bit_identical_to_fornberg_loop():
    for x in _workload_node_sets():
        for at_start in (True, False):
            for deriv, npts in ((1, 3), (1, 4), (2, 5), (3, 6)):
                idx, w = one_sided_row(x, at_start, deriv, npts)
                z = x[0] if at_start else x[-1]
                ref = _fix_low_moments(fornberg_weights(z, x[idx], deriv),
                                       x[idx] - z, deriv)
                assert w.tobytes() == ref.tobytes(), (x.size, deriv, npts)


def test_diff_matrix_memo_is_sound():
    x = tanh_stretched(0.0, 2.0, 30, 1.3)
    first = diff_matrix(x, 2)
    ref = first.copy()
    first.data[:] = 0.0          # a caller editing its matrix
    assert same_arrays(diff_matrix(x, 2), ref)
    other = tanh_stretched(0.0, 2.0, 30, 0.7)
    assert (diff_matrix(other, 2) != ref).nnz > 0
    assert (diff_matrix(x, 1) != ref).nnz > 0
    assert same_arrays(diff_matrix(x.tolist(), 2), ref)


# -- PCHIP transfers against scipy's PchipInterpolator ----------------------

def _pchip_reference(xs, y, xq, axis=0):
    return PchipInterpolator(xs, y, axis=axis)(xq)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _pchip_cases():
    rng = np.random.default_rng(17)
    xs = np.sort(rng.uniform(0.0, 2.0, 25))
    xq = rng.uniform(-0.3, 2.3, 40)          # ends extrapolate
    y = rng.standard_normal((25, 7))
    # flat runs, exact zeros of both signs and sign changes
    steps = np.where(rng.random((25, 7)) < 0.5, 0.0,
                     rng.integers(-2, 3, (25, 7)).astype(float))
    flat = np.cumsum(steps, axis=0)
    flat[3:6] = 0.0
    flat[10] = -0.0
    at_nodes = np.concatenate([xs, [xs[0], xs[-1], xs[0] - 1.0, xs[-1] + 1.0]])
    few = np.array([0.5 * (xs[11] + xs[12]), xs[12], 0.3 * xs[4] + 0.7 * xs[5]])
    return {
        "random-axis0": (xs, y, xq, 0),
        "random-axis1": (xs, np.ascontiguousarray(y.T), xq, 1),
        "random-1d": (xs, y[:, 2], xq, 0),
        "flat-zeros-signs": (xs, flat, xq, 0),
        "flat-axis1": (xs, np.ascontiguousarray(flat.T), at_nodes, 1),
        "nodes-ends-outside": (xs, y, at_nodes, 0),
        "few-intervals": (xs, y, few, 0),
        "few-intervals-1d": (xs, flat[:, 1], few, 0),
        "first-interval-only": (xs, y, np.array([xs[0], 0.5 * (xs[0] + xs[1])]), 0),
        "last-interval-only": (xs, y, np.array([xs[-1], xs[-1] + 0.1]), 0),
        "three-nodes": (xs[:3], y[:3], xq, 0),
        "3d-axis2": (xs, np.moveaxis(y.reshape(25, 7, 1), 0, 2), xq, 2),
        "no-queries": (xs, y, np.array([]), 0),
    }


@pytest.mark.parametrize("name", sorted(_pchip_cases()))
def test_pchip_operator_bit_identical_to_scipy(name):
    xs, y, xq, axis = _pchip_cases()[name]
    got = pchip_operator(xs, xq)(y, axis=axis)
    assert _same_bits(got, _pchip_reference(xs, y, xq, axis))


def test_pchip_operator_overflowing_secants_match_scipy_silently():
    # secant slopes near 1e-308: w/mk overflows, whmean is inf and the
    # slope 1/inf = 0; scipy warns there, the operator must not
    xs = np.linspace(0.0, 8.0, 9)
    y = np.cumsum(np.full((9, 3), 5e-309), axis=0)
    y[:, 1] *= -1.0
    y[4:, 2] = 1.0
    xq = np.linspace(-0.5, 8.5, 23)
    with pytest.warns(RuntimeWarning, match="overflow"):
        PchipInterpolator(xs, y)(xq)
    with np.errstate(over="ignore"):
        ref = _pchip_reference(xs, y, xq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pchip_operator(xs, xq)(y)
    assert _same_bits(got, ref)


def test_pchip_operator_rejects_bad_nodes():
    xq = np.linspace(0.0, 1.0, 5)
    for xs in ([0.0, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.3, 1.0],
               [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError):
            pchip_operator(xs, xq)
    op = pchip_operator([0.0, 0.5, 1.0], xq)
    with pytest.raises(ValueError):
        op(np.ones(4))
    with pytest.raises(ValueError):
        op(np.array([0.0, np.inf, 1.0]))


def test_pchip_operator_memo_is_sound():
    xs = tanh_stretched(0.0, 2.0, 30, 1.3)
    other = tanh_stretched(0.0, 2.0, 30, 0.7)
    xq = np.linspace(0.0, 2.0, 17)
    y = np.sin(3.0 * xs)
    op = pchip_operator(xs, xq)
    assert pchip_operator(xs.tolist(), xq) is op
    assert pchip_operator(other, xq) is not op
    assert pchip_operator(xs, xq[:-1]) is not op
    assert _same_bits(pchip_operator(other, xq)(y),
                      _pchip_reference(other, y, xq))
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    assert len(arrays) > 10
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


# -- boundary-row replacement against the LIL loop it replaced --------------

def _as_assignments(rows):
    return [(r, cols, vals) for r, (cols, vals) in rows.items()]


def test_replace_rows_matches_lil_on_biharmonic(channel_48x96, ops_48x96):
    rows = _bc_rows(channel_48x96)
    assert same_arrays(replace_rows(ops_48x96.bih, rows),
                       lil_replace_rows(ops_48x96.bih, _as_assignments(rows)))


def test_replace_rows_matches_lil_on_linearized(channel_48x96, ops_48x96):
    g = channel_48x96
    rng = np.random.default_rng(5)
    bg = {k: rng.standard_normal(g.shape)
          for k in ("u_s", "v_s", "us_x", "us_y", "vs_x", "vs_y",
                    "lap_us", "lap_vs")}
    A = assemble_linearized_operator(
        LinearizedProblem(bg, 1e-2, 11.0 / 8.0 + 0.05, grid=g, ops=ops_48x96))
    rows = _bc_rows(g)
    assert same_arrays(replace_rows(A, rows),
                       lil_replace_rows(A, _as_assignments(rows)))


def test_replace_rows_keeps_explicit_zeros():
    A = sp.csr_matrix(np.arange(1.0, 17.0).reshape(4, 4))
    A.data[[1, 6]] = 0.0                   # stored zeros in kept rows
    rows = {2: ([3, 0], [7.0, 0.0])}       # unsorted, with a stored zero
    out = replace_rows(A, rows)
    assert same_arrays(out, lil_replace_rows(A, _as_assignments(rows)))
    assert out.nnz == 14
    assert A.nnz == 16 and A.data[1] == 0.0


# -- nested-dissection LU of the tensor-grid systems -------------------------

@pytest.mark.parametrize("nx, ny, border", [(24, 48, 0), (25, 47, 0),
                                             (9, 96, 0), (60, 96, 0),
                                             (24, 48, 1)])
def test_grid_order_is_a_permutation(nx, ny, border):
    n = nx * ny
    perm = nested_dissection(nx, ny)
    assert np.array_equal(np.sort(perm), np.arange(n))
    A = sp.identity(n + border, format="csc")
    lu = grid_lu(A, nx, ny)
    assert np.array_equal(np.sort(lu.perm), np.arange(n + border))
    assert np.array_equal(lu.perm[n:], np.arange(n, n + border))  # border last
    assert nested_dissection(nx, ny) is perm                       # cached


@pytest.fixture(scope="module")
def grid_systems():
    """name -> (A, nx, ny): the last system of each kind that the library
    factors on a 24x48 grid, caught at its call of ``grid_lu``.  The last
    Newton Jacobian carries the nonlinear terms of a nonzero iterate."""
    import chasflow.euler_correctors as euler
    import chasflow.linearized as linearized
    import chasflow.nonlinear as nonlinear
    from chasflow.expansion import ExpansionConfig, construct_expansion
    from chasflow.nonlinear import build_case_forcing, newton_solve
    from chasflow.profiles import PerturbationSpec, build_profile

    eps, M0 = 1e-2, 11.0 / 8.0 + 0.05
    grid = build_channel_grid(0.1, 24, 48, eps)
    ops = DiffOps(grid.x, grid.y)
    systems = {}

    def catch(name):
        def lu(A, nx, ny):
            systems[name] = (A.tocsc(), nx, ny)
            return grid_lu(A, nx, ny)
        return lu

    pert = PerturbationSpec(0.05, 3.0 / 8.0 + 0.05)
    prof = build_profile("poiseuille_couette", 0.5, 0.5, perturbation=pert,
                         eps=eps)
    exp = construct_expansion(prof, ExpansionConfig(
        eps, case="poiseuille_couette_noforce"), grid)
    forcing = build_case_forcing("poiseuille_couette_noforce", prof, grid, ops,
                                 eps, M0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linearized, "grid_lu", catch("biharmonic"))
        linearized.solve_biharmonic(np.ones(grid.shape), grid, ops)
        mp.setattr(linearized, "grid_lu", catch("linearized"))
        linearized.factorize_linearized(LinearizedProblem(
            exp.fields, eps, M0, grid=grid, ops=ops))
        mp.setattr(nonlinear, "grid_lu", catch("newton"))
        mp.setattr(linearized, "grid_lu", catch("pressure"))
        newton_solve(exp.fields, forcing, eps, M0, grid, ops)
        mp.setattr(euler, "grid_lu", catch("euler"))
        euler.EulerSolver(grid, build_profile("couette", 1.0, 0.0))._factorize(
            "minus")
    return systems


def _backward_error(A, x, b):
    """Normwise backward error |Ax - b| / (|A| |x| + |b|), infinity norms."""
    return (np.abs(A @ x - b).max()
            / (abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()))


@pytest.mark.parametrize("name", ["biharmonic", "linearized", "newton",
                                  "euler", "pressure"])
def test_grid_lu_matches_colamd(grid_systems, name):
    A, nx, ny = grid_systems[name]
    assert A.shape[0] == nx * ny + (name == "pressure")
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    x = grid_lu(A, nx, ny).solve(b)
    x_ref = spla.splu(A).solve(b)
    err, err_ref = _backward_error(A, x, b), _backward_error(A, x_ref, b)
    assert err <= 10.0 * err_ref, (err, err_ref)
    # both are backward stable, so they differ by at most the condition
    # number times their backward errors
    kappa = np.linalg.cond(A.toarray(), np.inf)
    gap = np.abs(x - x_ref).max() / np.abs(x_ref).max()
    assert gap <= 4.0 * kappa * (err + err_ref), (gap, kappa)
