import logging
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import PchipInterpolator

from chasflow import discretization
from chasflow.discretization import (_NPTS, ChannelGrid, DiffOps, Field2D,
                                     GridResolutionError, GridSolveError,
                                     ND_LEAF, ND_SEPARATOR,
                                     HalfLineGrid, LineModes,
                                     _fix_low_moments,
                                     _fornberg_rows, boundary_rows,
                                     build_channel_grid,
                                     diff_matrix, line_modes,
                                     nested_dissection,
                                     one_sided_row, pchip_operator,
                                     tanh_stretched)
from chasflow.expansion import LAYER_SUB, _extended_grid, _layer_xgrid
from chasflow.linearized import (PSI_WALLS, LinearizedProblem, psi_operator,
                                 psi_system)
import conftest
from conftest import (assemble_linearized_operator, assemble_reference,
                      grid_lu, grid_system, kron, lil_replace_rows, make_grid,
                      mms_convergence, same_arrays, scale_rows, sorted_columns)


def test_build_channel_grid_resolves_layers():
    g = build_channel_grid(0.1, 32, 64, 1e-2)
    target = 0.5 * min(1e-2 ** (1 / 3), 1e-2 ** 0.5)
    lo, hi = g.wall_spacing()
    assert lo <= target and hi <= target
    assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(0.1)
    assert g.y[0] == 0.0 and g.y[-1] == pytest.approx(2.0)
    assert np.all(np.diff(g.x) > 0) and np.all(np.diff(g.y) > 0)


def test_build_channel_grid_uniform_when_eps_large():
    g = build_channel_grid(0.1, 16, 256, 0.5)
    assert g.sigma == 0.0
    assert np.allclose(np.diff(g.y), np.diff(g.y)[0])


def test_build_channel_grid_unresolvable():
    with pytest.raises(GridResolutionError):
        build_channel_grid(0.1, 32, 16, 1e-6)


def test_operators_annihilate_constants(ops_48x96):
    one = np.ones((48, 96))
    assert np.abs(ops_48x96.apply("Dx", one)).max() < 1e-12
    # the h^-2 weight amplification makes the absolute linear-annihilation
    # bound an O(1)-spacing statement; roundoff floor ~ ulp(h^-2)
    x = np.linspace(0.0, 2.0, 20)
    y = tanh_stretched(0.0, 2.0, 24, 1.0)
    ops = DiffOps(x, y)
    lin = x[:, None] + 2.0 * y[None, :]
    assert np.abs(ops.apply("lap", lin + 0.0)).max() < 1e-10


def test_biharmonic_exact_on_cubics():
    # exactness is a property of the stencil weights; measured on an O(1)
    # grid where the h^-4 roundoff amplification is benign
    x = np.linspace(0.0, 2.0, 11)
    y = np.linspace(0.0, 2.0, 12)
    ops = DiffOps(x, y)
    XX, YY = np.meshgrid(x, y, indexing="ij")
    cub = XX ** 3 + YY ** 3 + XX * YY ** 2 + XX ** 2 * YY
    assert np.abs(kron(ops, "bih") @ cub.ravel()).max() < 1e-9


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
        err = np.abs(ops.apply("lap", f) - exact).max() / np.abs(exact).max()
        return 1.0 / n, err

    slope, _, errs = mms_convergence(level, [16, 32, 64])
    assert slope == pytest.approx(2.0, abs=0.6)
    assert errs[-1] < errs[0]


def test_mms_dx_constant_zero():
    for n in (16, 32):
        g = make_grid(n)
        ops = DiffOps(g.x, g.y)
        assert np.abs(ops.apply("Dx", np.ones(g.shape))).max() < 1e-12


def test_refinement_never_degrades():
    # refining the grid must not increase the operator MMS error by > 5%
    L = 0.1
    errs = []
    for n in (16, 32, 64):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        f = np.sin(np.pi * g.XX / L) * np.sin(np.pi * g.YY / 2)
        exact = -((np.pi / L) ** 2 + (np.pi / 2) ** 2) * f
        errs.append(np.abs(ops.apply("lap", f) - exact).max())
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
        lhs = abs(ops.integrate(ops.apply("Dx", f) * h)
                  + ops.integrate(f * ops.apply("Dx", h)))
        rel = lhs / (ops.norm(f, "L2") * ops.norm(h, "L2"))
        assert rel <= 1e-2 * (g.x[1] - g.x[0]) ** 2


def test_halfline_grid_defaults():
    g = HalfLineGrid(0.1, 64, 128)
    assert g.Ymax >= 20.0
    assert g.Y[0] == 0.0
    # graded toward Y = 0
    dY = np.diff(g.Y)
    assert dY[0] < dY[-1]


def test_halfline_grid_rejects_short_ymax():
    with pytest.raises(ValueError, match="Ymax"):
        HalfLineGrid(0.1, 64, 128, Ymax=19.5)
    # the check reads the grid's own Ymax, given nodes included
    with pytest.raises(ValueError, match="Ymax"):
        HalfLineGrid(0.1, 11, None, Y=np.linspace(0.0, 10.0, 5))


def test_halfline_grid_rejects_replaced_inputs():
    x, Y = 0.1 * np.linspace(0.0, 1.0, 11) ** 2, np.linspace(0.0, 30.0, 31)
    g = HalfLineGrid(0.1, None, None, Ymax=30.0, x=x, Y=Y)
    assert (g.nx, g.nY, g.Ymax) == (11, 31, 30.0)
    for args, kwargs in (((0.1, 11, None), {"x": x, "Y": Y}),
                         ((0.2, None, None), {"x": x, "Y": Y}),
                         ((0.1, None, 31), {"x": x, "Y": Y}),
                         ((0.1, 11, 31), {"Ymax": 50.0,
                                          "Y": np.linspace(0.0, 10.0, 5)}),
                         ((0.1, None, None), {"Ymax": 50.0, "x": x, "Y": Y})):
        with pytest.raises(ValueError, match="replace"):
            HalfLineGrid(*args, **kwargs)


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


def _fix_row(w, d, deriv):
    """The one-row moment fix that ``_fix_low_moments`` runs on all rows at
    once, kept as its reference: zero the 0th/1st moment defects of w by
    adjusting its two largest weights, then an exact-sum pass."""
    t1 = 1.0 if deriv == 1 else 0.0
    a, b = np.argsort(np.abs(w))[-2:]
    r0 = w.sum()
    r1 = float(w @ d) - t1
    det = d[b] - d[a]
    if det == 0.0:
        w[a] -= r0
        return w
    db = (r0 * d[a] - r1) / det
    w[a] += -r0 - db
    w[b] += db
    w[a] -= math.fsum(w)
    return w


def _diff_matrix_loop(x, deriv):
    n = x.size
    npts = _NPTS[deriv]
    rows, cols, vals = [], [], []
    for i in range(n):
        lo = min(max(i - npts // 2, 0), n - npts)
        idx = np.arange(lo, lo + npts)
        w = _fix_row(fornberg_weights(x[i], x[idx], deriv), x[idx] - x[i],
                     deriv)
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
    sets += [x_ext, x_layer, HalfLineGrid(x_layer[-1], None, 320, x=x_layer).Y]
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
                ref = _fix_row(fornberg_weights(z, x[idx], deriv),
                               x[idx] - z, deriv)
                assert w.tobytes() == ref.tobytes(), (x.size, deriv, npts)


def _moment_fix_grids():
    """A uniform grid, tanh-stretched grids at sigma 1.06 and 2.07, the
    extended-strip x grid and the 320-node layer Y."""
    x_ext = _extended_grid(build_channel_grid(0.1, 48, 96, 1e-2), 1.25).x
    x_layer = _layer_xgrid(x_ext, LAYER_SUB)
    return {"uniform": np.linspace(0.0, 2.0, 96),
            "tanh_1.06": tanh_stretched(0.0, 2.0, 96, 1.06),
            "tanh_2.07": tanh_stretched(0.0, 2.0, 96, 2.07),
            "extended_x": x_ext,
            "layer_Y": HalfLineGrid(x_layer[-1], None, 320, x=x_layer).Y}


@pytest.mark.parametrize("deriv", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", sorted(_moment_fix_grids()))
def test_moment_fix_rows_match_the_per_row_fix(grid, deriv):
    x = _moment_fix_grids()[grid]
    npts = _NPTS[deriv]
    lo = np.clip(np.arange(x.size) - npts // 2, 0, x.size - npts)
    nodes = x[lo[:, None] + np.arange(npts)]
    W, D = _fornberg_rows(x, nodes, deriv), nodes - x[:, None]
    ref = W.copy()
    for w, d in zip(ref, D):
        _fix_row(w, d, deriv)
    out = _fix_low_moments(W, D, deriv)
    assert out is W
    assert out.tobytes() == ref.tobytes()


def test_moment_fix_rows_take_the_flat_branch():
    # the two largest |w| of rows 0 and 2 sit at equal offsets (det == 0),
    # so only w[a] -= sum(w) is applied there; row 1 takes the full fix
    W = np.array([[0.1, 2.0, 3.0], [1.0, -2.5, 1.0], [0.5, 4.0, -4.0]])
    D = np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-0.5, 0.25, 0.25]])
    for deriv in (1, 2):
        ref = W.copy()
        for w, d in zip(ref, D):
            _fix_row(w, d, deriv)
        assert _fix_low_moments(W.copy(), D, deriv).tobytes() == ref.tobytes()
        assert ref[0].tolist() == [0.1, 2.0 - (0.1 + 2.0 + 3.0), 3.0]
        assert ref[2].sum() == 0.0 and ref[2, 0] == 0.5
        assert ref[1].tolist() != W[1].tolist()


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


# -- DiffOps along the grid axes against the Kronecker CSR matvec -----------

AXIS_OPS = ("Dx", "Dy", "Dxx", "Dyy", "Dxy", "lap", "Dxxx", "Dxxy", "Dxyy",
            "Dyyy")


def _kron_reference(x, y, op):
    """The Kronecker CSR matrix of op as DiffOps built it before it applied
    its operators along the grid axes: the reference for ``apply`` (as
    ``kron(op) @ f.ravel()``) and for ``kron``."""
    Ix = sp.identity(x.size, format="csr")
    Iy = sp.identity(y.size, format="csr")
    if op == "lap":
        return (sp.kron(diff_matrix(x, 2), Iy, format="csr")
                + sp.kron(Ix, diff_matrix(y, 2), format="csr")).tocsr()
    if op == "bih":
        return (sp.kron(diff_matrix(x, 4), Iy)
                + 2.0 * sp.kron(diff_matrix(x, 2), diff_matrix(y, 2))
                + sp.kron(Ix, diff_matrix(y, 4))).tocsr()
    kx, ky = op.count("x"), op.count("y")
    return sp.kron(diff_matrix(x, kx) if kx else Ix,
                   diff_matrix(y, ky) if ky else Iy, format="csr")


def _axis_grids():
    """A tanh-stretched channel grid and the extended corrector strip on it
    (uniform x, longer than the channel)."""
    g = build_channel_grid(0.1, 24, 48, 1e-3)
    return {"stretched": g, "extended_strip": _extended_grid(g, 1.5)}


@pytest.mark.parametrize("grid_name", ["stretched", "extended_strip"])
def test_apply_along_axes_is_the_kronecker_matvec(grid_name):
    g = _axis_grids()[grid_name]
    ops = DiffOps(g.x, g.y)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(g.shape)
    f[rng.random(g.shape) < 0.2] = -0.0       # signed zeros among the data
    f[3] = 0.0                                 # exact-zero node lines
    f[:, 5] = -0.0
    f[7] = -0.0
    cases = (f, f.ravel(), np.zeros(g.shape), -np.zeros(g.shape))
    corners = [0, g.shape[0] // 2 * g.shape[1] + g.shape[1] // 2, f.size - 1]
    for op in AXIS_OPS:
        K = _kron_reference(g.x, g.y, op)
        # zeros signed so that every product of three rows is -0.0: a sum
        # from 0.0 gives +0.0 there, one from the first product -0.0
        signed = np.zeros(f.size)
        for r in corners:
            cols = K.indices[K.indptr[r]:K.indptr[r + 1]]
            signed[cols] = np.copysign(0.0, -K.data[K.indptr[r]:K.indptr[r + 1]])
        assert not np.signbit((K @ signed)[corners]).any()
        for data in cases + (signed,):
            ref = (K @ data.ravel()).reshape(g.shape)
            out = ops.apply(op, data)
            assert out.shape == g.shape and out.flags.c_contiguous, op
            assert out.tobytes() == ref.tobytes(), op
        if op != "lap":
            assert same_arrays(kron(ops, op), K), op
    assert same_arrays(kron(ops, "bih"), _kron_reference(g.x, g.y, "bih"))
    assert same_arrays(ops.lap, _kron_reference(g.x, g.y, "lap"))


def test_diff_ops_refuse_an_unknown_operator(ops_48x96):
    f = np.zeros((48, 96))
    for op in ("D", "Dxxxx", "Dyx", "dx", "Dxq", "lap "):
        with pytest.raises(ValueError, match="unknown operator"):
            ops_48x96.apply(op, f)
    for op in ("lap", "Dyyyy", "Dz"):
        with pytest.raises(ValueError, match="unknown operator"):
            kron(ops_48x96, op)


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
    # the Euler convection transfer from channel to layer x: 59 of its 83
    # queries are channel nodes
    x_ext = (0.1 / 47) * np.arange(60)
    signed = flat.copy()
    signed[7] = -0.0                    # -0.0 + 0.0 is +0.0, at a node too
    return {
        "layer-x-transfer": (x_ext, rng.standard_normal((60, 5)),
                             _layer_xgrid(x_ext, LAYER_SUB), 0),
        "every-query-on-a-node": (xs, y, xs[[3, 0, 7, 7, 23, 12]], 0),
        "last-node-is-cubic": (xs, y, xs[[-1, 5, -1, -2]], 0),
        "signed-zeros-flat-at-nodes": (xs, signed, xs[:-1], 0),
        "signed-zeros-flat-at-nodes-axis1": (xs, np.ascontiguousarray(signed.T),
                                             xs[[0, 3, 4, 5, 7, 10, 11]], 1),
        # past the operator's bound on max|y|: every query is a cubic row
        "data-past-the-bound": (np.arange(9.0), 1e306 * np.cos(np.arange(9.0)),
                                np.linspace(-0.5, 8.5, 37), 0),
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


def test_pchip_operator_answers_node_queries_from_the_node():
    # the layer-x transfer: only the 23 graded first-cell queries and the
    # last node (evaluated at s = h) are cubic rows
    x_ext = _extended_grid(build_channel_grid(0.1, 48, 96, 1e-2), 1.25).x
    xq = _layer_xgrid(x_ext, LAYER_SUB)
    rows = np.arange(xq.size)[pchip_operator(x_ext, xq).rows]
    assert (xq.size, rows.size) == (83, 24)
    assert rows.tolist() == list(range(1, 24)) + [82]
    xs, y, xq, _ = _pchip_cases()["every-query-on-a-node"]
    assert np.arange(xq.size)[pchip_operator(xs, xq).rows].size == 0
    xs, y, xq, _ = _pchip_cases()["data-past-the-bound"]
    assert not np.abs(y).max() < pchip_operator(xs, xq).ymax


def test_pchip_operator_nodes_1e_160_apart_give_scipys_nan():
    # h^2 underflows, so scipy's c0 overflows and even its node queries read
    # NaN: no node query is answered from the node here.  Scipy and the
    # operator both overflow, so both run with that warning silenced
    xs = 1e-160 * np.arange(9.0)
    y = np.cos(np.arange(9.0))
    xq = np.concatenate([xs, 0.5e-160 + xs])
    op = pchip_operator(xs, xq)
    assert op.ymax == 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _pchip_reference(xs, y, xq)
        got = op(y)
    assert np.isnan(ref).all() and _same_bits(got, ref)


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


def _same_rows(rows, expect):
    """Equal row dicts: the same rows, each with the same columns in the
    same order and bit-identical weights."""
    return rows.keys() == expect.keys() and all(
        list(rows[r][0]) == list(cols)
        and np.asarray(rows[r][1], dtype=float).tobytes()
        == np.asarray(vals, dtype=float).tobytes()
        for r, (cols, vals) in expect.items())


def test_boundary_rows_on_a_small_grid():
    x = np.array([0.0, 0.1, 0.25, 0.45, 0.7])
    y = np.array([0.0, 0.3, 0.5, 0.9, 1.2])
    nx, ny = x.size, y.size

    def nd(i, j):
        return i * ny + j

    rows = boundary_rows(x, y, [
        (1, True, 0, 1, 0, slice(None)),      # f = 0 on y = 0
        (1, False, 1, 3, 0, slice(None)),     # f_y = 0 on the top wall
        (1, True, 1, 3, 1, [2]),              # f_y = 0 at y = 0, in row 1
        (0, True, 2, 4, 1, slice(1, -1)),     # f_xx = 0 at x = 0, in column 1
        (0, False, 1, 3, 0, slice(1, -1)),    # f_x = 0 on the last column
        (0, True, 1, 3, 0, slice(None))])     # f_x = 0 on x = 0, corners too
    iy0, wy0 = one_sided_row(y, True, 1, 3)
    iyL, wyL = one_sided_row(y, False, 1, 3)
    ix0, wx0 = one_sided_row(x, True, 1, 3)
    ixx, wxx = one_sided_row(x, True, 2, 4)
    ixL, wxL = one_sided_row(x, False, 1, 3)
    expect = {}
    for i in range(nx):
        expect[nd(i, 0)] = ([nd(i, 0)], [1.0])
        expect[nd(i, ny - 1)] = ([nd(i, k) for k in iyL], wyL)
    expect[nd(2, 1)] = ([nd(2, k) for k in iy0], wy0)
    for j in range(1, ny - 1):
        expect[nd(1, j)] = ([nd(k, j) for k in ixx], wxx)
        expect[nd(nx - 1, j)] = ([nd(k, j) for k in ixL], wxL)
    for j in range(ny):
        expect[nd(0, j)] = ([nd(k, j) for k in ix0], wx0)
    assert _same_rows(rows, expect)


def _psi_rows_loop(grid):
    """The psi rows as the per-node loop that ``PSI_WALLS`` replaced set
    them."""
    nx, ny = grid.nx, grid.ny
    rows = {}

    def nd(i, j):
        return i * ny + j

    ixx, wxx = one_sided_row(grid.x, True, 2, 5)
    ixxx, wxxx = one_sided_row(grid.x, False, 3, 6)
    ix1, wx1 = one_sided_row(grid.x, False, 1, 4)
    iy0, wy0 = one_sided_row(grid.y, True, 1, 3)
    iy2, wy2 = one_sided_row(grid.y, False, 1, 3)
    for i in range(nx):
        for j in (0, ny - 1):
            rows[nd(i, j)] = ([nd(i, j)], [1.0])
    for j in range(ny):
        rows[nd(0, j)] = ([nd(0, j)], [1.0])
    for j in range(1, ny - 1):
        rows[nd(nx - 1, j)] = ([nd(k, j) for k in ix1], list(wx1))
    for j in range(1, ny - 1):
        rows[nd(1, j)] = ([nd(k, j) for k in ixx], list(wxx))
        rows[nd(nx - 2, j)] = ([nd(k, j) for k in ixxx], list(wxxx))
    for i in range(2, nx - 2):
        rows[nd(i, 1)] = ([nd(i, k) for k in iy0], list(wy0))
        rows[nd(i, ny - 2)] = ([nd(i, k) for k in iy2], list(wy2))
    return rows


@pytest.mark.parametrize("nx, ny", [(48, 96), (33, 57)])
def test_psi_rows_match_node_loop(nx, ny):
    g = build_channel_grid(0.1, nx, ny, 1e-2)
    loop = _psi_rows_loop(g)
    assert _same_rows(boundary_rows(g.x, g.y, PSI_WALLS), loop)
    bih = kron(DiffOps(g.x, g.y), "bih")
    system = grid_system(bih, g)
    assert sorted(system.bnd) == sorted(loop)
    assert same_arrays(system.A,
                       lil_replace_rows(bih, _as_assignments(loop)).tocsr())


def _old_grid_system(A, grid, rows):
    """What ``GridSystem`` formed through COO and CSC, the reference: A with
    the boundary rows set through LIL (array for array the deleted
    ``replace_rows``), the row scale d, and the ND-ordered, row-scaled CSC
    that SuperLU factors, from ``diag(1/d) @ A`` by way of COO."""
    A = lil_replace_rows(A, _as_assignments(rows))
    d = abs(A).max(axis=1).toarray().ravel()
    d[d == 0.0] = 1.0
    S = (sp.diags(1.0 / d) @ A).tocsc().tocoo()
    perm = nested_dissection(grid.nx, grid.ny)
    rank = np.empty(perm.size, dtype=np.int64)
    rank[perm] = np.arange(perm.size)
    B = sp.csc_matrix((S.data, (rank[S.row], rank[S.col])), shape=S.shape)
    return A, d, B


def _catch_splu(monkeypatch):
    """Copies of the matrices that SuperLU factors from now on."""
    caught, splu = [], spla.splu

    def catch(B, **options):
        caught.append(B.copy())
        return splu(B, **options)

    monkeypatch.setattr(spla, "splu", catch)
    return caught


@pytest.fixture(scope="module")
def psi_problems(channel_48x96, ops_48x96):
    """name -> LinearizedProblem: a random background on the 48x96 grid, a
    24x48 couette point (S present) and a case-(i) point (a pure shear, no
    S)."""
    from chasflow.expansion import construct_expansion
    from conftest import point_spec

    rng = np.random.default_rng(5)
    bg = {k: rng.standard_normal(channel_48x96.shape)
          for k in ("u_s", "v_s", "us_x", "us_y", "vs_x", "vs_y",
                    "lap_us", "lap_vs")}
    out = {"random_background": LinearizedProblem(
        bg, 1e-2, 11.0 / 8.0 + 0.05, grid=channel_48x96, ops=ops_48x96)}
    for name, case, settings in (
            ("couette", "couette_noforce", {"pert_amplitude": 0.05}),
            ("case_i", "poiseuille_couette_noforce",
             {"kind": "poiseuille_couette", "alpha1": 0.5, "alpha2": 0.5,
              "pert_amplitude": 0.05, "pert_exponent": 0.425})):
        exp = construct_expansion(point_spec(case, 24, 48, **settings), 1e-2)
        out[name] = LinearizedProblem(exp.fields, exp.eps, exp.M0,
                                      grid=exp.grid, ops=exp.ops)
    return out


@pytest.fixture(scope="module")
def psi_operators(psi_problems, channel_48x96, ops_48x96):
    """name -> (operator, grid): the 48x96 biharmonic and the linearized
    operators of ``psi_problems`` (the couette one with S terms, columns
    unsorted)."""
    out = {"biharmonic": (kron(ops_48x96, "bih"), channel_48x96)}
    for name, problem in psi_problems.items():
        out[name] = (assemble_linearized_operator(problem), problem.grid)
    return out


@pytest.mark.parametrize("name", ["biharmonic", "random_background",
                                  "couette", "case_i"])
def test_grid_system_matches_the_old_path(psi_operators, name, monkeypatch):
    A, grid = psi_operators[name]
    if name == "couette":
        assert not A.has_sorted_indices
    before = A.copy()
    caught = _catch_splu(monkeypatch)
    system = grid_system(A, grid)
    system.lu                                    # factored at its first use
    assert same_arrays(A, before)
    # (tolil sorts its input's columns in place)
    ref_A, ref_d, ref_B = _old_grid_system(
        A.copy(), grid, boundary_rows(grid.x, grid.y, PSI_WALLS))
    assert len(caught) == 1 and same_arrays(caught[0], ref_B)
    assert system.d.tobytes() == ref_d.tobytes()
    assert same_arrays(system.A, ref_A.tocsr())
    # sorted columns: each row of A @ p adds its terms as the CSC product did
    p = np.random.default_rng(2).standard_normal(A.shape[0])
    assert (system.A @ p).tobytes() == (ref_A @ p).tobytes()


@pytest.mark.parametrize("name", ["random_background", "couette", "case_i"])
def test_assembly_matches_the_sparse_algebra(psi_problems, name, monkeypatch):
    # row scalings in place of diagonal products, and no S for a pure shear
    problem = psi_problems[name]
    asked = []
    monkeypatch.setattr(conftest, "kron",
                        lambda ops, op: asked.append(op) or kron(ops, op))
    A = assemble_linearized_operator(problem)
    monkeypatch.undo()
    ref = assemble_reference(problem)
    assert same_arrays(sorted_columns(A), sorted_columns(ref))
    assert np.count_nonzero(A.data == 0.0) == 0
    shear = not any(np.any(problem.bg[k]) for k in ("v_s", "us_x", "vs_x"))
    assert shear == (name == "case_i")
    assert ("Dy" in asked) == ("Dyy" in asked) == (not shear)


@pytest.mark.parametrize("name", ["couette", "case_i"])
def test_superlu_gets_the_sparse_algebra_csc(psi_problems, name, monkeypatch):
    # the CSC SuperLU factors, A and d, as the products diag(1/d) @ A of the
    # sparse-algebra operator gave them
    problem = psi_problems[name]
    grid = problem.grid
    caught = _catch_splu(monkeypatch)
    system = psi_system(problem)
    system.lu                                    # factored at its first use
    ref = grid_system(assemble_reference(problem), grid)
    grid_lu(sp.diags(1.0 / ref.d) @ ref.A, grid.nx, grid.ny)
    assert len(caught) == 2 and same_arrays(caught[0], caught[1])
    assert same_arrays(psi_operator(problem), ref.A)
    assert system.d.tobytes() == ref.d.tobytes()


def test_scale_rows_is_the_diagonal_product():
    # signed and exact zeros in the scale and stored zeros in the matrix:
    # the product drops every entry that scales to a zero, and keeps the
    # matrix's column order
    rng = np.random.default_rng(4)
    M = sp.csr_matrix(np.where(rng.random((40, 40)) < 0.2,
                               rng.standard_normal((40, 40)), 0.0))
    M.data[::7] = 0.0
    M.data[1::9] *= -1.0
    c = rng.standard_normal(40)
    c[[3, 11, 12]] = [0.0, -0.0, 0.0]
    out = scale_rows(c, M)
    assert same_arrays(sorted_columns(out), sorted_columns(sp.diags(c) @ M))
    assert np.count_nonzero(out.data == 0.0) == 0 and out.has_sorted_indices
    assert out.indptr[4] == out.indptr[3] and out.indptr[13] == out.indptr[11]
    # non-finite entries: a zero scale still empties its row, as the product
    # does, and any other scale carries the inf or nan through
    for r, bad in ((3, np.inf), (11, np.nan), (5, -np.inf), (6, np.nan)):
        M.data[M.indptr[r]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = scale_rows(c, M)
    ref = sp.diags(c) @ M
    assert same_arrays(sorted_columns(out), sorted_columns(ref))
    assert out.indptr[4] == out.indptr[3] and out.indptr[12] == out.indptr[11]
    assert np.isinf(out[5].data).any() and np.isnan(out[6].data).any()


def test_lil_replace_rows_leaves_its_input_alone(psi_operators):
    # the reference works on a copy: a CSR input keeps its unsorted columns
    A, grid = psi_operators["couette"]
    before = A.copy()
    rows = boundary_rows(grid.x, grid.y, PSI_WALLS)
    out = lil_replace_rows(A, _as_assignments(rows))
    assert same_arrays(A, before) and not A.has_sorted_indices
    assert out.has_sorted_indices


def test_grid_system_keeps_explicit_zeros(monkeypatch):
    # stored zeros in two kept rows, and one in a boundary row given with
    # its columns out of order, stay in A (its columns sorted); the
    # row-scaled factor input drops them, as the product diag(1/d) @ A did
    g = make_grid(8, L=0.1)
    A = kron(DiffOps(g.x, g.y), "bih")
    for r in (4 * g.ny + 4, 8 * g.ny + 3):
        A.data[A.indptr[r]:A.indptr[r] + 2] = 0.0
    rows = boundary_rows(g.x, g.y, PSI_WALLS)
    cols, vals = rows[g.ny + 4]          # nodes (0..4, 4); add (6, 4)
    rows[g.ny + 4] = (np.r_[cols[::-1], 6 * g.ny + 4],
                      np.r_[vals[::-1], 0.0])
    monkeypatch.setattr(conftest, "boundary_rows", lambda *_: rows)
    before = A.copy()
    caught = _catch_splu(monkeypatch)
    system = grid_system(A, g)
    system.lu                                    # factored at its first use
    assert same_arrays(A, before)
    ref_A, ref_d, ref_B = _old_grid_system(A, g, rows)
    assert same_arrays(system.A, ref_A.tocsr())
    assert np.count_nonzero(system.A.data == 0.0) == 5
    assert same_arrays(caught[0], ref_B) and caught[0].nnz == system.A.nnz - 5


def test_line_modes_memo_is_sound(monkeypatch):
    x = tanh_stretched(0.0, 2.0, 30, 1.3)
    d2 = diff_matrix(x, 2)
    first = line_modes(x, d2, (1, 1), 0.0)
    # equal inputs (w as a scalar or its array) get the same read-only object
    assert line_modes(x.copy(), diff_matrix(x, 2), (1, 1), np.zeros(28)) \
        is first
    for a in (first.P, first.Q, first.G, first.lam, first.R, first.Rinv):
        assert not a.flags.writeable
    fresh = LineModes(x, d2, (1, 1), 0.0)
    for name in ("P", "Q", "G", "lam", "R", "Rinv"):
        assert getattr(first, name).tobytes() == getattr(fresh, name).tobytes()
    # every input is in the key: ends, w, d2's values and their stored order
    reordered = d2.copy()
    for r in range(x.size):
        seg = slice(reordered.indptr[r], reordered.indptr[r + 1])
        reordered.indices[seg] = reordered.indices[seg][::-1]
        reordered.data[seg] = reordered.data[seg][::-1]
    assert (reordered != d2).nnz == 0
    for other in (line_modes(x, d2, (1, 0), 0.0),
                  line_modes(x, d2, (1, 1), 1.0),
                  line_modes(x, 2.0 * d2, (1, 1), 0.0),
                  line_modes(x, reordered, (1, 1), 0.0)):
        assert other is not first
    # and so is the condition limit that the build checks against
    monkeypatch.setattr(discretization, "EIG_COND_LIMIT", 0.5)
    with pytest.raises(GridSolveError, match="condition number"):
        line_modes(x, d2, (1, 1), 0.0)


# -- nested-dissection LU of the tensor-grid systems -------------------------

@pytest.mark.parametrize("nx, ny", [(24, 48), (25, 47), (9, 96), (60, 96),
                                    (4, 9), (5, 6)])
def test_grid_order_is_a_permutation(nx, ny):
    # (4, 9) has no interior inside the frame, (5, 6) one of 1 x 2 nodes
    n = nx * ny
    perm = nested_dissection(nx, ny)
    assert np.array_equal(np.sort(perm), np.arange(n))
    lu = grid_lu(sp.identity(n, format="csc"), nx, ny)
    assert np.array_equal(np.sort(lu.perm), np.arange(n))
    assert nested_dissection(nx, ny) is perm                       # cached
    assert not perm.flags.writeable


@pytest.mark.parametrize("nx, ny", [(24, 48), (25, 47), (9, 96), (8, 12)])
def test_grid_order_takes_the_psi_wall_rows_first(nx, ny):
    # the frame of ND_FRAME node lines at each wall is the set of the psi
    # system's wall rows, and comes first, in C order
    g = ChannelGrid(0.1, np.linspace(0.0, 0.1, nx),
                    tanh_stretched(0.0, 2.0, ny, 1.2))
    bnd = np.fromiter(boundary_rows(g.x, g.y, PSI_WALLS), int)
    perm = nested_dissection(nx, ny)
    frame = perm[:bnd.size]
    assert set(frame.tolist()) == set(bnd.tolist())
    assert np.all(np.diff(frame) > 0)


@pytest.mark.parametrize("nx, ny", [(12, 8), (8, 12), (8, 8)])
def test_a_leaf_runs_along_its_shorter_side(nx, ny):
    # each interior is one leaf: 8 x 4, 4 x 8 and 4 x 4 nodes
    node = np.arange(nx * ny).reshape(nx, ny)[2:-2, 2:-2]
    leaf = nested_dissection(nx, ny)[-node.size:]
    expect = node.T.ravel() if nx < ny else node.ravel()
    assert np.array_equal(leaf, expect)


@pytest.fixture(scope="module")
def grid_systems():
    """name -> (A, nx, ny): each kind of system that the library factors on
    a 24x48 grid, caught where ``GridSystem`` makes its ``GridLU`` and put
    back in node order: the reference biharmonic system, then Picard's
    linearized psi system.  Newton factors
    nothing and applies its Jacobian without assembling it: its row-scaled
    Jacobian at its last iterate, which carries the nonlinear terms of a
    nonzero psi, is assembled by the reference ``newton_jacobian``.  The
    Euler corrector and pressure systems are solved without a grid LU."""
    import chasflow.discretization as discretization
    from chasflow.expansion import construct_expansion
    from chasflow.nonlinear import build_case_forcing, newton_solve, picard_solve
    from conftest import newton_jacobian, point_spec

    exp = construct_expansion(
        point_spec("poiseuille_couette_noforce", 24, 48,
                   kind="poiseuille_couette", alpha1=0.5, alpha2=0.5,
                   pert_amplitude=0.05, pert_exponent=3.0 / 8.0 + 0.05), 1e-2)
    grid = exp.grid
    caught, GridLU = [], discretization.GridLU

    def lu(B, nx, ny):
        rank = np.argsort(nested_dissection(nx, ny))
        caught.append((B[rank][:, rank].tocsc(), nx, ny))
        return GridLU(B, nx, ny)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discretization, "GridLU", lu)
        grid_system(kron(exp.ops, "bih"), grid).lu
        sol, _ = picard_solve(exp, build_case_forcing(exp))
        newton = newton_solve(sol.problem)
    assert len(caught) == 2
    systems = dict(zip(("biharmonic", "linearized"), caught))
    # Newton's last Jacobian is the one at the root it returns
    systems["newton"] = (newton_jacobian(sol.problem, newton.u,
                                         newton.v).tocsc(), grid.nx, grid.ny)
    return systems


def _backward_error(A, x, b):
    """Normwise backward error |Ax - b| / (|A| |x| + |b|), infinity norms."""
    return (np.abs(A @ x - b).max()
            / (abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()))


@pytest.mark.parametrize("name", ["biharmonic", "linearized", "newton"])
def test_grid_lu_matches_colamd(grid_systems, name):
    A, nx, ny = grid_systems[name]
    assert A.shape[0] == nx * ny
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


def _plain_dissection(nx, ny):
    """The order before the wall-row frame came first, the reference:
    geometric nested dissection of the whole grid, every block in C order."""
    parts = []

    def order(block):
        ni, nj = block.shape
        if ni * nj <= ND_LEAF:
            parts.append(block.ravel())
            return
        axis = 0 if ni >= nj else 1
        mid = (block.shape[axis] - ND_SEPARATOR) // 2
        low, separator, high = np.split(block, [mid, mid + ND_SEPARATOR],
                                        axis=axis)
        order(low)
        order(high)
        parts.append(separator.ravel())

    order(np.arange(nx * ny).reshape(nx, ny))
    return np.concatenate(parts)


def _fill(lu):
    """Nonzeros of L and U, the unit diagonal of L not counted."""
    return lu._lu.L.nnz - lu.perm.size + lu._lu.U.nnz


@pytest.mark.parametrize("name", ["biharmonic", "linearized", "newton"])
def test_the_frame_first_cuts_the_fill(grid_systems, name, monkeypatch):
    # at 24x48 the linearized system's L+U went 147k -> 109k, and the
    # backward errors of a random right-hand side stayed alike
    A, nx, ny = grid_systems[name]
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    lu = grid_lu(A, nx, ny)
    monkeypatch.setattr(discretization, "nested_dissection", _plain_dissection)
    ref = grid_lu(A, nx, ny)
    assert _fill(lu) < _fill(ref), (_fill(lu), _fill(ref))
    err = _backward_error(A, lu.solve(b), b)
    err_ref = _backward_error(A, ref.solve(b), b)
    assert err <= 4.0 * err_ref, (err, err_ref)


# -- the psi grid system -----------------------------------------------------

def test_grid_system_scales_grid_rows_only():
    # d is each grid row's largest |entry|, and only the rows are scaled:
    # the solve returns the unknowns of the unscaled system A x = b
    g = make_grid(12, L=0.1)
    system = grid_system(kron(DiffOps(g.x, g.y), "bih"), g)
    largest = abs(system.A).max(axis=1).toarray().ravel()
    assert system.d.shape == (g.nx * g.ny,)
    assert np.array_equal(system.d, largest)
    assert largest.max() > 1e3 * largest.min()
    f = np.random.default_rng(5).standard_normal(g.shape)
    x = system.solve(f).ravel()
    b = f.ravel().copy()
    b[system.bnd] = 0.0
    assert np.abs(system.A @ x - b).max() <= 1e-9 * np.abs(b).max()


# The bytes tracemalloc traces at the start of the psi factor, from the
# build on (its shape's pattern already kept), over the bytes of the CSC
# that SuperLU receives: that CSC is the one grid-sized matrix alive, and the
# rest is grid vectors (1.15 alone, 1.18 after this module's other tests).
# Before the build wrote that CSC straight from the pattern, this read 2.28:
# the unscaled operator A was alive as well.  Before DiffOps applied its
# stencils along the axes and the factor waited for the first solve, it read
# 8.88 on the same system.
FACTOR_TRACED_RATIO = 1.26


def test_no_other_grid_sized_matrix_is_alive_when_superlu_runs(monkeypatch):
    import gc

    from chasflow.expansion import construct_expansion
    from conftest import point_spec

    exp = construct_expansion(
        point_spec("poiseuille_couette_noforce", 48, 96,
                   kind="poiseuille_couette", alpha1=0.5, alpha2=0.5,
                   pert_amplitude=0.05, pert_exponent=0.425), 1e-2)
    ops, n = exp.ops, exp.grid.nx * exp.grid.ny

    def grid_sized():
        return sorted(k for k, v in vars(ops).items()
                      if sp.issparse(v) and v.shape == (n, n))

    assert grid_sized() == ["lap"]
    problem = LinearizedProblem(exp.fields, exp.eps, exp.M0, grid=exp.grid,
                                ops=ops)
    psi_system(problem)                     # the pattern of its shape, kept

    def grid_sized_alive():
        return [o for o in gc.get_objects() if sp.issparse(o) and o.shape == (n, n)]

    traced, alive, splu = [], [], spla.splu
    before = {id(o) for o in grid_sized_alive()}

    def catch(B, **options):
        traced.append(tracemalloc.get_traced_memory()[0])
        alive.extend(o for o in grid_sized_alive() if id(o) not in before)
        return splu(B, **options)

    monkeypatch.setattr(spla, "splu", catch)
    tracemalloc.start()
    try:
        system = psi_system(problem)
        assert traced == []                 # nothing factored yet
        system.solve(np.ones(exp.grid.shape))
    finally:
        tracemalloc.stop()
    # A is formed only by psi_operator: the CSC SuperLU factors is the only
    # grid-sized matrix the build left alive
    (B,) = alive
    csc = B.data.nbytes + B.indices.nbytes + B.indptr.nbytes
    assert traced[0] <= FACTOR_TRACED_RATIO * csc, traced[0] / csc
    assert not hasattr(system, "A") and system.B is None
    assert grid_sized() == ["lap"]          # the build cached nothing


def test_grid_lu_logs_each_factor(monkeypatch, caplog):
    g = make_grid(8, L=0.1)
    caplog.set_level(logging.DEBUG, logger="chasflow.discretization")
    caught = _catch_splu(monkeypatch)
    system = grid_system(kron(DiffOps(g.x, g.y), "bih"), g)
    system.solve(np.ones(g.shape))
    system.solve(np.zeros(g.shape))
    (record,) = caplog.records              # one factor, one line
    message = record.getMessage()
    assert record.levelno == logging.DEBUG
    assert message.startswith(f"grid LU {g.nx}x{g.ny}: nnz {caught[0].nnz}, ")
    assert (f"SuperLU supernodal storage (lu.nnz, not L+U) "
            f"{system.lu._lu.nnz}, ") in message
    assert message.endswith(" s")


def test_grid_system_refuses_a_non_finite_result():
    g = make_grid(8, L=0.1)
    system = grid_system(kron(DiffOps(g.x, g.y), "bih"), g)
    f = np.zeros(g.shape)
    f[3, 4] = np.nan
    with pytest.raises(GridSolveError, match="non-finite"):
        system.solve(f)
