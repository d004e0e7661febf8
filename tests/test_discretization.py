import os

import numpy as np
import pytest

from chasflow.discretization import (ChannelGrid, DiffOps, Field2D,
                                     GridResolutionError, HalfLineGrid,
                                     build_channel_grid, diff_matrix,
                                     mms_convergence, tanh_stretched)
from conftest import make_grid


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
