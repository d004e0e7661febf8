"""Grids, sparse difference operators and their LU, quadrature and norms.

Everything downstream (Euler correctors, boundary layers, the biharmonic
stream-function solver) is built on the tensor-product channel grid and the
truncated half-line layer grids defined here.  Operators are second order on
smoothly stretched nonuniform nodes; quadrature is trapezoidal to match.
"""

import functools
import math
import struct

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

MAGIC = b"CHAS"
BINARY_VERSION = 1


class GridResolutionError(ValueError):
    """Requested node counts cannot resolve the layers at the given eps."""


def _fornberg_rows(z, X, m):
    """Finite-difference weights for the m-th derivative, one stencil per row.

    Row r holds the weights at z[r] from the nodes X[r]: the classic
    Fornberg recursion (Math. Comp. 51, 1988), run on all rows at once and
    exact for polynomials of degree X.shape[1]-1.  Computed in extended
    precision so the h^-k amplification of weight roundoff stays below the
    operator invariants; each row sees the same operations in the same
    order as a one-stencil recursion, so the weights do not depend on how
    many rows share a call.
    """
    x = np.asarray(X, dtype=np.longdouble).T
    z = np.asarray(z, dtype=np.longdouble)
    n = x.shape[0]
    w = np.zeros((n, m + 1, z.size), dtype=np.longdouble)
    w[0, 0] = 1.0
    c1 = np.ones_like(z)
    c4 = x[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = np.ones_like(z)
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
    return np.array(w[:, m].T, dtype=float, order="C")


# stencil widths per derivative order; chosen so the formal order stays >= 2
# on nonuniform nodes including the shifted near-boundary rows.
_NPTS = {1: 3, 2: 4, 3: 6, 4: 7}


def _fix_low_moments(w, d, deriv):
    """Zero the 0th/1st moment defects exactly in double precision.

    Adjusts the two largest weights so constants are annihilated and linear
    functions differentiated exactly, whatever the node spacing.
    """
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
    w[a] -= math.fsum(w)  # final exact-sum pass against += rounding
    return w


def diff_matrix(x, deriv):
    """Sparse 1-D differentiation matrix of order `deriv` on nodes x.

    Built once per (nodes, deriv) in each process; every call returns its
    own copy, so a caller may edit the result.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"nodes must be a 1-D array, got shape {x.shape}")
    return _diff_matrix(x.tobytes(), deriv).copy()


@functools.lru_cache(maxsize=64)
def _diff_matrix(xbytes, deriv):
    # keyed on the float64 bytes: equal keys are equal nodes, bit for bit
    x = np.frombuffer(xbytes)
    n = x.size
    npts = _NPTS[deriv]
    if npts > n:
        raise ValueError(f"need at least {npts} nodes for d{deriv}, got {n}")
    lo = np.clip(np.arange(n) - npts // 2, 0, n - npts)
    idx = lo[:, None] + np.arange(npts)
    nodes = x[idx]
    w = _fornberg_rows(x, nodes, deriv)
    d = nodes - x[:, None]
    for i in range(n):
        _fix_low_moments(w[i], d[i], deriv)
    rows = np.repeat(np.arange(n), npts)
    return sp.csr_matrix((w.ravel(), (rows, idx.ravel())), shape=(n, n))


def one_sided_row(x, at_start, deriv, npts):
    """Weights (indices, values) for a one-sided derivative at an endpoint."""
    x = np.asarray(x, dtype=float)
    if at_start:
        idx = np.arange(npts)
        z = x[0]
    else:
        idx = np.arange(x.size - npts, x.size)
        z = x[-1]
    w = _fornberg_rows([z], x[idx][None, :], deriv)[0]
    w = _fix_low_moments(w, x[idx] - z, deriv)
    return idx, w


# (source nodes, query nodes) pairs whose PCHIP operator each process keeps;
# a couette sweep transfers fields between 23 distinct pairs
PCHIP_MEMO = 64


def pchip_operator(xs, xq):
    """PCHIP interpolation from nodes xs to the 1-D queries xq, as an
    operator: ``pchip_operator(xs, xq)(y, axis)`` equals scipy's
    ``PchipInterpolator(xs, y, axis)(xq)`` bit for bit, extrapolation
    included.

    Built once per (xs, xq) in each process and shared by every caller.
    xs needs at least 3 strictly increasing nodes (scipy's linear 2-node
    rule is not copied).
    """
    xs = np.asarray(xs, dtype=float)
    xq = np.asarray(xq, dtype=float)
    if xs.ndim != 1 or xq.ndim != 1:
        raise ValueError("pchip_operator needs 1-D nodes and queries")
    return _pchip_operator(xs.tobytes(), xq.tobytes())


@functools.lru_cache(maxsize=PCHIP_MEMO)
def _pchip_operator(xsbytes, xqbytes):
    # keyed on the float64 bytes: equal keys are equal nodes, bit for bit
    return PchipOperator(np.frombuffer(xsbytes), np.frombuffer(xqbytes))


def _as_index(ix):
    """An integer index array as a slice when it runs through consecutive
    integers, up or down, so that indexing with it makes a view."""
    if ix.size:
        step = 1 if ix[-1] >= ix[0] else -1
        if np.array_equal(ix, ix[0] + step * np.arange(ix.size)):
            stop = int(ix[-1]) + step
            return slice(int(ix[0]), None if stop < 0 else stop, step)
    return ix


def _take(a, ix, out):
    """out = a[ix] (ix a slice or an index array), without a temporary."""
    if isinstance(ix, slice):
        np.copyto(out, a[ix])
    else:
        # the indices are in range; the default mode="raise" buffers out
        np.take(a, ix, axis=0, out=out, mode="clip")
    return out


class PchipOperator:
    """The data-free part of scipy's PCHIP on fixed nodes and queries.

    Each query lies in the interval that scipy's ``PPoly`` picks (the end
    intervals extrapolate); only the knots of the used intervals get a
    slope.  A call forms the Fritsch–Butland slopes there (Fritsch and
    Carlson, SIAM J. Numer. Anal. 17, 1980; Fritsch and Butland, SIAM J.
    Sci. Stat. Comput. 5, 1984) with the operations of scipy 1.17's
    ``PchipInterpolator._find_derivatives`` and ``_edge_case``, in their
    order, then the coefficients as ``CubicHermiteSpline`` forms them and
    ``PPoly``'s power sum, so every bit, signs of zero included, is
    scipy's.
    """

    def __init__(self, xs, xq):
        n = xs.size
        if n < 3:
            raise ValueError(f"PCHIP needs at least 3 nodes, got {n}")
        if not np.all(np.isfinite(xs)) or np.any(np.diff(xs) <= 0.0):
            raise ValueError("PCHIP nodes must be finite and strictly increasing")
        hk = xs[1:] - xs[:-1]
        iv = np.clip(np.searchsorted(xs, xq, "right") - 1, 0, n - 2)
        used, at = np.unique(iv, return_inverse=True)
        knots = np.union1d(used, used + 1)
        inner = knots[(knots >= 1) & (knots <= n - 2)]
        first = knots.size > 0 and knots[0] == 0
        last = knots.size > 0 and knots[-1] == n - 1
        # secants the slopes read: interior knot k reads k-1 and k, an end
        # knot the two intervals next to it
        need = [inner - 1, inner]
        if first:
            need.append([0, 1])
        if last:
            need.append([n - 2, n - 3])
        sec = np.unique(np.concatenate(need))
        col = (-1, 1)
        self.n, self.nknots = n, knots.size
        self.sec, self.sec1 = _as_index(sec), _as_index(sec + 1)
        self.hsec = hk[sec].reshape(col)
        self.inner = _as_index(np.searchsorted(knots, inner))
        self.left = _as_index(np.searchsorted(sec, inner - 1))
        self.right = _as_index(np.searchsorted(sec, inner))
        w1 = 2 * hk[inner] + hk[inner - 1]
        w2 = hk[inner] + 2 * hk[inner - 1]
        self.w1, self.w2 = w1.reshape(col), w2.reshape(col)
        self.w12 = (w1 + w2).reshape(col)
        # (knot position, h0, h1, secant of h0, secant of h1) per end knot
        self.ends = []
        if first:
            self.ends.append((0, hk[0], hk[1], *np.searchsorted(sec, [0, 1])))
        if last:
            self.ends.append((knots.size - 1, hk[n - 2], hk[n - 3],
                              *np.searchsorted(sec, [n - 2, n - 3])))
        lo = np.searchsorted(knots, used)      # knot used + 1 is at lo + 1
        self.lo, self.hi = _as_index(lo), _as_index(lo + 1)
        self.used_sec = _as_index(np.searchsorted(sec, used))
        self.hused = hk[used].reshape(col)
        # per query: its interval, and that interval's place among the used
        self.interval = _as_index(iv)
        self.slot = _as_index(at)
        s = (xq - xs[iv]).reshape(col)
        self.s, self.s2 = s, s * s
        self.s3 = self.s2 * s
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.flags.writeable = False

    def __call__(self, y, axis=0):
        """The interpolant of y (values at the nodes along axis) at the
        queries, which take the place of that axis."""
        y = np.asarray(y, dtype=float)
        if y.shape[axis] != self.n:
            raise ValueError(f"data has {y.shape[axis]} values along axis "
                             f"{axis}, the nodes {self.n}")
        if not np.all(np.isfinite(y)):
            raise ValueError("PCHIP data must be finite")
        y = np.moveaxis(y, axis, 0)
        rest = y.shape[1:]
        y = y.reshape(self.n, math.prod(rest))
        mk = y[self.sec1] - y[self.sec]
        mk /= self.hsec

        # every knot is interior or an end, so each row of d is set below
        d = np.empty((self.nknots, y.shape[1]))
        m0, m1 = mk[self.left], mk[self.right]
        condition = (np.sign(m1) != np.sign(m0)) | (m1 == 0) | (m0 == 0)
        # an overflowing w/mk makes whmean inf and the slope 1/inf = 0, as
        # in scipy, which ignores only the division by zero and 0/0 here
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            whmean = self.w1 / m0
            whmean += self.w2 / m1
            whmean /= self.w12
            np.divide(1.0, whmean, out=whmean)
        np.copyto(whmean, 0.0, where=condition)
        d[self.inner] = whmean
        for k, h0, h1, a, b in self.ends:
            m0, m1 = mk[a], mk[b]
            dk = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            mask = np.sign(dk) != np.sign(m0)
            mask2 = (np.sign(m0) != np.sign(m1)) & (np.abs(dk) > 3. * np.abs(m0))
            mmm = (~mask) & mask2
            dk[mask] = 0.
            dk[mmm] = 3. * m0[mmm]
            d[k] = dk

        slope = mk[self.used_sec]
        dl = d[self.lo]
        t = dl + d[self.hi]
        t -= 2 * slope
        t /= self.hused
        c0 = t / self.hused
        c1 = slope - dl
        c1 /= self.hused
        c1 -= t
        # PPoly's sum ((0 + c3) + c2 s) + c1 s^2 + c0 s^3, into a C-ordered
        # (query, column) array as PPoly writes it; x + 0.0 is 0.0 + x
        out = _take(y, self.interval, np.empty((self.s.shape[0], y.shape[1])))
        out += 0.0
        term = np.empty_like(out)
        for c, p in ((dl, self.s), (c1, self.s2), (c0, self.s3)):
            _take(c, self.slot, term)
            term *= p
            out += term
        return np.moveaxis(out.reshape(out.shape[:1] + rest), 0, axis)


def replace_rows(A, rows):
    """A with each row r replaced by rows[r] = (cols, vals), as CSC.

    The kept rows keep every stored entry, explicit zeros included (SuperLU
    orders the columns by the sparsity structure), and so does a
    replacement row, which lists each column once.  Equal, array for array,
    to setting the rows of ``A.tolil()`` and converting with ``tocsc()``.
    """
    A = A.tocoo()
    kept = ~np.isin(A.row, np.fromiter(rows, dtype=np.int64, count=len(rows)))
    i = [A.row[kept]] + [np.full(len(cols), r) for r, (cols, _) in rows.items()]
    j = [A.col[kept]] + [cols for cols, _ in rows.values()]
    v = [A.data[kept]] + [vals for _, vals in rows.values()]
    ij = (np.concatenate(i), np.concatenate(j))
    return sp.coo_matrix((np.concatenate(v), ij), shape=A.shape).tocsc()


# Geometric nested dissection of the tensor-grid systems (George, SIAM J.
# Numer. Anal. 10, 1973).  A separator three node lines wide disconnects
# the two halves for every interior stencil that reaches at most three
# nodes, as the seven-point d4 of the biharmonic does; blocks of at most
# ND_LEAF nodes keep their natural order.  SuperLU pivots on the diagonal
# unless it is below ND_PIVOT times the largest entry of its column.  With
# 0 (never pivot) the backward error at 48x96 was 20x COLAMD's on the
# stream-function system and 7000x on the bordered pressure system.
ND_SEPARATOR = 3
ND_LEAF = 64
ND_PIVOT = 0.01


@functools.lru_cache(maxsize=8)
def nested_dissection(nx, ny):
    """Elimination order of the nodes of an nx x ny grid (C-order numbers).

    Each block of more than ND_LEAF nodes is cut across its longer side by
    ND_SEPARATOR node lines; the two halves come first, each ordered the
    same way, and the separator last.  Read-only, shared by every caller.
    """
    node = np.arange(nx * ny).reshape(nx, ny)
    parts = []

    def order(block):
        ni, nj = block.shape
        if ni * nj <= ND_LEAF:
            parts.append(block.ravel())
            return
        # more than ND_LEAF nodes make the longer side at least 9 nodes, so
        # both halves are nonempty
        axis = 0 if ni >= nj else 1
        mid = (block.shape[axis] - ND_SEPARATOR) // 2
        low, separator, high = np.split(block, [mid, mid + ND_SEPARATOR],
                                        axis=axis)
        order(low)
        order(high)
        parts.append(separator.ravel())

    order(node)
    perm = np.concatenate(parts)
    perm.flags.writeable = False
    return perm


class GridLU:
    """Sparse LU of a system whose unknowns are eliminated in order ``perm``.

    ``solve(b)`` takes and returns vectors in the system's own numbering.
    ``L`` and ``U`` are the factors of the permuted system (SuperLU builds
    them on each access).
    """

    def __init__(self, lu, perm):
        self._lu = lu
        self.perm = perm

    def solve(self, b):
        x = np.empty(self.perm.size)
        x[self.perm] = self._lu.solve(np.asarray(b, dtype=float)[self.perm])
        return x

    @property
    def L(self):
        return self._lu.L

    @property
    def U(self):
        return self._lu.U


def grid_lu(A, nx, ny):
    """LU of a system whose first nx*ny unknowns are the nodes of an
    nx x ny grid, ordered by nested dissection; any further (border)
    unknowns, such as a Lagrange multiplier, are eliminated last."""
    n = A.shape[0]
    perm = np.concatenate([nested_dissection(nx, ny), np.arange(nx * ny, n)])
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    A = A.tocoo()
    B = sp.csc_matrix((A.data, (rank[A.row], rank[A.col])), shape=A.shape)
    lu = spla.splu(B, permc_spec="NATURAL", diag_pivot_thresh=ND_PIVOT)
    return GridLU(lu, perm)


def trapezoid_weights(x):
    x = np.asarray(x, dtype=float)
    w = np.zeros_like(x)
    w[:-1] += 0.5 * np.diff(x)
    w[1:] += 0.5 * np.diff(x)
    return w


def cumtrapz0(f, x):
    """Cumulative trapezoid along the first axis, zero at the first node."""
    f = np.asarray(f, dtype=float)
    dx = np.diff(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * (f.ndim - 1))
    out = np.zeros_like(f)
    out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1]) * dx, axis=0)
    return out


def tanh_stretched(a, b, n, sigma):
    """n nodes on [a,b] clustered towards both ends (sigma=0 -> uniform)."""
    xi = np.linspace(0.0, 1.0, n)
    if sigma <= 0:
        return a + (b - a) * xi
    t = np.tanh(sigma * (2.0 * xi - 1.0)) / np.tanh(sigma)
    y = 0.5 * (t + 1.0)
    y[0], y[-1] = 0.0, 1.0
    return a + (b - a) * y


class ChannelGrid:
    """Tensor-product grid on (0,L) x (0,2), wall-clustered in y.

    Built for a target eps so that the wall spacing resolves the eps^(1/3)
    layer at y=0 and the eps^(1/2) layer at y=2.
    """

    def __init__(self, L, x, y, sigma=0.0):
        self.L = float(L)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.nx = self.x.size
        self.ny = self.y.size
        self.sigma = sigma
        self.XX, self.YY = np.meshgrid(self.x, self.y, indexing="ij")

    @property
    def shape(self):
        return (self.nx, self.ny)

    def wall_spacing(self):
        return self.y[1] - self.y[0], self.y[-1] - self.y[-2]

    def __repr__(self):
        return f"ChannelGrid(L={self.L}, nx={self.nx}, ny={self.ny}, sigma={self.sigma:.3g})"


def build_channel_grid(L, nx, ny, eps, stretching=True, resolve_factor=0.25,
                       min_layer_nodes=6):
    """Channel grid whose near-wall spacing resolves both layer scales.

    Raises GridResolutionError when ny cannot give min_layer_nodes intervals
    inside each layer width (eps^(1/3) at y=0, eps^(1/2) at y=2) with the
    stretching capped at a well-conditioned strength.
    """
    if nx < 8 or ny < 8:
        raise GridResolutionError("nx, ny must be >= 8")
    if eps <= 0:
        raise GridResolutionError("eps must be positive")
    x = np.linspace(0.0, L, nx)
    target = resolve_factor * min(eps ** (1.0 / 3.0), eps ** 0.5)
    if not stretching:
        y = np.linspace(0.0, 2.0, ny)
        if y[1] - y[0] > target:
            raise GridResolutionError(
                f"uniform ny={ny} gives spacing {y[1] - y[0]:.3g} > {target:.3g}")
        return ChannelGrid(L, x, y)

    sigma_max = 6.0
    lo, hi = 0.0, sigma_max
    widths = (eps ** (1.0 / 3.0), eps ** 0.5)

    def ok(sigma):
        y = tanh_stretched(0.0, 2.0, ny, sigma)
        if y[1] - y[0] > target or y[-1] - y[-2] > target:
            return False, y
        n_lo = np.count_nonzero(y <= widths[0]) - 1
        n_hi = np.count_nonzero(y >= 2.0 - widths[1]) - 1
        return (n_lo >= min_layer_nodes and n_hi >= min_layer_nodes), y

    good, y = ok(0.0)
    if good:
        return ChannelGrid(L, x, y)
    good, y = ok(sigma_max)
    if not good:
        raise GridResolutionError(
            f"ny={ny} cannot resolve layers ({widths[0]:.3g}, {widths[1]:.3g}) "
            f"at eps={eps:.3g} with at least {min_layer_nodes} intervals each")
    for _ in range(60):  # smallest adequate stretching
        mid = 0.5 * (lo + hi)
        g, _ = ok(mid)
        if g:
            hi = mid
        else:
            lo = mid
    y = tanh_stretched(0.0, 2.0, ny, hi)
    return ChannelGrid(L, x, y, sigma=hi)


class HalfLineGrid:
    """Layer grid: x in [0,L] graded towards 0, Y in [0,Ymax] graded towards 0."""

    def __init__(self, L, nx, nY, Ymax=20.0, x=None, Y=None):
        if Ymax < 20.0:
            Ymax = 20.0
        self.L = float(L)
        if x is not None:
            self.x = np.asarray(x, dtype=float)
        else:
            s = np.linspace(0.0, 1.0, int(nx))
            self.x = L * s ** 2.0
        self.nx = self.x.size
        if Y is not None:
            self.Y = np.asarray(Y, dtype=float)
        else:
            t = np.linspace(0.0, 1.0, int(nY))
            self.Y = Ymax * t ** 2.0
        self.nY = self.Y.size
        self.Ymax = float(self.Y[-1])
        self.wY = trapezoid_weights(self.Y)
        self.wx = trapezoid_weights(self.x)

    @property
    def shape(self):
        return (self.nx, self.nY)


class Field2D:
    """Scalar grid function on a channel or half-line grid."""

    def __init__(self, grid, values=None):
        self.grid = grid
        if values is None:
            values = np.zeros(grid.shape)
        values = np.asarray(values, dtype=float)
        if values.shape != tuple(grid.shape):
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        self.values = values

    def to_csv(self, path):
        xs = getattr(self.grid, "x")
        ys = getattr(self.grid, "y", None)
        if ys is None:
            ys = self.grid.Y
        with open(path, "w") as fh:
            fh.write("x,y,value\n")
            for i, xv in enumerate(xs):
                for j, yv in enumerate(ys):
                    fh.write(f"{xv!r},{yv!r},{self.values[i, j]!r}\n")

    def to_binary(self, path):
        xs = np.asarray(getattr(self.grid, "x"), dtype=float)
        ys = getattr(self.grid, "y", None)
        if ys is None:
            ys = self.grid.Y
        ys = np.asarray(ys, dtype=float)
        header = struct.pack("<4sIII", MAGIC, BINARY_VERSION, xs.size, ys.size)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(xs.tobytes())
            fh.write(ys.tobytes())
            fh.write(np.ascontiguousarray(self.values).tobytes())

    @staticmethod
    def read_binary(path):
        with open(path, "rb") as fh:
            magic, version, nx, ny = struct.unpack("<4sIII", fh.read(16))
            if magic != MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            x = np.frombuffer(fh.read(8 * nx))
            y = np.frombuffer(fh.read(8 * ny))
            vals = np.frombuffer(fh.read(8 * nx * ny)).reshape(nx, ny)
        return {"version": version, "x": x, "y": y, "values": vals}


class DiffOps:
    """Sparse difference operators on a tensor grid, flattened C-order (nx, ny).

    All first/second derivative operators are formally second order on
    smoothly stretched nodes and annihilate constants exactly.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.nx, self.ny = self.x.size, self.y.size
        self.d1x = diff_matrix(self.x, 1)
        self.d1y = diff_matrix(self.y, 1)
        self.d2x = diff_matrix(self.x, 2)
        self.d2y = diff_matrix(self.y, 2)
        Ix = sp.identity(self.nx, format="csr")
        Iy = sp.identity(self.ny, format="csr")
        self.Dx = sp.kron(self.d1x, Iy, format="csr")
        self.Dy = sp.kron(Ix, self.d1y, format="csr")
        self.Dxx = sp.kron(self.d2x, Iy, format="csr")
        self.Dyy = sp.kron(Ix, self.d2y, format="csr")
        self.Dxy = sp.kron(self.d1x, self.d1y, format="csr")
        self.lap = (self.Dxx + self.Dyy).tocsr()
        self._bih = None
        self._third = None
        self.wx = trapezoid_weights(self.x)
        self.wy = trapezoid_weights(self.y)
        self.w2 = np.outer(self.wx, self.wy).ravel()

    @property
    def bih(self):
        if self._bih is None:
            Ix = sp.identity(self.nx, format="csr")
            Iy = sp.identity(self.ny, format="csr")
            d4x = diff_matrix(self.x, 4)
            d4y = diff_matrix(self.y, 4)
            self._bih = (sp.kron(d4x, Iy) + 2.0 * sp.kron(self.d2x, self.d2y)
                         + sp.kron(Ix, d4y)).tocsr()
        return self._bih

    def third_ops(self):
        """(Dxxx, Dxxy, Dxyy, Dyyy) for third-derivative norms."""
        if self._third is None:
            Ix = sp.identity(self.nx, format="csr")
            Iy = sp.identity(self.ny, format="csr")
            d3x = diff_matrix(self.x, 3)
            d3y = diff_matrix(self.y, 3)
            self._third = (sp.kron(d3x, Iy, format="csr"),
                           sp.kron(self.d2x, self.d1y, format="csr"),
                           sp.kron(self.d1x, self.d2y, format="csr"),
                           sp.kron(Ix, d3y, format="csr"))
        return self._third

    def apply(self, op, f):
        return (op @ f.ravel()).reshape(self.nx, self.ny)

    # -- norms ------------------------------------------------------------

    def integrate(self, f):
        return float(self.w2 @ np.asarray(f, dtype=float).ravel())

    def norm_l2(self, f):
        v = np.asarray(f, dtype=float).ravel() ** 2
        return float(np.sqrt(max(self.w2 @ v, 0.0)))

    def norm(self, f, kind="L2"):
        """Quadrature-weighted norm: L2, H1, H2 or Linf."""
        f = np.asarray(f, dtype=float)
        if kind == "Linf":
            return float(np.max(np.abs(f)))
        if kind == "L2":
            return self.norm_l2(f)
        fx = self.apply(self.Dx, f)
        fy = self.apply(self.Dy, f)
        s = self.norm_l2(f) ** 2 + self.norm_l2(fx) ** 2 + self.norm_l2(fy) ** 2
        if kind == "H1":
            return float(np.sqrt(s))
        if kind == "H2":
            for op in (self.Dxx, self.Dxy, self.Dyy):
                s += self.norm_l2(self.apply(op, f)) ** 2
            return float(np.sqrt(s))
        raise ValueError(f"unknown norm kind {kind!r}")


def lsq_slope(xs, ys):
    """Least-squares slope of ys vs xs (both already in log space)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.sqrt(res[0] / xs.size)) if res.size else 0.0
    return float(coef[0]), float(coef[1]), resid


def mms_convergence(apply_level, levels):
    """Observed order of accuracy from a refinement study.

    apply_level(level) must return (h, err) with err the measured error of the
    operator or solver against the manufactured solution at that level.
    """
    hs, errs = [], []
    for lv in levels:
        h, e = apply_level(lv)
        hs.append(h)
        errs.append(max(e, 1e-300))
    slope, _, _ = lsq_slope(np.log(hs), np.log(errs))
    return slope, np.array(hs), np.array(errs)
