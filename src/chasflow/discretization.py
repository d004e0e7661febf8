"""Grids, sparse difference operators and their LU, quadrature and norms.

Everything downstream (Euler correctors, boundary layers, the biharmonic
stream-function solver) is built on the tensor-product channel grid and the
truncated half-line layer grids defined here.  Operators are second order on
smoothly stretched nonuniform nodes; quadrature is trapezoidal to match.
"""

import functools
import logging
import math
import struct
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

log = logging.getLogger(__name__)
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


def _fix_low_moments(W, D, deriv):
    """Zero the 0th/1st moment defects of each row of weights W (offsets D)
    exactly in double precision, in place: adjusts a row's two largest
    weights so constants are annihilated and linear functions differentiated
    exactly, whatever the node spacing.  Each row's ``w @ d`` and
    ``math.fsum`` run alone, so no row depends on the rows beside it."""
    t1 = 1.0 if deriv == 1 else 0.0
    a, b = np.argsort(np.abs(W), axis=1)[:, -2:].T
    i = np.arange(W.shape[0])
    r0 = W.sum(axis=1)
    r1 = np.array([float(w @ d) for w, d in zip(W, D)]) - t1
    det = D[i, b] - D[i, a]
    flat = det == 0.0
    W[i[flat], a[flat]] -= r0[flat]
    i, a, b, r0, r1, det = (v[~flat] for v in (i, a, b, r0, r1, det))
    db = (r0 * D[i, a] - r1) / det
    W[i, a] += -r0 - db
    W[i, b] += db
    W[i, a] -= [math.fsum(w) for w in W[i].tolist()]  # exact-sum pass
    return W


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
    idx = stencil_columns(n, deriv)
    nodes = x[idx]
    w = _fornberg_rows(x, nodes, deriv)
    _fix_low_moments(w, nodes - x[:, None], deriv)
    rows = np.repeat(np.arange(n), idx.shape[1])
    return sp.csr_matrix((w.ravel(), (rows, idx.ravel())), shape=(n, n))


def stencil_columns(n, deriv):
    """The (n, npts) increasing columns of the rows of ``diff_matrix``."""
    npts = _NPTS[deriv]
    if npts > n:
        raise ValueError(f"need at least {npts} nodes for d{deriv}, got {n}")
    lo = np.clip(np.arange(n) - npts // 2, 0, n - npts)
    return lo[:, None] + np.arange(npts)


def one_sided_row(x, at_start, deriv, npts):
    """Weights (indices, values) for a one-sided derivative at an endpoint."""
    x = np.asarray(x, dtype=float)
    if at_start:
        idx = np.arange(npts)
        z = x[0]
    else:
        idx = np.arange(x.size - npts, x.size)
        z = x[-1]
    w = _fornberg_rows([z], x[idx][None, :], deriv)
    return idx, _fix_low_moments(w, x[idx][None, :] - z, deriv)[0]


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
    return _pchip_operator(xs.tobytes(), xq.tobytes(), True)


@functools.lru_cache(maxsize=PCHIP_MEMO)
def _pchip_operator(xsbytes, xqbytes, nodes):
    # keyed on the float64 bytes: equal keys are equal nodes, bit for bit
    return PchipOperator(np.frombuffer(xsbytes), np.frombuffer(xqbytes), nodes)


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
    intervals extrapolate).  If nodes, a query on its interval's left node
    is that node's value + 0.0 for data below ymax, and only the others'
    intervals get Fritsch–Butland slopes (Fritsch and Carlson, SIAM J.
    Numer. Anal. 17, 1980; Fritsch and Butland, SIAM J. Sci. Stat. Comput.
    5, 1984), with the operations of scipy 1.17's
    ``PchipInterpolator._find_derivatives`` and ``_edge_case``, in their
    order, then the coefficients as ``CubicHermiteSpline`` forms them and
    ``PPoly``'s power sum, so every bit, signs of zero included, is scipy's.
    """

    def __init__(self, xs, xq, nodes):
        n = xs.size
        if n < 3:
            raise ValueError(f"PCHIP needs at least 3 nodes, got {n}")
        if not np.all(np.isfinite(xs)) or np.any(np.diff(xs) <= 0.0):
            raise ValueError("PCHIP nodes must be finite and strictly increasing")
        hk = xs[1:] - xs[:-1]
        iv = np.clip(np.searchsorted(xs, xq, "right") - 1, 0, n - 2)
        # a query on its node is y + 0.0 while every coefficient is finite,
        # as for max|y| < ymax: |secant| <= 2 max|y| / min h, coefficients and
        # their terms <= 16 |secant| max(1, max h, 1 / min h^2)
        with np.errstate(over="ignore", divide="ignore"):
            reach = 32 / hk.min() * max(1.0, 32 * hk.max(), hk.min() ** -2.0)
        self.ymax = np.finfo(float).max / reach if nodes else np.inf
        self.keys = xs.tobytes(), xq.tobytes()
        rows = np.flatnonzero((xq != xs[iv]) | (not nodes))
        self.nq, self.rows, self.interval = xq.size, _as_index(rows), _as_index(iv)
        used, at = np.unique(iv[rows], return_inverse=True)
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
        # per cubic row: its interval's place among the used
        self.slot = _as_index(at)
        s = (xq - xs[iv])[rows].reshape(col)
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
        if not np.isfinite(big := np.abs(y).max(initial=0.0)):
            raise ValueError("PCHIP data must be finite")
        if not big < self.ymax:     # a coefficient's NaN may reach a node too
            return _pchip_operator(*self.keys, False)(y, axis)
        y = np.moveaxis(y, axis, 0)
        rest = y.shape[1:]
        y = y.reshape(self.n, math.prod(rest))
        # PPoly's sum ((0 + c3) + c2 s) + c1 s^2 + c0 s^3, into a C-ordered
        # (query, column) array as PPoly writes it; x + 0.0 is 0.0 + x
        out = _take(y, self.interval, np.empty((self.nq, y.shape[1])))
        out += 0.0
        if self.s.size:             # the rest of the sum, on the cubic rows
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
            part = out[self.rows]       # a view when the rows are a slice
            term = np.empty_like(part)
            for c, p in ((dl, self.s), (c1, self.s2), (c0, self.s3)):
                _take(c, self.slot, term)
                term *= p
                part += term
            out[self.rows] = part       # a no-op for a view
        return np.moveaxis(out.reshape(out.shape[:1] + rest), 0, axis)


def boundary_rows(x, y, conditions):
    """The rows {row: (cols, vals)} that impose wall conditions on the
    C-order nodes ``i * ny + j`` of the tensor grid x by y.

    Each condition ``(axis, at_start, deriv, npts, offset, span)`` imposes
    the deriv-th derivative along axis (0: x, 1: y) at the wall where that
    axis starts (at_start) or ends, with the weights of
    ``one_sided_row(nodes, at_start, deriv, npts)``; deriv 0 is the wall
    value itself (npts unused).  The condition is written in the grid line
    offset nodes in from that wall, at the nodes span (a slice or an index
    array) along the other axis.  A later condition replaces an earlier one
    in a row they share.
    """
    nodes = (np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    number = np.arange(nodes[0].size * nodes[1].size).reshape(
        nodes[0].size, nodes[1].size)
    rows = {}
    for axis, at_start, deriv, npts, offset, span in conditions:
        lines = np.moveaxis(number, axis, 0)      # lines[k] is a grid line
        if deriv:
            idx, w = one_sided_row(nodes[axis], at_start, deriv, npts)
        else:
            idx, w = [0 if at_start else -1], np.ones(1)
        at = lines[offset if at_start else -1 - offset, span]
        cols = lines[idx][:, span].T
        rows.update((r, (c, w)) for r, c in zip(at.tolist(), cols))
    return rows


# The wall-row frame first, then geometric nested dissection of the interior
# (George, SIAM J. Numer. Anal. 10, 1973).  The psi system's wall rows fill
# the ND_FRAME node lines at each wall; with few entries they are cheap to
# eliminate first, as in a minimum-degree order (George & Liu, SIAM Rev. 31,
# 1989), which cut the L+U fill by 11% at 96x192.  A separator three node
# lines wide disconnects the two halves for every interior stencil that
# reaches at most three nodes, as the seven-point d4 of the biharmonic does.
# SuperLU pivots on the diagonal unless it is below ND_PIVOT times the
# largest entry of its column.  With 0 (never pivot) the backward error at
# 48x96 was 20x COLAMD's on the stream-function system.
ND_SEPARATOR = 3
ND_LEAF = 64
ND_FRAME = 2
ND_PIVOT = 0.01


@functools.lru_cache(maxsize=8)
def nested_dissection(nx, ny):
    """Elimination order of the nodes of an nx x ny grid (C-order numbers).

    First the frame, every node within ND_FRAME lines of a wall, in C order.
    Then the interior block: a block of more than ND_LEAF nodes is cut across
    its longer side by ND_SEPARATOR node lines; the two halves come first,
    each ordered the same way, and the separator last.  Each leaf and
    separator runs with its shorter side as the fast index (C order on a
    tie).  Read-only, shared by every caller.
    """
    node = np.arange(nx * ny).reshape(nx, ny)
    inner = node[ND_FRAME:nx - ND_FRAME, ND_FRAME:ny - ND_FRAME]
    parts = [np.setdiff1d(node, inner)]           # sorted: the frame, C order

    def order(block):
        if block.size > ND_LEAF:
            # more than ND_LEAF nodes make the longer side at least 9 nodes,
            # so both halves are nonempty
            axis = 0 if block.shape[0] >= block.shape[1] else 1
            mid = (block.shape[axis] - ND_SEPARATOR) // 2
            low, block, high = np.split(block, [mid, mid + ND_SEPARATOR],
                                        axis=axis)
            order(low)
            order(high)
        # the leaf, or the separator after its two halves
        parts.append((block.T if block.shape[0] < block.shape[1] else block).ravel())

    order(inner)
    perm = np.concatenate(parts)
    perm.flags.writeable = False
    return perm


class GridLU:
    """SuperLU factor of the CSC ``B`` of a system on the nodes of an nx x ny
    grid, its rows and columns in ``nested_dissection(nx, ny)`` order.

    ``solve(b)`` takes and returns vectors in the system's own numbering.
    A repeat of the last ``b``, byte for byte (GMRES applies its
    preconditioner twice to one vector), gets a copy of the last solution.
    """

    def __init__(self, B, nx, ny):
        start = time.perf_counter()
        self._lu = lu = spla.splu(B, permc_spec="NATURAL", diag_pivot_thresh=ND_PIVOT)
        log.debug("grid LU %dx%d: nnz %d, SuperLU supernodal storage (lu.nnz, "
                  "not L+U) %d, %.3f s", nx, ny, B.nnz, lu.nnz, time.perf_counter() - start)
        self.perm = nested_dissection(nx, ny)
        self._last = (None, None)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        key = b.tobytes()
        if key != self._last[0]:
            x = np.empty(self.perm.size)
            x[self.perm] = self._lu.solve(b[self.perm])
            self._last = (key, x)
        return self._last[1].copy()


class GridSolveError(RuntimeError):
    """A solve on the channel grid produced non-finite values, or its
    separable system is too ill-conditioned to solve."""


class GridSystem:
    """A system A on the C-order nodes of a channel grid, kept as its wall
    rows ``bnd``, its row scale ``d`` (each row's largest |entry|, 1 for an
    empty row) and ``B``, the CSC of diag(1/d) A in ``nested_dissection``
    order, which ``lu`` factors at its first use and drops."""

    def __init__(self, grid, bnd, d, B):
        self.grid, self.bnd, self.d, self.B = grid, bnd, d, B

    @functools.cached_property
    def lu(self):
        B, self.B = self.B, None
        return GridLU(B, self.grid.nx, self.grid.ny)

    def solve(self, f):
        """The grid unknowns (nx, ny) for f, with 0 at the boundary rows."""
        b = np.array(f, dtype=float).ravel()
        b[self.bnd] = 0.0
        x = self.lu.solve(b / self.d)
        if not np.all(np.isfinite(x)):
            raise GridSolveError("grid system solve produced non-finite values")
        return x.reshape(self.grid.shape)


# refuse a reduced 1-D operator whose eigenvector matrix is conditioned worse
# than this: the tensor-product solve loses about that factor in accuracy
EIG_COND_LIMIT = 1e6
# with a null mode, every other |mu_i + lambda_k| must exceed its round-off
# value this many times, or the solve would divide by a second one
NULL_MODE_GAP = 1e6


class LineModes:
    """The 1-D part of a separable grid operator along one axis.

    ``-d2 + diag(w)`` on the interior nodes, with the two end values
    eliminated by the condition each end fixes (``ends``: derivative 0, the
    value, or 1, by the 3-point one-sided row): a full line is
    ``P @ interior + Q @ (start, end)`` with the ends' data, so the reduced
    operator is ``K = (-d2 @ P)[1:-1] + diag(w)`` and the data enter the
    interior rows as ``G @ data``.  Keeps the eigendecomposition ``K = R
    diag(lam) R^-1`` and the 2-norm condition number ``cond`` of R; raises
    ``GridSolveError`` above EIG_COND_LIMIT.
    """

    def __init__(self, x, d2, ends, w):
        n = x.size
        self.P = np.eye(n, n - 2, -1)
        self.Q = np.zeros((n, 2))
        for k, (at_start, deriv) in enumerate(zip((True, False), ends)):
            end = 0 if at_start else n - 1
            if deriv == 0:
                self.Q[end, k] = 1.0
                continue
            idx, wts = one_sided_row(x, at_start, deriv, 3)
            own = idx == end
            self.P[end, idx[~own] - 1] = -wts[~own] / wts[own]
            self.Q[end, k] = 1.0 / wts[own][0]
        K = -(d2 @ self.P)[1:-1] + np.diag(np.broadcast_to(w, n - 2))
        self.G = (d2 @ self.Q)[1:-1]
        self.lam, self.R = np.linalg.eig(K)
        self.cond = float(np.linalg.cond(self.R))
        if not self.cond <= EIG_COND_LIMIT:
            raise GridSolveError(
                f"eigenvector condition number {self.cond:.3g} of a reduced "
                f"1-D operator exceeds {EIG_COND_LIMIT:.0e}")
        self.Rinv = np.linalg.inv(self.R)


def line_modes(x, d2, ends, w):
    """``LineModes(x, d2, ends, w)``, built once per distinct input in each
    process (d2's arrays as stored) and shared read-only."""
    d2 = d2.tocsr()
    inputs = (x, np.broadcast_to(w, len(x) - 2), d2.data, d2.indices,
              d2.indptr)
    return _line_modes(tuple(ends), EIG_COND_LIMIT,
                       *(np.asarray(a, dtype=float).tobytes() for a in inputs))


# a couette sweep point uses six; its two x modes are every point's
@functools.lru_cache(maxsize=6)
def _line_modes(ends, limit, *inputs):
    # keyed on float64 bytes (exact for the indices too), and on the
    # EIG_COND_LIMIT that the build checks against
    x, w, data, indices, indptr = map(np.frombuffer, inputs)
    d2 = sp.csr_matrix((data, indices.astype(int), indptr.astype(int)),
                       shape=(x.size, x.size))
    modes = LineModes(x, d2, ends, w)
    for a in (modes.P, modes.Q, modes.G, modes.lam, modes.R, modes.Rinv):
        a.flags.writeable = False
    return modes


class SeparableSystem:
    """``Bx (x) I + I (x) Ky`` on the interior nodes of a channel grid, from
    the ``LineModes`` of x (``Bx``) and y (``Ky``): ``-lap + w(y)`` with its
    wall rows eliminated, solved by the tensor-product (fast
    diagonalization) method of Lynch, Rice & Thomas, Numer. Math. 6 (1964)
    185, in complex arithmetic for a complex spectrum (the real part kept).
    With ``null``, the mode z of the smallest |mu_i + lambda_k| is its one
    null mode (``floor``: that and the next smallest), whose coefficient a
    solve sets to 0.  When z is the constant, that is the bordered system
    ``[K 1; w^T 0]`` up to a constant: its multiplier adds ``c 1~`` to the
    transformed data, and 1~ vanishes outside mode z (``c = -F~_z / 1~_z``
    cancels that mode's datum and moves no other)."""

    def __init__(self, xm, ym, null):
        self.xm, self.ym = xm, ym
        self.denom = xm.lam[:, None] + ym.lam[None, :]
        if null:
            size = np.abs(self.denom).ravel()
            first, second = np.argpartition(size, 1)[:2]
            self.floor = (float(size[first]), float(size[second]))
            if not self.floor[1] > NULL_MODE_GAP * self.floor[0]:
                raise GridSolveError(
                    "a second near-null mode: |mu + lambda| %.3g then %.3g"
                    % self.floor)
            self.denom[np.unravel_index(first, self.denom.shape)] = np.inf

    def solve(self, f, wall):
        """The grid unknowns (nx, ny) for right-hand side f at the interior
        nodes and wall (a scalar or an (nx, ny) array) at the wall nodes:
        the datum of each y wall's condition at every x (corners included),
        and of each x end's between the walls."""
        xm, ym = self.xm, self.ym
        wall = np.broadcast_to(wall, (xm.P.shape[0], ym.P.shape[0]))
        ends_x, ends_y = wall[[0, -1], 1:-1], wall[:, [0, -1]]
        F = f[1:-1, 1:-1] + xm.G @ ends_x + ends_y[1:-1] @ ym.G.T
        V = (xm.R @ ((xm.Rinv @ F @ ym.Rinv.T) / self.denom) @ ym.R.T).real
        v = (xm.P @ V + xm.Q @ ends_x) @ ym.P.T + ends_y @ ym.Q.T
        if not np.all(np.isfinite(v)):
            raise GridSolveError("non-finite separable solve")
        return v


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


def build_channel_grid(L, nx, ny, eps, resolve_factor=0.25, min_layer_nodes=6):
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
    """Layer grid: x in [0,L] and Y in [0,Ymax] (20 by default), both graded
    towards 0.  Nodes x replace nx and end at L; nodes Y replace nY and Ymax."""

    def __init__(self, L, nx, nY, Ymax=None, x=None, Y=None):
        if x is None:
            x = L * np.linspace(0.0, 1.0, int(nx)) ** 2.0
        elif nx is not None or L != x[-1]:
            raise ValueError(f"nodes x replace nx and end at L: got nx={nx}, "
                             f"L={L}, x[-1]={x[-1]}")
        if Y is None:
            Ymax = 20.0 if Ymax is None else Ymax
            Y = Ymax * np.linspace(0.0, 1.0, int(nY)) ** 2.0
        elif nY is not None or Ymax not in (None, Y[-1]):
            raise ValueError(f"nodes Y replace nY and Ymax: got nY={nY}, "
                             f"Ymax={Ymax}, Y[-1]={Y[-1]}")
        self.x = np.asarray(x, dtype=float)
        self.Y = np.asarray(Y, dtype=float)
        self.nx, self.nY = self.x.size, self.Y.size
        self.Ymax = float(self.Y[-1])
        if self.Ymax < 20.0:
            raise ValueError(f"Ymax must be at least 20, got {self.Ymax}")
        self.wY = trapezoid_weights(self.Y)
        self.wx = trapezoid_weights(self.x)

    @property
    def shape(self):
        return (self.nx, self.nY)


class Field2D:
    """Scalar grid function on a channel grid."""

    def __init__(self, grid, values):
        self.grid = grid
        values = np.asarray(values, dtype=float)
        if values.shape != tuple(grid.shape):
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        self.values = values

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("x,y,value\n")
            for i, xv in enumerate(self.grid.x):
                for j, yv in enumerate(self.grid.y):
                    fh.write(f"{xv!r},{yv!r},{self.values[i, j]!r}\n")

    def to_binary(self, path):
        xs = np.asarray(self.grid.x, dtype=float)
        ys = np.asarray(self.grid.y, dtype=float)
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
    """Difference operators on a tensor grid, for fields in C order (nx, ny):
    the 1-D matrices ``d{k}x``, ``d{k}y`` (k = 1..3) and the Kronecker CSR
    ``lap``.  All first/second derivative operators are formally second
    order on smoothly stretched nodes and annihilate constants exactly.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.nx, self.ny = self.x.size, self.y.size
        self.d1x, self.d2x, self.d3x = (diff_matrix(self.x, k) for k in (1, 2, 3))
        self.d1y, self.d2y, self.d3y = (diff_matrix(self.y, k) for k in (1, 2, 3))
        self.lap = (sp.kron(self.d2x, sp.identity(self.ny), format="csr")
                    + sp.kron(sp.identity(self.nx), self.d2y, format="csr"))
        self.wx = trapezoid_weights(self.x)
        self.wy = trapezoid_weights(self.y)
        self.w2 = np.outer(self.wx, self.wy).ravel()

    def _axes(self, op):
        """op's 1-D matrices along x and y, None on an axis it leaves alone."""
        k = [op.count(a) for a in "xy"]
        if op != "D" + "x" * k[0] + "y" * k[1] or not 0 < max(k) <= 3:
            raise ValueError(f"unknown operator {op!r}")
        return [getattr(self, f"d{n}{a}") if n else None for n, a in zip(k, "xy")]

    def apply(self, op, f):
        """The operator named ``op`` ("Dx", "Dxy", "Dyyy", "lap", ...) on f,
        flat or (nx, ny), as a C-order (nx, ny) array, byte for byte
        ``kron(op) @ f``: each value adds the same products (wx * wy) * f
        from 0.0 in the same order, along the 1-D stencils' columns."""
        F = np.asarray(f, dtype=float).reshape(self.nx, self.ny)
        if op == "lap":
            return (self.lap @ F.ravel()).reshape(F.shape)
        dx, dy = self._axes(op)
        if dy is None:
            return dx @ F
        if dx is None:
            return np.ascontiguousarray((dy @ F.T).T)
        cx, wx, cy, wy = (a.reshape(d.shape[0], -1) for d in (dx, dy)
                          for a in (d.indices, d.data))
        cols = [F[:, c] for c in cy.T]
        out = np.zeros(F.shape)
        for p, rows in enumerate(cx.T):
            for q, G in enumerate(cols):
                out += (wx[:, p, None] * wy[:, q]) * G[rows]
        return out

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
        if kind not in ("H1", "H2"):
            raise ValueError(f"unknown norm kind {kind!r}")
        s = self.norm_l2(f) ** 2
        for op in ("Dx", "Dy", "Dxx", "Dxy", "Dyy")[:2 if kind == "H1" else 5]:
            s += self.norm_l2(self.apply(op, f)) ** 2
        return float(np.sqrt(s))


def lsq_slope(xs, ys):
    """Least-squares slope of ys vs xs (both already in log space)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.sqrt(res[0] / xs.size)) if res.size else 0.0
    return float(coef[0]), float(coef[1]), resid
