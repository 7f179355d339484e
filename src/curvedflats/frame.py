"""Flat connection family and frame integration.

The 1-form A^mu = A0 + mu A1 is read off per coordinate direction as the
degree-0/1 part of pi_+ Vt_r(xi), for the whole grid in one call of the kernel
the flows share, and its k/p split is checked over the whole grid at once.
The frame equation F^-1 dF = A^mu is integrated edge by edge along the sweep
with a midpoint exponential (order 2).  A^mu lies in so(J), so each step stays
in the group O(J) up to roundoff; a frame whose distance from the group
exceeds ``IN_GROUP_TOL`` is repaired by J-Gram-Schmidt, and every other frame
is kept as the exponential left it.  All spectral samples share that one
sweep: each edge evaluates A^mu for the whole batch of samples and takes one
batched exponential and one batched group check, whose per-slice results
equal the single-matrix ones byte for byte.  The group drift is one scan of
each sample's field.
"""

import numpy as np

from .algebra import expm, group_defects, in_group_residual, slice_error
from .errors import (
    DegenerateFrameError,
    InternalConsistencyError,
    NumericalError,
    StructuralError,
)
from .loops import connection_coefficients, top_powers

# Residual bound for the connection extraction contract.
CONNECTION_TOL = 1e-10
# Smallest |<v, v>_J| accepted as a Gram-Schmidt pivot.
PIVOT_TOL = 1e-10
# A frame with ||F^T J F - J||_max at most this is in O(J) and is kept as is.
IN_GROUP_TOL = 1e-13


class ConnectionForm:
    """Per node and direction j the pair (A0_j in k, A1_j in p)."""

    def __init__(self, a0, a1, grid, spec):
        self.a0 = a0  # (*nodes, k, n, n)
        self.a1 = a1
        self.grid = grid
        self.spec = spec

    @property
    def dims(self):
        return self.grid.dims

    def a_mu(self, mu):
        """The evaluated family A^mu = A0 + mu A1 as one array."""
        return self.a0 + mu * self.a1

    def __repr__(self):
        return f"ConnectionForm(nodes={self.grid.nodes}, dims={self.dims})"


class FrameField:
    """Group-valued frame per node for one spectral sample mu."""

    def __init__(self, mu, frames, grid, spec, max_drift):
        self.mu = mu
        self.frames = frames  # (*nodes, n, n)
        self.grid = grid
        self.spec = spec
        self.max_drift = max_drift

    def __repr__(self):
        return (
            f"FrameField(mu={self.mu}, nodes={self.grid.nodes}, "
            f"drift={self.max_drift:.2e})"
        )


def connection_from_state(sol):
    """Assemble the connection pair (A0_j, A1_j) at every node.

    The degree-0 coefficient must land in k and the degree-1 coefficient in
    p; a violation signals a broken flow and raises.
    """
    spec, powers, d = sol.spec, sol.family.powers, sol.d
    top = sol.states[..., d, :, :]
    pairs = [
        connection_coefficients(sol.states, top_powers(top, r), d) for r in powers
    ]
    a0, a1 = (np.stack(part, axis=-3) for part in zip(*pairs))  # (*nodes, k, n, n)
    bad = np.maximum(
        np.max(np.abs(spec.p_project(a0)), axis=(-2, -1)),
        np.max(np.abs(spec.k_project(a1)), axis=(-2, -1)),
    )
    scale = np.maximum(1.0, np.max(np.abs(sol.states), axis=(-3, -2, -1)))
    limit = CONNECTION_TOL * scale[..., None] ** np.array(powers)  # powers >= 1
    failing = np.argwhere(bad > limit)
    if failing.size:
        # argwhere is in C order: the first failing node, then its first flow.
        *index, j = (int(i) for i in failing[0])
        raise InternalConsistencyError(
            f"connection coefficients off the k/p split at node {tuple(index)},"
            f" flow r={powers[j]}: residual {bad[tuple(failing[0])]:.3e}"
        )
    return ConnectionForm(a0, a1, sol.grid, spec)


def grid_derivative(field, axis, h):
    """Order-2 derivative along a grid axis (central inside, one-sided at the
    boundary)."""
    out = np.empty_like(field)
    fwd = [slice(None)] * field.ndim
    mid_hi = [slice(None)] * field.ndim
    mid_lo = [slice(None)] * field.ndim
    fwd[axis] = slice(1, -1)
    mid_hi[axis] = slice(2, None)
    mid_lo[axis] = slice(None, -2)
    out[tuple(fwd)] = (field[tuple(mid_hi)] - field[tuple(mid_lo)]) / (2.0 * h)

    def edge(at, s0, s1, s2, sign):
        sl = [slice(None)] * field.ndim
        sl[axis] = at
        g0, g1, g2 = sl.copy(), sl.copy(), sl.copy()
        g0[axis], g1[axis], g2[axis] = s0, s1, s2
        out[tuple(sl)] = sign * (
            -3.0 * field[tuple(g0)] + 4.0 * field[tuple(g1)] - field[tuple(g2)]
        ) / (2.0 * h)

    edge(0, 0, 1, 2, 1.0)
    edge(-1, -1, -2, -3, -1.0)
    return out


def mc_residual(conn, mu0, grid):
    """Max-norm zero-curvature defect of A^mu0 over interior nodes.

    For a coordinate pair (i, j) the defect is
    d_i A_j - d_j A_i + [A_i, A_j]; central differences make it O(h^2) for a
    flat connection.
    """
    if grid.dims < 2:
        raise StructuralError("curvature needs at least two coordinate axes")
    if any(nn < 3 for nn in grid.nodes):
        raise StructuralError("need at least 3 nodes per axis for curvature")
    a = conn.a_mu(mu0)
    h = grid.steps
    k = grid.dims
    interior = tuple(slice(1, -1) for _ in range(k))
    worst = 0.0
    for i in range(k):
        ai = a[..., i, :, :]
        for j in range(i + 1, k):
            aj = a[..., j, :, :]
            res = (
                grid_derivative(aj, i, h[i])
                - grid_derivative(ai, j, h[j])
                + ai @ aj
                - aj @ ai
            )
            worst = max(worst, float(np.max(np.abs(res[interior]))))
    return worst


def abelian_residual(conn):
    """Max-norm of [A1_i, A1_j] over all nodes and direction pairs."""
    k = conn.dims
    worst = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            ai = conn.a1[..., i, :, :]
            aj = conn.a1[..., j, :, :]
            worst = max(worst, float(np.max(np.abs(ai @ aj - aj @ ai))))
    return worst


def _column_dots(x, y):
    """<x[b, :, c], y[b, c or 0, :]> for every column c of a stack x (b, n, n).

    One BLAS dot per column, with the strides of ``x[b][:, c] @ y[b, c]`` on
    a single matrix, so every slice sums in the same order as a
    column-by-column loop.
    """
    return (np.swapaxes(x, -1, -2)[:, :, None, :] @ y[..., None])[:, :, 0, 0]


def _gram_schmidt(cols, space, slices, batch):
    """Pivoted J-Gram-Schmidt on a flat stack ``cols`` (b, n, n), which it
    overwrites.  ``slices`` gives each row's flat index in the caller's stack
    of leading shape ``batch``; a ``DegenerateFrameError`` names that slice.
    """
    n = cols.shape[-1]
    j = space.j_diag
    out = np.empty_like(cols)
    jcols = np.empty_like(cols)  # jcols[b, c] = j * cols[b][:, c], contiguous
    picked = np.zeros((len(cols), n), dtype=bool)
    rows = np.arange(len(cols))
    for step in range(n):
        np.multiply(np.swapaxes(cols, -1, -2), j, out=jcols)
        quads = _column_dots(cols, jcols)
        pick = np.argmax(np.where(picked, -1.0, np.abs(quads)), axis=-1)
        q = quads[rows, pick]
        size = np.abs(q)
        if not size.min() >= PIVOT_TOL:  # a NaN pivot fails too
            b = int(np.argmax(~(size >= PIVOT_TOL)))
            raise slice_error(
                f"orthonormalization pivot {size[b]:.3e} below {PIVOT_TOL:.1e}",
                slices[b], batch, DegenerateFrameError,
            )
        u = cols[rows, :, pick] / np.sqrt(size)[:, None]
        out[rows, :, pick] = u
        if step == n - 1:
            break  # no column is read after the last pivot
        picked[rows, pick] = True
        # The columns already picked are updated too; they are not read again.
        coef = _column_dots(cols, (j * u)[:, None, :])
        cols -= (np.sign(q)[:, None] * coef)[:, None, :] * u[:, :, None]
    np.multiply(np.swapaxes(out, -1, -2), j, out=jcols)
    wrong = _column_dots(out, jcols) * j <= 0
    if np.any(wrong):
        b, i = (int(v) for v in np.argwhere(wrong)[0])
        raise slice_error(
            f"column {i} acquired the wrong causal character", slices[b], batch,
            DegenerateFrameError,
        )
    return out


def j_orthonormalize(g, space):
    """Bring every slice of a stack (..., n, n) into the group O(J).

    A slice with ||F^T J F - J||_max <= ``IN_GROUP_TOL`` is already in the
    group and is kept unchanged; when every slice is, the input array itself
    is returned, after one product, one in-place ``abs`` and one ``max``
    (a NaN makes the max NaN and fails the test).  Every other slice, a
    non-finite one included, goes through Gram-Schmidt in the J-inner
    product with column pivoting on |<v,v>_J|: classical Gram-Schmidt for
    definite J, while the pivot order guards against near-null columns in
    the indefinite case.  Every slice picks its own pivot order, so a slice
    gives the same bytes alone or inside any stack.  Columns keep their
    positions and the output sign pattern must match J.  A
    ``DegenerateFrameError`` carries the leading index of the failing slice.
    """
    g = np.asarray(g, dtype=float)
    metric = space.metric
    if g.shape[-2:] == metric.shape and g.size:
        # The product and the difference of ``group_defects``, so the test
        # decides as the per-slice defects do.
        res = np.swapaxes(g, -1, -2) @ (space.j_diag[:, None] * g)
        res -= metric
        if np.abs(res, out=res).max() <= IN_GROUP_TOL:
            return g
    batch, n = g.shape[:-2], g.shape[-1]
    out = g.reshape((-1, n, n)).copy()
    off = np.flatnonzero(~(group_defects(out, space) <= IN_GROUP_TOL))
    if off.size:
        out[off] = _gram_schmidt(out[off], space, off, batch)
    return out.reshape(g.shape)


def integrate_frame(conn, mus, grid, axis_priority=None):
    """Integrate F^-1 dF = A^mu over the grid with F(origin) = I, for every
    spectral sample in ``mus`` at once.

    Each edge applies exp(h * Abar) with Abar the average of the edge's
    endpoint values (midpoint exponential, order 2), then ``j_orthonormalize``,
    which repairs only the frames that have left O(J); both act on the whole
    batch of samples.  The edges are those of ``grid.sweep``, the grid fill
    order; passing ``axis_priority`` permutes which axis is treated as
    primary (used to quantify path independence).  A^mu and the exponent
    h * Abar are built once per grid line, for every edge of the line and
    every sample in one expression each, and an edge only reads its
    exponent; every entry is the arithmetic of the per-edge expression, so
    the bytes are the same.  One line per axis is held at a time: the sweep
    walks the edges of a line in order, interleaved only with lines of later
    axes.  Returns one ``FrameField`` per sample, in order, each a view into
    one (len(mus), *nodes, n, n) array.
    """
    spec = conn.spec
    n = spec.dim
    mus = [float(mu) for mu in mus]
    mu = np.array(mus)[:, None, None]
    h = grid.steps
    frames = np.zeros((len(mus),) + grid.nodes + (n, n))
    every = (slice(None),)
    lines = {}  # axis -> (the line's other indices, (N_axis - 1, M, n, n) exponents)
    for index, prev, axis in grid.sweep(axis_priority):
        if prev is None:
            frames[every + index] = np.eye(n)
            continue
        key = index[:axis] + index[axis + 1:]
        line = lines.get(axis)
        if line is None or line[0] != key:
            at = index[:axis] + (slice(None),) + index[axis + 1:] + (axis, None)
            a_mu = conn.a0[at] + mu * conn.a1[at]  # (N_axis, M, n, n)
            line = lines[axis] = (key, h[axis] * (0.5 * (a_mu[:-1] + a_mu[1:])))
        try:
            frames[every + index] = j_orthonormalize(
                frames[every + prev] @ expm(line[1][index[axis] - 1]), spec.space
            )
        except NumericalError as err:  # expm's range, Gram-Schmidt's pivots
            raise type(err)(
                f"{err} at node {index}, mu={mus[err.index[0]]!r}", node=index
            ) from err
    return [
        FrameField(mu_k, f, grid, spec, in_group_residual(f, spec.space))
        for mu_k, f in zip(mus, frames)
    ]
