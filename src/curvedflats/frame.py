"""Flat connection family and frame integration.

The 1-form A^mu = A0 + mu A1 is read off per coordinate direction as the
degree-0/1 part of pi_+ Vt_r(xi), for the whole grid in one call of the kernel
the flows share, and its k/p split is checked over the whole grid at once.
The frame equation F^-1 dF = A^mu is integrated row by row along
``GridSpec.slabs`` with a midpoint exponential (order 2).  A^mu lies in
so(J), so each step stays in the group O(J) up to roundoff, and every
frame is kept as the exponential left it; a frame whose distance from the
group exceeds ``IN_GROUP_TOL`` scaled by |F|^2 raises.
All spectral samples share that one walk: each row evaluates A^mu for the
whole batch of samples, and each node takes one batched exponential, whose
per-slice results equal the single-matrix ones byte for byte, and one
batched group test.  The frames of all samples are one array; the group
drift of a sample's field is one ``in_group_residual`` scan of it.
The zero-curvature defect of A^mu is the quadratic D0 + mu D1 + mu^2 D2 in
mu; its three coefficient fields are built once per connection and every
spectral sample evaluates that polynomial.
"""

from functools import cached_property

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
# A frame is in O(J) when ||F^T J F - J||_max is at most this times
# max(1, max|F|)^2, the growth of the product's roundoff.
IN_GROUP_TOL = 1e-12


class ConnectionForm:
    """Per node and direction j the pair (A0_j in k, A1_j in p).

    The coefficient fields of the curvature defect are computed on first
    use and kept, so every spectral value shares them; the arrays must not
    change after that.  ``del conn.curvature_coefficients`` frees them, and
    the next use builds them again.
    """

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

    @cached_property
    def curvature_coefficients(self):
        """{(i, j): (D0, D1, D2)} for every axis pair i < j, on the nodes one
        step inside every boundary: the defect of A^mu along (i, j) is
        D0 + mu D1 + mu^2 D2, with

        - D0 = ``curvature_defect`` of A0, dA0 + 1/2 [A0 ^ A0] (the k-part);
        - D1 = d_i A1_j - d_j A1_i + [A0_i, A1_j] + [A1_i, A0_j], that is
          dA1 + [A0 ^ A1] (the p-part);
        - D2 = [A1_i, A1_j], 1/2 [A1 ^ A1] (the abelian part).

        The grid needs at least two axes and 3 nodes on each.
        """
        k, steps = self.dims, self.grid.steps
        inner = _inner_nodes(k, 1)
        out = {}
        for i in range(k):
            for j in range(i + 1, k):
                a1i, a1j = self.a1[..., i, :, :], self.a1[..., j, :, :]
                d1 = central_difference(a1j, k, i, steps[i])
                d1 -= central_difference(a1i, k, j, steps[j])
                a0i, a0j = self.a0[..., i, :, :][inner], self.a0[..., j, :, :][inner]
                a1i, a1j = a1i[inner], a1j[inner]
                d1 += a0i @ a1j
                d1 -= a1j @ a0i
                d1 += a1i @ a0j
                d1 -= a0j @ a1i
                d2 = a1i @ a1j
                d2 -= a1j @ a1i
                out[i, j] = (curvature_defect(self.a0, i, j, steps), d1, d2)
        return out

    def __repr__(self):
        return f"ConnectionForm(nodes={self.grid.nodes}, dims={self.dims})"


def connection_from_state(states, family, grid, spec):
    """Assemble the connection pair (A0_j, A1_j) at every node of the Lax
    states (*nodes, d+1, n, n) of ``family`` on ``grid``.

    The degree-0 coefficient must land in k and the degree-1 coefficient in
    p; a violation signals a broken flow and raises.
    """
    powers, d = family.powers, family.d
    top = states[..., d, :, :]
    pairs = [connection_coefficients(states, top_powers(top, r), d) for r in powers]
    a0, a1 = (np.stack(part, axis=-3) for part in zip(*pairs))  # (*nodes, k, n, n)
    bad = np.maximum(
        np.max(np.abs(spec.p_project(a0)), axis=(-2, -1)),
        np.max(np.abs(spec.k_project(a1)), axis=(-2, -1)),
    )
    scale = np.maximum(1.0, np.max(np.abs(states), axis=(-3, -2, -1)))
    limit = CONNECTION_TOL * scale[..., None] ** np.array(powers)  # powers >= 1
    # A NaN residual or limit (a non-finite state) fails too.
    failing = np.argwhere(~(bad <= limit))
    if failing.size:
        # argwhere is in C order: the first failing node, then its first flow.
        *index, j = (int(i) for i in failing[0])
        at = tuple(failing[0])
        raise InternalConsistencyError(
            f"connection coefficients off the k/p split at node {tuple(index)},"
            f" flow r={powers[j]}: residual {bad[at]:.3e}, limit {limit[at]:.3e}",
            node=tuple(index),
        )
    return ConnectionForm(a0, a1, grid, spec)


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


def _inner_nodes(k, ring, axis=None, shift=0):
    """Index of the nodes of a k-axis grid at least ``ring`` (>= 1) steps
    inside every boundary, moved ``shift`` steps along ``axis``."""
    def bounds(ax):
        s = shift if ax == axis else 0
        return slice(ring + s, s - ring or None)

    return tuple(bounds(ax) for ax in range(k))


def central_difference(field, k, axis, h, ring=1):
    """Order-2 central difference of ``field`` (*nodes, ...), k grid axes,
    along grid axis ``axis``, on the nodes at least ``ring`` (>= 1) steps
    inside every boundary only: the bytes of ``grid_derivative`` there."""
    hi, lo = _inner_nodes(k, ring, axis, 1), _inner_nodes(k, ring, axis, -1)
    return (field[hi] - field[lo]) / (2.0 * h)


def curvature_defect(a, i, j, steps, ring=1):
    """d_i A_j - d_j A_i + [A_i, A_j] for a 1-form field ``a`` (*nodes, k,
    n, n), by central differences along grid axes i, j, computed on the
    nodes at least ``ring`` steps inside every boundary only."""
    k = len(steps)
    inner = _inner_nodes(k, ring)
    ai, aj = a[..., i, :, :], a[..., j, :, :]
    inner_i, inner_j = ai[inner], aj[inner]
    return (
        central_difference(aj, k, i, steps[i], ring)
        - central_difference(ai, k, j, steps[j], ring)
        + inner_i @ inner_j
        - inner_j @ inner_i
    )


def mc_residual(conn, mu0):
    """Max-norm zero-curvature defect of A^mu0 over the interior nodes of
    ``conn.grid``.

    For a coordinate pair (i, j) the defect is ``curvature_defect`` of
    A^mu0 on the interior nodes, evaluated as (D2 mu0 + D1) mu0 + D0 from
    ``conn.curvature_coefficients``: at mu0 = 0 the bytes of the defect of
    A0, elsewhere those of A^mu0 up to roundoff.  Central differences make
    it O(h^2) for a flat connection; a NaN makes it NaN.
    """
    grid = conn.grid
    if grid.dims < 2:
        raise StructuralError("curvature needs at least two coordinate axes")
    if any(nn < 3 for nn in grid.nodes):
        raise StructuralError("need at least 3 nodes per axis for curvature")
    worst = 0.0
    for d0, d1, d2 in conn.curvature_coefficients.values():
        res = np.multiply(d2, mu0)
        res += d1
        res *= mu0
        res += d0
        worst = float(np.maximum(worst, np.max(np.abs(res, out=res))))
    return worst


def abelian_residual(conn):
    """Max-norm of [A1_i, A1_j] over all nodes and direction pairs."""
    k = conn.dims
    worst = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            ai = conn.a1[..., i, :, :]
            aj = conn.a1[..., j, :, :]
            worst = float(np.maximum(worst, np.max(np.abs(ai @ aj - aj @ ai))))
    return worst


def j_orthonormalize(g, space):
    """Test that every slice of a stack (..., n, n) lies in the group O(J)
    and return the input array itself.

    The frame equation keeps each step in O(J) up to roundoff, and the
    roundoff of F^T J F grows with |F|^2, so a slice passes when
    ||F^T J F - J||_max <= ``IN_GROUP_TOL`` * max(1, max|F|)^2.  Every such
    bound is at least ``IN_GROUP_TOL``, so the whole stack's
    ``in_group_residual`` against it passes most stacks outright (a NaN
    makes it NaN and fails that test).  Otherwise the per-slice defects and
    bounds decide; a NaN or an inf fails, and the ``DegenerateFrameError``
    names the first failing slice in C order and carries its index.
    """
    g = np.asarray(g, dtype=float)
    if g.size and in_group_residual(g, space) <= IN_GROUP_TOL:
        return g
    defects = group_defects(g, space)
    bound = IN_GROUP_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1))) ** 2
    # An inf entry makes its bound inf, a NaN makes both NaN: either fails.
    failing = np.flatnonzero(~(defects <= bound) | np.isinf(bound))
    if failing.size:
        b = failing[0]
        raise slice_error(
            f"frame left O(J): max|F^T J F - J| = {defects.flat[b]:.3e} above "
            f"{bound.flat[b]:.3e}",
            b, g.shape[:-2], DegenerateFrameError,
        )
    return g


def integrate_frame(conn, mus):
    """Integrate F^-1 dF = A^mu over the grid with F(origin) = I, for every
    spectral sample in ``mus`` at once.

    The walk takes the rows of ``conn.grid.slabs(range(k))`` in order (x1
    from the origin, then x2 from every x1-node, ...) on flat node views.
    Each node applies exp(h * Abar) to its predecessor's frame, Abar the
    mean of A^mu at the ends of its edge (midpoint exponential, order 2),
    then ``j_orthonormalize``, which tests that the frames are still in
    O(J) and keeps them as they are; both act on the whole batch of
    samples.  A^mu of a row is one expression over its nodes and samples,
    reused as the next row's predecessor term, and the row's exponents are
    one more, in the arithmetic of the per-edge expression, so the bytes
    are the same.  A failure names the first failing node in slab order
    and its sample.  Returns the frames as one (len(mus), *nodes, n, n)
    array, samples in order.
    """
    spec, grid = conn.spec, conn.grid
    n, k = spec.dim, grid.dims
    mus = [float(mu) for mu in mus]
    mu = np.array(mus)[:, None, None]
    frames = np.zeros((len(mus),) + grid.nodes + (n, n))
    a0, a1 = conn.a0.reshape(-1, k, n, n), conn.a1.reshape(-1, k, n, n)
    flat = frames.reshape(len(mus), len(a0), n, n)  # no -1: mus may be empty
    flat[:, 0] = np.eye(n)
    try:
        for axis, ids in grid.slabs(range(k)):
            rows = ids.tolist()
            prev_a = a0[rows[0], axis, None] + mu * a1[rows[0], axis, None]
            for prev_row, row in zip(rows, rows[1:]):
                a_mu = a0[row, axis, None] + mu * a1[row, axis, None]  # (m, M, n, n)
                exponents = grid.steps[axis] * (0.5 * (prev_a + a_mu))
                prev_a = a_mu
                for prev, node, exponent in zip(prev_row, row, exponents):
                    flat[:, node] = j_orthonormalize(
                        flat[:, prev] @ expm(exponent), spec.space
                    )
    except NumericalError as err:  # expm's range, the group test
        index = tuple(int(i) for i in np.unravel_index(node, grid.nodes))
        raise type(err)(
            f"{err} at node {index}, mu={mus[err.index[0]]!r}", node=index
        ) from err
    return frames
