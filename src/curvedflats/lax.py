"""Grid integration of the commuting Lax hierarchy.

The state xi lives in the degree 0..d polynomial loops; each flow is the
isospectral ODE dxi/dx_j = [xi, pi_+ Vt_{r_j}(xi)].  The top coefficient
xi_d is a first integral of every flow: the degree-d coefficient of the
bracket, [xi_d, b0] + [xi_{d-1}, b1], vanishes identically, so xi_d and with it
A1_j = xi_d^{r_j} keep their seed values on the whole grid up to roundoff
(where the RK4 increments of xi_d are absorbed, xi_d compares equal to the
seed's; coarse grids drift by ulps).  Each RK4 edge therefore builds the
powers of xi_d once, from its start state, and every stage evaluates only
the rest of the flow.  An edge is one ``_rk4`` call on one state, with four
``flow_rhs`` calls per substep; each does two row-stack ``dot``s, two
matmuls and in-place updates, and the stage arguments and the RK4
combination reuse the edge's buffers, all in the arithmetic of the
broadcast expressions, so the bytes do not depend on the path.  Fewer calls
per grid need the edges of a slab batched into one call.  The flows
commute, so any spanning tree of the grid fills it: the Lax fill walks the
flat index pairs of ``GridSpec.flat_edges`` with the axes ordered by
decreasing flow power (for two flows: flow 2 along x2 from the seed, then
flow 1 along x1 from every x2-node), so the cheapest flow takes the most
edges, and a ``BlowUpError`` names the first failing node in that order.
The frame integration walks the same tree in the default axis order (x1
from the origin, then x2 from every x1-node, ...: C order), and the
developing map fills it one ``sweep_regions`` block at a time.
The pointwise checks (twist condition, conservation) take the whole grid in
one call.  Everything is deterministic.
"""

import numpy as np

from .errors import BlowUpError, StructuralError
from .loops import (
    LaxState,
    evaluate_stack,
    flow_rhs,
    top_powers,
    trace_powers,
    twist_residual,
)

# Abort integration when the state grows past this factor of the seed norm.
BLOWUP_FACTOR = 1e8
# Overflow and NaN inside an edge surface as a non-finite state, which the
# blow-up check after every substep rejects, so numpy's warnings about them
# are silenced once per integration call.
_BLOWUP_IS_CHECKED = {"over": "ignore", "invalid": "ignore"}


class GridSpec:
    """Rectangular coordinate grid: extents L_j >= 0 sampled at N_j nodes."""

    def __init__(self, extents, nodes):
        extents = tuple(float(v) for v in extents)
        nodes = tuple(int(v) for v in nodes)
        if len(extents) != len(nodes) or not extents:
            raise StructuralError("extents and nodes must have equal length >= 1")
        if any(v <= 0 or not np.isfinite(v) for v in extents):
            raise StructuralError(f"extents must be finite positive: {extents}")
        if any(v < 2 for v in nodes):
            raise StructuralError(f"each axis needs at least 2 nodes: {nodes}")
        self.extents = extents
        self.nodes = nodes

    @property
    def dims(self):
        return len(self.nodes)

    @property
    def steps(self):
        return tuple(l / (n - 1) for l, n in zip(self.extents, self.nodes))

    def flat_edges(self, priority):
        """The grid's spanning tree as three lists of ints: each node's flat
        (C order) index, its predecessor's, and the axis of the step.

        The nodes after the origin come in lexicographic order over the axes
        in ``priority`` order (a permutation of 0, 1, ...; ``range(dims)`` is
        C order), each one step along its last nonzero axis in that order.
        """
        if sorted(priority) != list(range(self.dims)):
            raise StructuralError(f"invalid axis priority {priority}")
        size = int(np.prod(self.nodes))
        # The C-order ravel of the grid transposed to priority order visits
        # the nodes lexicographically over the axes in that order.
        order = np.arange(size).reshape(self.nodes).transpose(priority).ravel()[1:]
        coords = np.unravel_index(order, self.nodes)
        axes = np.zeros(size - 1, dtype=int)
        for ax in priority:
            axes[coords[ax] > 0] = ax
        strides = np.cumprod((1,) + self.nodes[:0:-1])[::-1]
        return order.tolist(), (order - strides[axes]).tolist(), axes.tolist()

    def sweep_regions(self):
        """Yield (axis, region) per axis of the default ``flat_edges`` tree.

        ``region`` indexes the (nodes[0], ..., nodes[axis]) block of nodes
        with zeros on the later axes.  Within it, every node with a nonzero
        index along ``axis`` has its tree predecessor one step back along
        ``axis``, and the block's nodes with index 0 along ``axis`` are
        those of the regions before it, so the regions in order fill the
        grid edge by edge along the default ``flat_edges`` tree.
        """
        for axis in range(self.dims):
            yield axis, (slice(None),) * (axis + 1) + (0,) * (self.dims - axis - 1)

    def refine(self):
        """Same extents with doubled resolution (N -> 2N - 1)."""
        return GridSpec(self.extents, tuple(2 * n - 1 for n in self.nodes))

    def __repr__(self):
        return f"GridSpec(extents={self.extents}, nodes={self.nodes})"


class GridSolution:
    """Lax states on every grid node, stored as one coefficient array."""

    def __init__(self, states, grid, family, spec):
        self.states = states  # (*nodes, d+1, n, n)
        self.grid = grid
        self.family = family
        self.spec = spec

    @property
    def d(self):
        return self.family.d

    def state_at(self, index):
        return LaxState(self.states[tuple(index)], self.spec, check=False)

    def max_twist_residual(self):
        return twist_residual(self.states, 0, self.spec)

    def __repr__(self):
        return f"GridSolution(nodes={self.grid.nodes}, d={self.d})"


def _rk4(stack, r, d, t, steps, norm0):
    # The scalars are computed once per call: ``half * k1`` is the
    # ``(0.5 * h) * k1`` that ``0.5 * h * k1`` evaluates to, byte for byte.
    # xi_d is a first integral, so its powers are built once, from the start
    # state, and shared by every stage of every substep.  ``stack`` (often a
    # view into the grid's states) is only read: the stage arguments go into
    # one buffer of the edge, and each substep's combination
    # y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4) runs in place on k1, in
    # that association (y + x and x + y are the same bytes).
    h = t / steps
    half, sixth = 0.5 * h, h / 6.0
    limit = BLOWUP_FACTOR * norm0
    powers = top_powers(stack[..., d, :, :], r)
    arg = np.empty_like(stack)
    y = stack
    for i in range(steps):
        k1 = flow_rhs(y, powers, d)
        np.multiply(k1, half, out=arg)
        arg += y
        k2 = flow_rhs(arg, powers, d)
        np.multiply(k2, half, out=arg)
        arg += y
        k3 = flow_rhs(arg, powers, d)
        np.multiply(k3, h, out=arg)
        arg += y
        k4 = flow_rhs(arg, powers, d)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= sixth
        k1 += y
        y = k1
        # One reduction: a NaN or inf entry makes the max non-finite, and
        # the negated comparison rejects it as it rejects a large state.
        if not (np.abs(y).max() <= limit):
            raise BlowUpError(
                f"Lax flow r={r} blew up at t={(i + 1) * h:.6g}", last_t=i * h
            )
    return y


def integrate_grid(xi0, family, grid, substeps=4):
    """Fill the grid along ``grid.flat_edges(priority)``, one RK4 edge per
    node.

    ``priority`` orders the axes by decreasing flow power, so the cheapest
    flow drives the innermost axis and most edges, and the dearest flow
    only the one outermost line.  The flows commute, so any spanning tree
    fills the same states up to integration error.  Swapping two adjacent
    axes a, b of a priority moves (N_a - 1)(N_b - 1) P edges from one flow
    to the other, P the product of the node counts of the axes before
    them; the per-edge cost rises with the power, so for any node counts no
    order is cheaper.  The fill walks the flat index pairs of
    ``grid.flat_edges(priority)``.  A ``BlowUpError`` names the first
    failing node in this order.
    """
    if family.dims != grid.dims:
        raise StructuralError(
            f"family has {family.dims} flows but grid has {grid.dims} axes"
        )
    if xi0.d != family.d:
        raise StructuralError("state degree does not match family degree")
    n = xi0.spec.dim
    d = family.d
    states = np.zeros(grid.nodes + (d + 1, n, n))
    states[(0,) * grid.dims] = xi0.stack
    flat = states.reshape((-1, d + 1, n, n))
    norm0 = max(1.0, xi0.norm())
    steps = grid.steps
    priority = sorted(range(family.dims), key=family.powers.__getitem__, reverse=True)
    with np.errstate(**_BLOWUP_IS_CHECKED):
        for node, prev, axis in zip(*grid.flat_edges(priority)):
            try:
                flat[node] = _rk4(
                    flat[prev], family.powers[axis], d, steps[axis], substeps,
                    norm0,
                )
            except BlowUpError as err:
                index = tuple(int(i) for i in np.unravel_index(node, grid.nodes))
                raise BlowUpError(
                    f"blow-up while filling node {index}: {err}", node=index
                ) from err
    return GridSolution(states, grid, family, xi0.spec)


def commutativity_check(xi0, family, target, steps):
    """Max-norm discrepancy between integrating to ``target`` with axis order
    (1 then 2 then ...) versus (2 then 1 then ...).  Converges at 4th order
    in the substep count."""
    if family.dims < 2:
        raise StructuralError("commutativity check needs at least two flows")
    target = tuple(float(v) for v in target)
    if len(target) != family.dims:
        raise StructuralError("target dimension does not match family")

    def run(order):
        y = xi0.stack
        norm0 = max(1.0, xi0.norm())
        for axis in order:
            if target[axis] != 0.0:
                y = _rk4(y, family.powers[axis], family.d, target[axis], steps,
                         norm0)
        return y

    forward = list(range(family.dims))
    swapped = [1, 0] + forward[2:]
    with np.errstate(**_BLOWUP_IS_CHECKED):
        return float(np.max(np.abs(run(forward) - run(swapped))))


def conservation_report(sol, mu_samples, max_power):
    """Relative drift of tr(xi(mu0)^p) across the grid, per mu0 and power p.

    Returns {"table": {mu0: {p: deviation}}, "max": worst deviation}.
    """
    if not mu_samples:
        raise StructuralError("need at least one mu sample")
    if any(m == 0.0 for m in mu_samples):
        raise StructuralError("mu samples must be nonzero")
    table = {}
    powers = range(2, max_power + 1, 2)
    for mu0 in mu_samples:
        vals = trace_powers(evaluate_stack(sol.states, 0, mu0), max_power)
        ref = vals[(0,) * sol.grid.dims]
        devs = np.abs(vals - ref) / (1.0 + np.abs(ref))
        worst_dev = np.max(devs.reshape(-1, len(powers)), axis=0)
        table[mu0] = {p: float(v) for p, v in zip(powers, worst_dev)}
    return {"table": table, "max": max(max(t.values()) for t in table.values())}
