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
``flow_rhs`` calls per substep; each writes two row-stack ``dot``s and two
matmuls into buffers, as the stage arguments and the RK4 sums do, all in
the arithmetic of the broadcast expressions, so the bytes do not depend on
the path.  One fill (and one commutativity check) builds those buffers and
their views once and every edge shares them; only the state an edge
returns is its own.  After each substep the blow-up test is one BLAS
``vdot``: a state whose sum of squares is at most limit^2 / 2 has no entry
past the limit.  Only a state it cannot clear (large, NaN or inf) takes the
exact max|y| test, so the verdict, its message and its node are those of
the exact test alone.  The flows
commute, so any spanning tree of the grid fills it, and ``GridSpec.slabs``
is the one description of that tree: per axis a block of rows, each row
one step along the axis from the row before it.  The Lax fill walks the
slabs with the axes ordered by decreasing flow power (for two flows: flow 2
along x2 from the seed, then flow 1 along x1 from every x2-node, one row
per x1 step), so the cheapest flow takes the most edges, and a
``BlowUpError`` names the first failing node in slab order.  The frame
integration and the developing map walk the slabs of the default axis
order (x1 from the origin, then x2 from every x1-node, ...).
The states travel as one (*nodes, d+1, n, n) array, and the conservation
check takes the whole grid in one call.  Everything is deterministic.
"""

import math
import sys

import numpy as np

from .errors import BlowUpError, ConfigError, StructuralError
from .loops import (
    evaluate_stack,
    flow_rhs,
    state_views,
    top_powers,
    trace_powers,
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

    def slabs(self, priority):
        """The grid's spanning tree as one ``(axis, ids)`` pair per axis, in
        the order of ``priority`` (a permutation of 0, 1, ...).

        ``ids`` (N_axis, m) holds flat C-order node indices: row t the nodes
        t steps along ``axis``, row t - 1 their predecessors, position by
        position.  The block of an axis spans the earlier axes of
        ``priority`` in full (in lexicographic order) and is zero on the
        later ones, so the blocks before it fill its row 0.
        """
        if sorted(priority) != list(range(self.dims)):
            raise StructuralError(f"invalid axis priority {priority}")
        ids = np.arange(int(np.prod(self.nodes))).reshape(self.nodes)
        ids = ids.transpose(priority)  # axes in priority order
        slabs = []
        for a, axis in enumerate(priority):
            block = ids[(slice(None),) * (a + 1) + (0,) * (self.dims - a - 1)]
            slabs.append((axis, np.moveaxis(block, -1, 0).reshape(self.nodes[axis], -1)))
        return slabs

    def refine(self):
        """Same extents with doubled resolution (N -> 2N - 1)."""
        return GridSpec(self.extents, tuple(2 * n - 1 for n in self.nodes))

    def __repr__(self):
        return f"GridSpec(extents={self.extents}, nodes={self.nodes})"


def _rk4_scratch(shape):
    """The buffers of one fill's ``_rk4`` calls, which any number of edges
    of one state shape may share: ``(arg, into_first, at_arg)``, the stage
    argument, the ``flow_rhs`` buffers of k1 (its output buffer, then the
    scratch pair, all as ``state_views``) and those of k2, k3 and k4 (the
    stage argument, one slope buffer, the scratch pair).  Every buffer is
    written before it is read within an edge."""
    arg, first, later, tail, left = [np.empty(shape) for _ in range(5)]
    scratch = (state_views(tail), state_views(left))
    return (
        arg,
        (state_views(first),) + scratch,
        (state_views(arg), state_views(later)) + scratch,
    )


def _rk4(stack, r, d, t, steps, norm0, scratch=None):
    # The scalars are computed once per call: ``half * k1`` is the
    # ``(0.5 * h) * k1`` that ``0.5 * h * k1`` evaluates to, byte for byte.
    # xi_d is a first integral, so its powers are built once, from the start
    # state, and shared by every stage of every substep.  ``stack`` (often a
    # view into the grid's states) is only read.  The stage argument, k1,
    # the slope buffer for k2, k3 and k4 in turn and the scratch pair of
    # every ``flow_rhs`` call come from ``scratch``, a ``_rk4_scratch`` set
    # (a fresh one when None); the state is allocated per call, so the
    # result owns its memory.  Each substep sums
    # y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4) on k1 in that association
    # (y + x and x + y are the same bytes), each slope once it has given its
    # stage argument; the first substep adds y = ``stack`` into the state,
    # and every later one adds into the state in place, as its last read of
    # y.  Only what ``flow_rhs`` returns is read.
    h = t / steps
    half, sixth = 0.5 * h, h / 6.0
    limit = BLOWUP_FACTOR * norm0
    # max|y|^2 <= sum y^2, so a state whose sum of squares is at most
    # limit^2 / 2 passes the exact test; the cap keeps an overflowed square
    # from passing anything.
    limit2 = min(0.5 * limit * limit, sys.float_info.max)
    powers = top_powers(stack[d], r)
    arg, into_first, at_arg = _rk4_scratch(stack.shape) if scratch is None else scratch
    state = np.empty(stack.shape)
    at_state = (state_views(state),) + into_first
    y, buffers = stack, (state_views(stack),) + into_first
    for i in range(steps):
        k1 = flow_rhs(y, powers, d, buffers)
        np.multiply(k1, half, out=arg)
        arg += y
        k = flow_rhs(arg, powers, d, at_arg)  # k2
        np.multiply(k, half, out=arg)
        arg += y
        k *= 2.0
        k1 += k
        k = flow_rhs(arg, powers, d, at_arg)  # k3
        np.multiply(k, h, out=arg)
        arg += y
        k *= 2.0
        k1 += k
        k1 += flow_rhs(arg, powers, d, at_arg)  # k4
        k1 *= sixth
        y, buffers = np.add(k1, y, out=state), at_state
        # One BLAS dot decides the common case.  Only a state it cannot
        # clear takes the exact test: a NaN or inf entry makes the max
        # non-finite, and the negated comparison rejects it as it rejects a
        # large state.
        if not np.vdot(y, y) <= limit2 and not np.abs(y).max() <= limit:
            raise BlowUpError(
                f"Lax flow r={r} blew up at t={(i + 1) * h:.6g}", last_t=i * h
            )
    return y


def integrate_grid(xi0, family, grid, substeps=4):
    """Fill the grid one RK4 edge per node, walking ``grid.slabs(priority)``
    row by row.

    ``priority`` orders the axes by decreasing flow power, so the dearest
    flow runs only the one line of the first slab and the cheapest flow
    every row of the last, the most edges.  The flows commute, so any
    spanning tree fills the same states up to integration error.  Swapping
    two adjacent axes a, b of a priority moves (N_a - 1)(N_b - 1) P edges
    from one flow to the other, P the product of the node counts of the
    axes before them; the per-edge cost rises with the power, so for any
    node counts no order is cheaper.  A ``BlowUpError`` names the first
    failing node in slab order; a grid whose state array cannot be
    allocated is a ``ConfigError`` that names its shape and byte count.
    Returns the states as one (*nodes, d+1, n, n) array.
    """
    if family.dims != grid.dims:
        raise StructuralError(
            f"family has {family.dims} flows but grid has {grid.dims} axes"
        )
    if xi0.d != family.d:
        raise StructuralError("state degree does not match family degree")
    n = xi0.spec.dim
    d = family.d
    shape = grid.nodes + (d + 1, n, n)
    try:
        states = np.zeros(shape)
    except MemoryError as err:  # the grid asks for more than the host has
        raise ConfigError(
            f"the Lax states of grid {grid.nodes} need an array of shape"
            f" {shape}, {8 * math.prod(shape)} bytes, which cannot be allocated"
        ) from err
    states[(0,) * grid.dims] = xi0.stack
    flat = states.reshape((-1, d + 1, n, n))
    norm0 = max(1.0, xi0.norm())
    priority = sorted(range(family.dims), key=family.powers.__getitem__, reverse=True)
    scratch = _rk4_scratch(xi0.stack.shape)
    try:
        with np.errstate(**_BLOWUP_IS_CHECKED):
            for axis, ids in grid.slabs(priority):
                r, t = family.powers[axis], grid.steps[axis]
                rows = ids.tolist()
                for prev_row, row in zip(rows, rows[1:]):
                    for prev, node in zip(prev_row, row):
                        flat[node] = _rk4(flat[prev], r, d, t, substeps, norm0,
                                          scratch)
    except BlowUpError as err:  # only ``_rk4`` raises it, so ``node`` is set
        index = tuple(int(i) for i in np.unravel_index(node, grid.nodes))
        raise BlowUpError(
            f"blow-up while filling node {index}: {err}", node=index
        ) from err
    return states


def commutativity_check(xi0, family, target, steps):
    """Max-norm discrepancy between integrating to ``target`` with axis order
    (1 then 2 then ...) versus (2 then 1 then ...).  Converges at 4th order
    in the substep count."""
    if family.dims < 2:
        raise StructuralError("commutativity check needs at least two flows")
    target = tuple(float(v) for v in target)
    if len(target) != family.dims:
        raise StructuralError("target dimension does not match family")

    norm0 = max(1.0, xi0.norm())
    scratch = _rk4_scratch(xi0.stack.shape)

    def run(order):
        y = xi0.stack
        for axis in order:
            if target[axis] != 0.0:
                y = _rk4(y, family.powers[axis], family.d, target[axis], steps,
                         norm0, scratch)
        return y

    forward = list(range(family.dims))
    swapped = [1, 0] + forward[2:]
    with np.errstate(**_BLOWUP_IS_CHECKED):
        return float(np.max(np.abs(run(forward) - run(swapped))))


def conservation_report(states, mu_samples, max_power):
    """Relative drift of tr(xi(mu0)^p) across the grid of ``states``
    (*nodes, d+1, n, n), per mu0 and power p, against the origin node.

    Returns {"table": {mu0: {p: deviation}}, "max": worst deviation}.
    """
    if not mu_samples:
        raise StructuralError("need at least one mu sample")
    if any(m == 0.0 for m in mu_samples):
        raise StructuralError("mu samples must be nonzero")
    table = {}
    powers = range(2, max_power + 1, 2)
    for mu0 in mu_samples:
        vals = trace_powers(evaluate_stack(states, 0, mu0), max_power)
        ref = vals[(0,) * (states.ndim - 3)]
        devs = np.abs(vals - ref) / (1.0 + np.abs(ref))
        worst_dev = np.max(devs.reshape(-1, len(powers)), axis=0)
        table[mu0] = {p: float(v) for p, v in zip(powers, worst_dev)}
    return {"table": table, "max": max(max(t.values()) for t in table.values())}
