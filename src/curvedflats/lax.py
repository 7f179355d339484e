"""Grid integration of the commuting Lax hierarchy.

The state xi lives in the degree 0..d polynomial loops; each flow is the
isospectral ODE dxi/dx_j = [xi, pi_+ Vt_{r_j}(xi)].  The top coefficient
xi_d is a first integral of every flow: the degree-d coefficient of the
bracket, [xi_d, b0] + [xi_{d-1}, b1], vanishes identically, so xi_d and with it
A1_j = xi_d^{r_j} keep their seed values on the whole grid up to roundoff
(where the RK4 increments of xi_d are absorbed, xi_d compares equal to the
seed's; coarse grids drift by ulps).  Each RK4 edge therefore builds the
powers of xi_d once, from its start state, and every stage evaluates only
the rest of the flow.  The fill integrates one slab row of states
(m, d+1, n, n) per ``_rk4`` call, stage by stage: every stage calls
``flow_rhs``, which takes one state, once per node of the row; it writes
two row-stack ``dot``s into buffers, so each product has the gemm shape of
a one-node edge, and forms each commutator from its right product alone.
That needs every operand in so(J): an explicit seed off so(J) by delta
moves the flow by O(delta).  The slopes, and with them the RK4 sums and
every filled state of a seed in so(J), are exactly J-skew.  The stage
arguments, the RK4 sums and the blow-up test run once on the whole row,
elementwise in the association of a node's own RK4 sums, so a node's bytes
do not depend on the width of its row.  One fill (and one commutativity check, whose
rows are of one state) builds the row buffers and every node's views once;
only the states a row returns are its own.  After each substep the blow-up
test is one BLAS ``vdot`` over the row: a row whose sum of squares is at
most limit^2 / 2 has no entry past the limit.  Only a row it cannot clear
(large, NaN or inf) takes the exact max|y| test, and a row that fails it
runs again one node at a time, so the verdict, its message and its node
are those of the exact test on a node-by-node fill.  The flows
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
    flow_buffers,
    flow_rhs,
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


def _rk4_scratch(shape, width):
    """The buffers of one fill's ``_rk4`` calls on rows of at most ``width``
    states of ``shape``: ``(y, arg, k1, k, nodes)``.  ``y`` and ``arg`` are
    (width,) + shape: the row's state and its stage argument.  ``k1`` and
    ``k``, the slope buffers of k1 and of k2, k3 and k4, are the first
    halves ``K[:, 0]`` of (width, 2) + shape arrays whose second halves hold
    each node's commutator tails (see ``flow_buffers``).  ``nodes`` holds
    per node ``(y_j, at_y, arg_j, at_arg)``: its state with the
    ``flow_buffers`` of k1 and its stage argument with those of k2, k3 and
    k4.  Every node shares one scratch pair, and every buffer is written
    before it is read within a row."""
    y, arg = np.empty((width,) + shape), np.empty((width,) + shape)
    k1_pairs, k_pairs = np.zeros((width, 2) + shape), np.zeros((width, 2) + shape)
    scratch = np.empty((2,) + shape)
    nodes = tuple(
        (y[j], flow_buffers(y[j], k1_pairs[j], scratch),
         arg[j], flow_buffers(arg[j], k_pairs[j], scratch))
        for j in range(width)
    )
    return y, arg, k1_pairs[:, 0], k_pairs[:, 0], nodes


def _rk4(rows, r, d, t, steps, norm0, signs, scratch=None):
    """RK4 of the r-flow for time ``t`` in ``steps`` substeps on every state
    of ``rows`` (m, d+1, n, n), stage by stage across the row; returns the
    m states as an array of their own.  ``signs`` is the ``skew_signs`` of
    the states' space, which ``flow_rhs`` takes.

    Every stage calls ``flow_rhs`` once per node, on that node's single
    state, so every product has the gemm shape of a one-node call; the
    stage arguments, the RK4 sums and the blow-up test run once on the
    whole row.  A row fails when any of its nodes fails, at the first
    substep where one does; the caller finds the node.
    """
    # The scalars are computed once per call: ``half * k1`` is the
    # ``(0.5 * h) * k1`` that ``0.5 * h * k1`` evaluates to, byte for byte.
    # xi_d is a first integral, so each node's powers are built once, from
    # its start state in ``rows``, which is only read, and shared by every
    # stage of every substep.  The buffers come from ``scratch``, a
    # ``_rk4_scratch`` set at least m wide (a fresh one when None).  Each
    # substep sums y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4) on k1 in that
    # association (y + x and x + y are the same bytes), each slope once it
    # has given its stage argument, and adds it into the state in place, as
    # its last read of y.  Per node, the ``k1_calls`` argument set reads the
    # state and the ``k_calls`` one the stage argument; ``flow_rhs`` writes
    # each slope into its buffer.
    m = len(rows)
    h = t / steps
    half, sixth = 0.5 * h, h / 6.0
    limit = BLOWUP_FACTOR * norm0
    # max|y|^2 <= sum y^2, so a row whose sum of squares is at most
    # limit^2 / 2 has no entry past the limit; the cap keeps an overflowed
    # square from passing anything.
    limit2 = min(0.5 * limit * limit, sys.float_info.max)
    if scratch is None:
        scratch = _rk4_scratch(rows.shape[1:], m)
    y, arg, k1, k = (buf[:m] for buf in scratch[:4])
    k1_calls, k_calls = [], []
    for (y_j, at_y, arg_j, at_arg), top in zip(scratch[4], rows[:, d]):
        powers = top_powers(top, r)
        k1_calls.append((y_j, powers, d, signs, at_y))
        k_calls.append((arg_j, powers, d, signs, at_arg))
    np.copyto(y, rows)
    for i in range(steps):
        for call in k1_calls:
            flow_rhs(*call)  # k1
        np.multiply(k1, half, out=arg)
        arg += y
        for call in k_calls:
            flow_rhs(*call)  # k2
        np.multiply(k, half, out=arg)
        arg += y
        k *= 2.0
        k1 += k
        for call in k_calls:
            flow_rhs(*call)  # k3
        np.multiply(k, h, out=arg)
        arg += y
        k *= 2.0
        k1 += k
        for call in k_calls:
            flow_rhs(*call)  # k4
        k1 += k
        k1 *= sixth
        y += k1
        # One BLAS dot over the row decides the common case.  Only a row it
        # cannot clear takes the exact test: a NaN or inf entry makes the
        # max non-finite, and the negated comparison rejects it as it
        # rejects a large state.
        if not np.vdot(y, y) <= limit2 and not np.abs(y).max() <= limit:
            raise BlowUpError(
                f"Lax flow r={r} blew up at t={(i + 1) * h:.6g}", last_t=i * h
            )
    return y.copy()


def integrate_grid(xi0, family, grid, substeps=4):
    """Fill the grid one slab row at a time, walking
    ``grid.slabs(priority)``: each row is one ``_rk4`` call on the gathered
    states of the row before it, one RK4 edge per node.

    ``priority`` orders the axes by decreasing flow power, so the dearest
    flow runs only the one line of the first slab and the cheapest flow
    every row of the last, the most edges.  The flows commute, so any
    spanning tree fills the same states up to integration error.  Swapping
    two adjacent axes a, b of a priority moves (N_a - 1)(N_b - 1) P edges
    from one flow to the other, P the product of the node counts of the
    axes before them; the per-edge cost rises with the power, so for any
    node counts no order is cheaper.  A row that blows up runs again one
    node at a time, as rows of one, so the ``BlowUpError`` names the first
    failing node in slab order, with the message and ``last_t`` of a
    node-by-node fill; a grid whose state array cannot be allocated is a
    ``ConfigError`` that names its shape and byte count.  Returns the
    states as one (*nodes, d+1, n, n) array.
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
    slabs = grid.slabs(priority)
    scratch = _rk4_scratch(xi0.stack.shape, max(ids.shape[1] for _, ids in slabs))
    signs = xi0.spec.space.skew_signs
    try:
        with np.errstate(**_BLOWUP_IS_CHECKED):
            for axis, ids in slabs:
                r, t = family.powers[axis], grid.steps[axis]
                for prev_row, row in zip(ids, ids[1:]):
                    try:
                        flat[row] = _rk4(flat[prev_row], r, d, t, substeps, norm0,
                                         signs, scratch)
                    except BlowUpError:
                        # The first failing node in slab order may fail at a
                        # later substep than another node of its row: the
                        # nodes run again alone, and the first to raise (a
                        # node of a failed row does) is the fill's error.
                        for prev, node in zip(prev_row.tolist(), row.tolist()):
                            _rk4(flat[prev][None], r, d, t, substeps, norm0,
                                 signs, scratch)
                        raise
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
    scratch = _rk4_scratch(xi0.stack.shape, 1)
    signs = xi0.spec.space.skew_signs

    def run(order):  # the state as a row of one
        y = xi0.stack[None]
        for axis in order:
            if target[axis] != 0.0:
                y = _rk4(y, family.powers[axis], family.d, target[axis], steps,
                         norm0, signs, scratch)
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
