"""Grid integration of the commuting Lax hierarchy.

The state xi lives in the degree 0..d polynomial loops; each flow is the
isospectral ODE dxi/dx_j = [xi, pi_+ Vt_{r_j}(xi)].  The top coefficient
xi_d is a first integral of every flow: the degree-d coefficient of the
bracket, [xi_d, b0] + [xi_{d-1}, b1], vanishes identically, so xi_d and with it
A1_j = xi_d^{r_j} keep their seed values on the whole grid up to roundoff
(where the RK4 increments of xi_d are absorbed, xi_d compares equal to the
seed's; coarse grids drift by ulps).  Each RK4 edge therefore builds the
powers of xi_d once, from its start state, and every stage evaluates only
the rest of the flow.  The Lax fill, the frame integration and the
developing map walk the one spanning tree of ``GridSpec.sweep`` (flow 1
along x1 from the seed, then flow 2 along x2 from every x1-node, ...); the
pointwise checks (twist condition, conservation) take the whole grid in one
call.  Everything is deterministic.
"""

import itertools

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
        self._sweeps = {}  # axis priority -> edge tuple of ``sweep``

    @property
    def dims(self):
        return len(self.nodes)

    @property
    def steps(self):
        return tuple(l / (n - 1) for l, n in zip(self.extents, self.nodes))

    def sweep(self, axis_priority=None):
        """The (index, prev, axis) of every node in lexicographic order over
        the axes in ``axis_priority`` order (default 0, 1, ...), as a tuple.

        The origin comes first with prev = axis = None; every other node is
        one step along ``axis`` from ``prev``, where ``axis`` is its last
        nonzero axis in priority order.  The tuple is built once per priority
        and shared by every sweep of the run (Lax fill, frames, gauge).
        """
        priority = tuple(range(self.dims) if axis_priority is None else axis_priority)
        if sorted(priority) != list(range(self.dims)):
            raise StructuralError(f"invalid axis priority {axis_priority}")
        edges = self._sweeps.get(priority)
        if edges is None:
            edges = self._sweeps[priority] = tuple(self._edges(priority))
        return edges

    def _edges(self, priority):
        for combo in itertools.product(*(range(self.nodes[ax]) for ax in priority)):
            index = [0] * self.dims
            for ax, i in zip(priority, combo):
                index[ax] = i
            moved = [ax for ax, i in zip(priority, combo) if i > 0]
            if not moved:
                yield tuple(index), None, None
                continue
            prev = list(index)
            prev[moved[-1]] -= 1
            yield tuple(index), tuple(prev), moved[-1]

    def sweep_regions(self):
        """Yield (axis, region) per axis in the default sweep order.

        ``region`` indexes the (nodes[0], ..., nodes[axis]) block of nodes
        with zeros on the later axes.  Within it, every node with a nonzero
        index along ``axis`` has its ``sweep`` predecessor one step back
        along ``axis``, and the block's nodes with index 0 along ``axis`` are
        those of the regions before it, so the regions in order fill the
        grid edge by edge exactly as ``sweep`` does.
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
    # state, and shared by every stage of every substep.
    h = t / steps
    half, sixth = 0.5 * h, h / 6.0
    limit = BLOWUP_FACTOR * norm0
    powers = top_powers(stack[..., d, :, :], r)
    y = stack
    for i in range(steps):
        k1 = flow_rhs(y, powers, d)
        k2 = flow_rhs(y + half * k1, powers, d)
        k3 = flow_rhs(y + half * k2, powers, d)
        k4 = flow_rhs(y + h * k3, powers, d)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # One reduction: a NaN or inf entry makes the max non-finite, and
        # the negated comparison rejects it as it rejects a large state.
        if not (np.abs(y).max() <= limit):
            raise BlowUpError(
                f"Lax flow r={r} blew up at t={(i + 1) * h:.6g}", last_t=i * h
            )
    return y


def integrate_flow(xi0, r, t, steps):
    """Integrate the r-flow for time t with the given number of RK4 steps."""
    if steps < 1:
        raise StructuralError(f"steps must be >= 1, got {steps}")
    if t == 0.0:
        return LaxState(xi0.stack.copy(), xi0.spec, check=False)
    norm0 = max(1.0, xi0.norm())
    with np.errstate(**_BLOWUP_IS_CHECKED):
        y = _rk4(xi0.stack, r, xi0.d, float(t), int(steps), norm0)
    return LaxState(y, xi0.spec, check=False)


def integrate_grid(xi0, family, grid, substeps=4):
    """Fill the grid along ``grid.sweep()``, one RK4 edge per node."""
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
    norm0 = max(1.0, xi0.norm())
    steps = grid.steps
    with np.errstate(**_BLOWUP_IS_CHECKED):
        for index, prev, axis in grid.sweep():
            if prev is None:
                continue
            try:
                states[index] = _rk4(
                    states[prev], family.powers[axis], d, steps[axis],
                    substeps, norm0,
                )
            except BlowUpError as err:
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
