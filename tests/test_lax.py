import itertools

import numpy as np
import pytest

from curvedflats import lax
from curvedflats.cli import RunConfig, seed_initial_state
from curvedflats.errors import NumericalError, StructuralError
from curvedflats.lax import (
    GridSpec,
    commutativity_check,
    conservation_report,
    integrate_grid,
)
from curvedflats.loops import (
    FlowFamily,
    LaxState,
    evaluate_stack,
    flow_rhs,
    top_powers,
    trace_powers,
    twist_residual,
)

from helpers import (
    edges_per_node,
    fit_order,
    flow_rhs_per_stage,
    integrate_grid_default_sweep,
    random_element,
    rk4_per_stage,
    so5_spec,
    special_value_stacks,
)

RNG = np.random.default_rng(555)
SPEC = so5_spec()


def random_state(d=3, scale=0.8, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    stack = np.empty((d + 1, 5, 5))
    for k in range(d + 1):
        part = "k" if k % 2 == 0 else "p"
        stack[k] = random_element(rng, SPEC, part=part, scale=scale).matrix
    return LaxState(stack, SPEC)


def test_grid_spec_validation():
    g = GridSpec([0.4, 0.4], [33, 33])
    assert g.steps == (0.4 / 32, 0.4 / 32)
    assert g.refine().nodes == (65, 65)
    with pytest.raises(StructuralError):
        GridSpec([0.4], [33, 33])
    with pytest.raises(StructuralError):
        GridSpec([0.0, 0.4], [33, 33])
    with pytest.raises(StructuralError):
        GridSpec([0.4, 0.4], [1, 33])


@pytest.mark.parametrize("priority", list(itertools.permutations(range(3))))
def test_sweep_visits_every_node_once_after_its_predecessor(priority):
    nodes = (4, 3, 2)
    grid = GridSpec([1.0, 1.0, 1.0], nodes)
    strides = (6, 2, 1)
    seen = {0}  # the origin
    for node, prev, axis in zip(*grid.flat_edges(priority)):
        assert node not in seen
        assert prev in seen
        assert node - prev == strides[axis]
        assert np.unravel_index(node, nodes)[axis] > 0
        seen.add(node)
    assert seen == set(range(int(np.prod(nodes))))


@pytest.mark.parametrize("nodes", [(5,), (4, 3), (4, 3, 2)])
def test_flat_edges_are_the_per_node_edges_in_order(nodes):
    # The whole-grid index arrays give the edges the former per-node
    # generator built, in the same order, for every axis priority.
    grid = GridSpec([1.0] * len(nodes), nodes)
    for priority in itertools.permutations(range(len(nodes))):
        expected = list(edges_per_node(grid, priority))
        flat = np.arange(np.prod(nodes)).reshape(nodes)
        assert list(zip(*grid.flat_edges(priority))) == [
            (int(flat[index]), int(flat[prev]), axis)
            for index, prev, axis in expected[1:]
        ]
    for priority in (tuple(range(1, len(nodes) + 1)), (0, 0), (0, 2)):
        with pytest.raises(StructuralError):
            grid.flat_edges(priority)


@pytest.mark.parametrize("nodes", [(5,), (4, 3), (4, 3, 2)])
def test_sweep_regions_fill_the_sweep_edges(nodes):
    # Within each region block, every node past index 0 along the block's
    # axis is filled from one step back: together these are exactly the
    # (node, predecessor) edges of the sweep, and the regions meet every
    # predecessor before its successors.
    grid = GridSpec([1.0] * len(nodes), nodes)
    index = np.stack(np.indices(nodes), axis=-1)
    edges = []
    for axis, region in grid.sweep_regions():
        block = index[region]
        assert block.shape == nodes[: axis + 1] + (len(nodes),)
        later = (slice(None),) * axis
        for node, prev in zip(block[later + (slice(1, None),)].reshape(-1, len(nodes)),
                              block[later + (slice(None, -1),)].reshape(-1, len(nodes))):
            edges.append((tuple(node), tuple(prev), axis))
    tree = list(edges_per_node(grid, range(len(nodes))))
    assert sorted(edges) == sorted((i, p, a) for i, p, a in tree if p is not None)
    order = {i: k for k, (i, _, _) in enumerate(tree)}
    filled = {(0,) * len(nodes)}
    for node, prev, _axis in edges:
        assert prev in filled and order[prev] < order[node]
        filled.add(node)


def test_top_coefficient_is_a_first_integral():
    # The degree-d coefficient of [xi, pi_+ Vt_r] vanishes, so every flow
    # keeps xi_d at its seed value.  In floating point its RK4 increments
    # are roundoff, absorbed on this grid, so xi_d compares equal (==) to the
    # seed's at every node; a -0 entry may come back as +0, and on coarse
    # grids with long edges xi_d drifts by ulps (see
    # test_hoisted_powers_when_top_moves_inside_an_edge).
    xi = random_state(d=3, seed=11)
    grid = GridSpec([0.4, 0.4], [7, 7])
    sol = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=3)
    top = sol.states[..., 3, :, :]
    assert np.array_equal(top, np.broadcast_to(xi.stack[3], top.shape))
    assert not np.array_equal(sol.states[-1, -1], xi.stack)


def seeded(preset, d, **overrides):
    config = RunConfig({"preset": preset, "d": d, "seed": 0, **overrides})
    return config, seed_initial_state(config)[0]


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("r", [1, 3, 5])
def test_rk4_with_hoisted_powers_matches_per_stage_reference(preset, d, r):
    # Where xi_d does not move inside the edge, the powers built once from
    # the start state are those every stage rebuilt, so the edge equals the
    # former per-stage RK4 byte for byte: an edge of the default grid and a
    # long one.
    _, xi0 = seeded(preset, d)
    norm0 = max(1.0, xi0.norm())
    for t, steps in ((0.0125, 4), (0.2, 2)):
        got = lax._rk4(xi0.stack, r, d, t, steps, norm0)
        assert np.array_equal(got[d], xi0.stack[d])
        expected = rk4_per_stage(xi0.stack, r, d, t, steps, norm0)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
@pytest.mark.parametrize("r", [1, 3, 5])
def test_lean_single_state_kernels_match_per_stage_reference(preset, r):
    # The single-state path of flow_rhs (row-stack dot, in-place halves) and
    # the buffered, in-place RK4 combination give the bytes of the former
    # broadcast kernels, on states all over a filled grid.
    config, xi0 = seeded(preset, 3, nodes=[9, 9])
    states = integrate_grid(xi0, config.family, config.grid, substeps=4).states
    norm0 = max(1.0, xi0.norm())
    for node in ((0, 0), (8, 0), (3, 5), (8, 8)):
        state = states[node]
        got = flow_rhs(state, top_powers(state[3], r), 3)
        assert got.tobytes() == flow_rhs_per_stage(state, r, 3).tobytes()
        got = lax._rk4(state, r, 3, config.grid.steps[0], 4, norm0)
        assert got.tobytes() == rk4_per_stage(state, r, 3, config.grid.steps[0],
                                              4, norm0).tobytes()


def test_lean_flow_rhs_matches_broadcast_path_on_special_values():
    # Signed zeros, NaN and inf: the single-state path equals the same
    # state's slice of the broadcast path.
    rng = np.random.default_rng(9)
    with np.errstate(invalid="ignore", over="ignore"):
        for stack in special_value_stacks(rng, (4, 5, 5)):
            for r in (1, 3):
                powers = top_powers(stack[3], r)
                alone = flow_rhs(stack, powers, 3)
                batched = flow_rhs(stack[None], tuple(p[None] for p in powers), 3)
                assert alone.tobytes() == batched[0].tobytes()


def test_rk4_never_writes_into_its_input(monkeypatch):
    # The fill hands _rk4 a view into the grid's states: the edge must
    # leave it as it was and return an array of its own.
    rk4 = lax._rk4
    checked = []

    def guarded(stack, r, d, t, steps, norm0):
        assert stack.base is not None
        before = stack.copy()
        out = rk4(stack, r, d, t, steps, norm0)
        assert stack.tobytes() == before.tobytes()
        assert not np.shares_memory(out, stack)
        checked.append(r)
        return out

    monkeypatch.setattr(lax, "_rk4", guarded)
    xi = random_state(d=3, seed=8)
    seed_bytes = xi.stack.tobytes()
    grid = GridSpec([0.2, 0.2], [4, 3])
    sol = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=2)
    assert len(checked) == 11
    assert xi.stack.tobytes() == seed_bytes
    assert sol.states[0, 0].tobytes() == seed_bytes


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
def test_grid_and_commutativity_match_per_stage_reference(monkeypatch, preset):
    config, xi0 = seeded(preset, 3, nodes=[9, 9])

    def fill_and_check():
        sol = integrate_grid(xi0, config.family, config.grid, substeps=4)
        disc = commutativity_check(xi0, config.family, config.grid.extents, 8)
        return sol.states, disc

    states, disc = fill_and_check()
    monkeypatch.setattr(lax, "_rk4", rk4_per_stage)
    ref_states, ref_disc = fill_and_check()
    assert states.tobytes() == ref_states.tobytes()
    assert disc == ref_disc


def test_hoisted_powers_when_top_moves_inside_an_edge(monkeypatch):
    # On this coarse grid with one substep per edge, xi_d picks up roundoff
    # of its RK4 increments.  The per-stage RK4 rebuilt the powers from each
    # stage's xi_d; the hoisted ones are the start state's, which moves the
    # states only at roundoff level.
    config, xi0 = seeded(
        "sphere-grassmannian", 3, nodes=[5, 5], extents=[2.0, 2.0], substeps=1
    )
    states = integrate_grid(xi0, config.family, config.grid, substeps=1).states
    monkeypatch.setattr(lax, "_rk4", rk4_per_stage)
    ref = integrate_grid(xi0, config.family, config.grid, substeps=1).states
    top = ref[..., 3, :, :]
    assert not np.array_equal(top, np.broadcast_to(xi0.stack[3], top.shape))
    assert np.max(np.abs(states - ref)) <= 1e-14


@pytest.mark.parametrize(
    "powers,nodes,edges",
    [([1, 3], [5, 4], {1: 16, 3: 3}), ([1, 3, 5], [3, 4, 5], {1: 40, 3: 15, 5: 4})],
)
def test_integrate_grid_gives_the_cheapest_flow_the_most_edges(
    monkeypatch, powers, nodes, edges
):
    # The axes are walked by decreasing flow power: the r = 1 flow drives
    # every edge of the innermost x1 lines, the dearest flow only the
    # outermost line.  Every node still takes exactly one edge.
    seen = []
    rk4 = lax._rk4

    def spy(stack, r, d, t, steps, norm0):
        seen.append(r)
        return rk4(stack, r, d, t, steps, norm0)

    monkeypatch.setattr(lax, "_rk4", spy)
    grid = GridSpec([0.1] * len(nodes), nodes)
    integrate_grid(random_state(d=3, seed=2), FlowFamily(powers, 3), grid, 2)
    assert {r: seen.count(r) for r in set(seen)} == edges
    assert len(seen) == np.prod(nodes) - 1
    assert seen[0] == 1


@pytest.mark.parametrize(
    "preset,powers,nodes,extent,substeps",
    [
        ("sphere-grassmannian", [1, 3], [9, 9], 0.4, 16),
        ("anti-de-sitter", [1, 3], [9, 9], 0.4, 16),
        ("sphere-grassmannian", [1, 3, 5], [4, 5, 3], 0.1, 8),
    ],
)
def test_integrate_grid_matches_default_sweep_fill(preset, powers, nodes, extent,
                                                   substeps):
    # The flows commute, so the fill along the cost-ordered sweep and the
    # former fill along the default sweep reach every node with the same
    # states up to roundoff and RK4 error.  The 2-D grids take the RK4 step
    # of the default config (0.4 / 32 / 4), where both are far below 1e-13.
    config, xi0 = seeded(
        preset, 3, powers=powers, nodes=nodes, extents=[extent] * len(nodes)
    )
    states = integrate_grid(xi0, config.family, config.grid, substeps).states
    ref = integrate_grid_default_sweep(xi0, config.family, config.grid, substeps)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(states - ref)) <= 1e-13 * scale
    assert np.array_equal(states[(0,) * len(nodes)], ref[(0,) * len(nodes)])


def rk4(xi, r, t, steps):
    """One flow for time t in ``steps`` RK4 substeps, as one grid edge runs
    it."""
    with np.errstate(**lax._BLOWUP_IS_CHECKED):
        return lax._rk4(xi.stack, r, xi.d, t, steps, max(1.0, xi.norm()))


def test_integrate_flow_stationary_and_zero_time():
    xi = random_state(d=1)
    assert np.allclose(rk4(xi, 1, 0.7, steps=8), xi.stack, atol=1e-14)


def test_integrate_flow_local_order_five():
    # One step versus two half-steps differs at O(h^5); fit the order by
    # halving h three times.
    xi = random_state(d=3, seed=11)
    diffs = []
    hs = [0.2 / 2**i for i in range(4)]
    for h in hs:
        one = rk4(xi, 3, h, steps=1)
        two = rk4(xi, 3, h, steps=2)
        diffs.append(np.max(np.abs(one - two)))
    order = fit_order(diffs)
    assert 4.5 <= order <= 5.5


def test_integrate_grid_single_node_axis():
    xi = random_state(d=1)
    grid = GridSpec([0.3, 0.3], [2, 2])
    sol = integrate_grid(xi, FlowFamily([1, 3], 1), grid, substeps=2)
    assert np.allclose(sol.states[0, 0], xi.stack)


def test_integrate_grid_stationary_subflow():
    # d=1: the r=1 flow is stationary, so states are constant along x1.
    xi = random_state(d=1)
    grid = GridSpec([0.4, 0.4], [5, 5])
    sol = integrate_grid(xi, FlowFamily([1, 3], 1), grid, substeps=3)
    for i in range(5):
        assert np.allclose(sol.states[i, 0], xi.stack, atol=1e-13)


def test_integrate_grid_finite_and_twisted():
    xi = random_state(d=3, seed=3)
    grid = GridSpec([0.4, 0.4], [9, 9])
    sol = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=4)
    assert np.all(np.isfinite(sol.states))
    assert sol.max_twist_residual() < 1e-9
    # The whole-grid scan equals the worst per-node residual, also when one
    # node is pushed off the twist condition.
    sol.states[3, 5, 2, 0, 4] += 1e-3
    assert sol.max_twist_residual() == max(
        twist_residual(sol.states[index], 0, SPEC) for index in np.ndindex(9, 9)
    )
    assert sol.max_twist_residual() >= 1e-3


def test_integrate_grid_deterministic():
    xi = random_state(d=3, seed=5)
    grid = GridSpec([0.3, 0.3], [5, 5])
    a = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=4)
    b = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=4)
    assert np.array_equal(a.states, b.states)


def test_integrate_flow_blow_up_reports_last_time():
    from curvedflats.errors import BlowUpError

    xi = random_state(d=3, scale=6.0, seed=30)
    with pytest.raises(BlowUpError) as err:
        rk4(xi, 3, 50.0, steps=20)
    assert err.value.last_t is not None


def test_integrate_grid_blow_up_carries_node():
    from curvedflats.errors import BlowUpError

    xi = random_state(d=3, scale=6.0, seed=30)
    grid = GridSpec([50.0, 50.0], [3, 3])
    with pytest.raises(BlowUpError) as err:
        integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=1)
    assert err.value.node is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_grid_non_finite_state_blows_up_at_its_node(monkeypatch, bad):
    # One max-reduction decides: a NaN and an inf state are both rejected
    # at the first substep of the first edge, as a large state is.  The
    # fill's first edge is along x1, the axis of the cheapest flow.
    from curvedflats import lax
    from curvedflats.errors import BlowUpError

    monkeypatch.setattr(lax, "flow_rhs", lambda y, powers, d: np.full_like(y, bad))
    grid = GridSpec([0.4, 0.4], [3, 3])
    with pytest.raises(BlowUpError) as err:
        integrate_grid(random_state(seed=4), FlowFamily([1, 3], 3), grid, substeps=4)
    assert str(err.value) == (
        "blow-up while filling node (1, 0): Lax flow r=1 blew up at t=0.05"
    )
    assert err.value.node == (1, 0)
    assert err.value.__cause__.last_t == 0.0


def test_commutativity_at_origin_and_stationary():
    xi = random_state(d=3, seed=9)
    fam = FlowFamily([1, 3], 3)
    assert commutativity_check(xi, fam, (0.0, 0.0), steps=4) == 0.0
    xi1 = random_state(d=1)
    # Both flows of a d=1 family with powers (1,3): r=1 is stationary and the
    # discrepancy reduces to single-flow reversibility error.
    disc = commutativity_check(xi1, FlowFamily([1, 3], 1), (0.3, 0.3), steps=8)
    assert disc < 1e-12


def test_commutativity_fourth_order():
    xi = random_state(d=3, seed=21)
    fam = FlowFamily([1, 3], 3)
    d4 = commutativity_check(xi, fam, (0.4, 0.4), steps=4)
    d8 = commutativity_check(xi, fam, (0.4, 0.4), steps=8)
    ratio = d4 / d8
    assert 8.0 <= ratio <= 32.0


def test_conservation_stationary_and_constant_grid():
    xi = random_state(d=1)
    grid = GridSpec([0.4], [7])
    sol = integrate_grid(xi, FlowFamily([1], 1), grid, substeps=4)
    rep = conservation_report(sol, [0.6, 1.0], max_power=4)
    assert rep["max"] < 1e-14
    # Identical states at every node deviate by exactly zero.
    from curvedflats.lax import GridSolution

    xi3 = random_state(d=3)
    grid2 = GridSpec([0.4, 0.4], [2, 2])
    states = np.broadcast_to(xi3.stack, (2, 2) + xi3.stack.shape).copy()
    sol2 = GridSolution(states, grid2, FlowFamily([1, 3], 3), SPEC)
    rep2 = conservation_report(sol2, [1.0], max_power=2)
    assert rep2["max"] == 0.0
    states[1, 0, 0, 0, 0] = np.inf
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        conservation_report(sol2, [1.0], max_power=2)


def test_conservation_on_generic_grid():
    xi = random_state(d=3, seed=13)
    grid = GridSpec([0.4, 0.4], [9, 9])
    sol = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=4)
    rep = conservation_report(sol, [0.6, 1.0, 1.6], max_power=4)
    assert rep["max"] <= 1e-8
    def invariants(index, mu0):
        return trace_powers(evaluate_stack(sol.states[index], 0, mu0), 4).tolist()

    # The whole-grid report equals a node-by-node scan bit for bit.
    for mu0, table in rep["table"].items():
        ref = invariants((0, 0), mu0)
        for p, v0 in zip((2, 4), ref):
            assert table[p] == max(
                abs(invariants(i, mu0)[p // 2 - 1] - v0) / (1.0 + abs(v0))
                for i in np.ndindex(9, 9)
            )


def test_conservation_rejects_zero_mu():
    xi = random_state(d=1)
    grid = GridSpec([0.2], [3])
    sol = integrate_grid(xi, FlowFamily([1], 1), grid, substeps=1)
    with pytest.raises(StructuralError):
        conservation_report(sol, [0.0], max_power=2)
