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
    state_views,
    top_powers,
    trace_powers,
    twist_residual,
)

from helpers import (
    KERNEL_CASES,
    edges_per_node,
    fit_order,
    flow_rhs_per_stage,
    integrate_grid_default_sweep,
    integrate_grid_node_by_node,
    kernel_case,
    random_element,
    rk4_per_stage,
    so5_spec,
    special_value_stacks,
    trace_powers_from_identity,
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


def slab_edges(grid, priority):
    """The (node, predecessor, axis) flat index triples of
    ``grid.slabs(priority)`` in walk order: row by row, position by
    position."""
    for axis, ids in grid.slabs(priority):
        for prev_row, row in zip(ids, ids[1:]):
            for prev, node in zip(prev_row, row):
                yield int(node), int(prev), axis


@pytest.mark.parametrize("priority", list(itertools.permutations(range(3))))
def test_sweep_visits_every_node_once_after_its_predecessor(priority):
    nodes = (4, 3, 2)
    grid = GridSpec([1.0, 1.0, 1.0], nodes)
    strides = (6, 2, 1)
    seen = {0}  # the origin
    for node, prev, axis in slab_edges(grid, priority):
        assert node not in seen
        assert prev in seen
        assert node - prev == strides[axis]
        assert np.unravel_index(node, nodes)[axis] > 0
        seen.add(node)
    assert seen == set(range(int(np.prod(nodes))))


@pytest.mark.parametrize("nodes", [(5,), (4, 3), (4, 3, 2)])
def test_slabs_are_the_per_node_edges(nodes):
    # Every node after the origin is reached exactly once, from the
    # predecessor of the per-node tree, which the walk fills before it.
    grid = GridSpec([1.0] * len(nodes), nodes)
    flat = np.arange(np.prod(nodes)).reshape(nodes)
    for priority in itertools.permutations(range(len(nodes))):
        expected = {
            int(flat[index]): (int(flat[prev]), axis)
            for index, prev, axis in edges_per_node(grid, priority)
            if prev is not None
        }
        filled = {0}
        for node, prev, axis in slab_edges(grid, priority):
            assert node not in filled
            assert expected.pop(node) == (prev, axis)
            assert prev in filled
            filled.add(node)
        assert not expected
    for priority in (tuple(range(1, len(nodes) + 1)), (0, 0), (0, 2)):
        with pytest.raises(StructuralError):
            grid.slabs(priority)


@pytest.mark.parametrize("nodes", [(5,), (4, 3), (4, 3, 2)])
def test_slab_blocks_span_the_earlier_axes(nodes):
    # The block of each axis spans every earlier axis of the priority in
    # full and is zero on every later one; rows are steps along the axis.
    grid = GridSpec([1.0] * len(nodes), nodes)
    index = np.stack(np.unravel_index(np.arange(np.prod(nodes)), nodes), axis=-1)
    for priority in itertools.permutations(range(len(nodes))):
        slabs = grid.slabs(priority)
        assert [axis for axis, _ in slabs] == list(priority)
        for a, (axis, ids) in enumerate(slabs):
            earlier, later = list(priority[:a]), list(priority[a + 1:])
            assert ids.shape == (nodes[axis], int(np.prod([nodes[e] for e in earlier])))
            block = index[ids]  # (N_axis, m, dims)
            assert np.all(block[..., later] == 0)
            assert np.all(block[..., axis] == np.arange(nodes[axis])[:, None])


def test_top_coefficient_is_a_first_integral():
    # The degree-d coefficient of [xi, pi_+ Vt_r] vanishes, so every flow
    # keeps xi_d at its seed value.  In floating point its RK4 increments
    # are roundoff, absorbed on this grid, so xi_d compares equal (==) to the
    # seed's at every node; a -0 entry may come back as +0, and on coarse
    # grids with long edges xi_d drifts by ulps (see
    # test_hoisted_powers_when_top_moves_inside_an_edge).
    xi = random_state(d=3, seed=11)
    grid = GridSpec([0.4, 0.4], [7, 7])
    states = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=3)
    top = states[..., 3, :, :]
    assert np.array_equal(top, np.broadcast_to(xi.stack[3], top.shape))
    assert not np.array_equal(states[-1, -1], xi.stack)


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
    # long one, each a row of one.
    _, xi0 = seeded(preset, d)
    norm0 = max(1.0, xi0.norm())
    for t, steps in ((0.0125, 4), (0.2, 2)):
        got = lax._rk4(xi0.stack[None], r, d, t, steps, norm0)
        assert np.array_equal(got[0, d], xi0.stack[d])
        expected = rk4_per_stage(xi0.stack[None], r, d, t, steps, norm0)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
@pytest.mark.parametrize("r", [1, 3, 5])
def test_lean_single_state_kernels_match_per_stage_reference(preset, r):
    # The single-state path of flow_rhs (row-stack dot, in-place halves) and
    # the buffered, in-place RK4 combination give the bytes of the former
    # broadcast kernels, on states all over a filled grid, as one row.  The
    # single-state path returns the output buffer it was given.
    config, xi0 = seeded(preset, 3, nodes=[9, 9])
    states = integrate_grid(xi0, config.family, config.grid, substeps=4)
    norm0 = max(1.0, xi0.norm())
    row = np.stack([states[node] for node in ((0, 0), (8, 0), (3, 5), (8, 8))])
    for state in row:
        got = flow_rhs(state, top_powers(state[3], r), 3)
        assert got.tobytes() == flow_rhs_per_stage(state, r, 3).tobytes()
        buffers = (state_views(state),) + tuple(
            state_views(np.empty_like(state)) for _ in range(3)
        )
        assert flow_rhs(state, top_powers(state[3], r), 3, buffers) is buffers[1][0]
    got = lax._rk4(row, r, 3, config.grid.steps[0], 4, norm0)
    assert got.tobytes() == rk4_per_stage(row, r, 3, config.grid.steps[0],
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
    # The fill hands _rk4 the gathered states of a row, and the
    # commutativity check a view of the seed: the row must be left as it
    # was, and the result is an array of its own.
    rk4 = lax._rk4
    checked, views = [], []

    def guarded(rows, r, d, t, steps, norm0, scratch=None):
        assert rows.ndim == 4
        views.append(rows.base is not None)
        before = rows.copy()
        out = rk4(rows, r, d, t, steps, norm0, scratch)
        assert rows.tobytes() == before.tobytes()
        assert not np.shares_memory(out, rows)
        checked.append(len(rows))
        return out

    monkeypatch.setattr(lax, "_rk4", guarded)
    xi = random_state(d=3, seed=8)
    seed_bytes = xi.stack.tobytes()
    family, grid = FlowFamily([1, 3], 3), GridSpec([0.2, 0.2], [4, 3])
    states = integrate_grid(xi, family, grid, substeps=2)
    assert sum(checked) == 11 and checked == [1, 1, 3, 3, 3]
    assert xi.stack.tobytes() == seed_bytes
    assert states[0, 0].tobytes() == seed_bytes
    del views[:]
    commutativity_check(xi, family, grid.extents, 2)
    assert views[0] and views[2]  # each order starts from the seed itself
    assert xi.stack.tobytes() == seed_bytes


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_rk4_result_owns_its_memory(steps):
    # commutativity_check feeds one edge's result into the next edge: each
    # result is an array of its own, which the next call neither shares nor
    # writes, whatever the number of substeps.
    xi = random_state(d=3, seed=8)
    norm0 = max(1.0, xi.norm())
    first = lax._rk4(xi.stack[None], 3, 3, 0.1, steps, norm0)
    kept = first.copy()
    second = lax._rk4(first, 1, 3, 0.1, steps, norm0)
    assert first.flags.owndata and second.flags.owndata
    assert not np.shares_memory(first, xi.stack)
    assert not np.shares_memory(second, first)
    assert first.tobytes() == kept.tobytes()
    assert not np.array_equal(second, first)


def test_fill_and_commutativity_build_one_rk4_scratch_set(monkeypatch):
    # Every row of one fill, and both orders of one commutativity check,
    # share one set of stage buffers, as wide as the widest row (one for the
    # check); each row still returns states of its own, with the bytes of a
    # row that builds its own set.
    built, results, widths = [], [], []
    scratch, rk4 = lax._rk4_scratch, lax._rk4

    def counted(shape, width):
        built.append((shape, width))
        return scratch(shape, width)

    def kept(*args):
        results.append(rk4(*args))
        assert len(args) == 7 and args[6] is not None
        rows = args[0]
        fresh = rk4(*args[:6], scratch(rows.shape[1:], len(rows)))
        assert results[-1].tobytes() == fresh.tobytes()
        widths.append(len(rows))
        return results[-1]

    monkeypatch.setattr(lax, "_rk4_scratch", counted)
    monkeypatch.setattr(lax, "_rk4", kept)
    xi = random_state(d=3, seed=8)
    family, grid = FlowFamily([1, 3], 3), GridSpec([0.2, 0.2], [4, 3])
    integrate_grid(xi, family, grid, substeps=2)
    assert built == [((4, 5, 5), 3)] and sum(widths) == 11 and len(results) == 5
    commutativity_check(xi, family, grid.extents, 2)
    assert built == [((4, 5, 5), 3), ((4, 5, 5), 1)]
    assert sum(widths) == 15 and len(results) == 9
    assert all(out.flags.owndata for out in results)
    assert not any(np.shares_memory(a, b) for a in results for b in results
                   if a is not b)


def counted_reference(widths):
    """``rk4_per_stage`` in ``_rk4``'s place, appending each row's width to
    ``widths``, so a test can tell that the reference ran."""
    def reference(rows, *args):
        widths.append(len(rows))
        return rk4_per_stage(rows, *args)

    return reference


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
def test_grid_and_commutativity_match_per_stage_reference(monkeypatch, preset):
    config, xi0 = seeded(preset, 3, nodes=[9, 9])

    def fill_and_check():
        states = integrate_grid(xi0, config.family, config.grid, substeps=4)
        disc = commutativity_check(xi0, config.family, config.grid.extents, 8)
        return states, disc

    states, disc = fill_and_check()
    widths = []
    monkeypatch.setattr(lax, "_rk4", counted_reference(widths))
    ref_states, ref_disc = fill_and_check()
    assert sum(widths) == 80 + 4 and max(widths) == 9  # the reference ran
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
    states = integrate_grid(xi0, config.family, config.grid, substeps=1)
    widths = []
    monkeypatch.setattr(lax, "_rk4", counted_reference(widths))
    ref = integrate_grid(xi0, config.family, config.grid, substeps=1)
    assert sum(widths) == 24  # the reference filled every node
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
    # The axes are walked by decreasing flow power: the dearest flow runs
    # only the line of the first slab, first, and the r = 1 flow every row
    # of the last slab.  Every node still takes exactly one edge: ``seen``
    # holds the flow of every node of every row.
    seen = []
    rk4 = lax._rk4

    def spy(rows, r, d, t, steps, norm0, scratch=None):
        seen.extend([r] * len(rows))
        return rk4(rows, r, d, t, steps, norm0, scratch)

    monkeypatch.setattr(lax, "_rk4", spy)
    grid = GridSpec([0.1] * len(nodes), nodes)
    integrate_grid(random_state(d=3, seed=2), FlowFamily(powers, 3), grid, 2)
    assert {r: seen.count(r) for r in set(seen)} == edges
    assert len(seen) == np.prod(nodes) - 1
    assert seen[0] == max(powers)


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
    states = integrate_grid(xi0, config.family, config.grid, substeps)
    ref = integrate_grid_default_sweep(xi0, config.family, config.grid, substeps)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(states - ref)) <= 1e-13 * scale
    assert np.array_equal(states[(0,) * len(nodes)], ref[(0,) * len(nodes)])


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("powers,nodes", [([3], [9]), ([1, 3], [9, 7]),
                                          ([1, 3, 5], [4, 5, 3])])
def test_row_fill_equals_node_by_node_fill(monkeypatch, preset, d, powers, nodes):
    # A row's RK4 sums and blow-up test run once over the whole row, but
    # every slope is one flow_rhs call on one node's single state: the
    # row fill has the bytes of the fill that runs each node alone, and
    # makes 4 x substeps flow_rhs calls per filled node.
    config, xi0 = seeded(preset, d, powers=powers, nodes=nodes,
                         extents=[0.4] * len(nodes))
    ref = integrate_grid_node_by_node(xi0, config.family, config.grid, 4)
    shapes, rhs = [], lax.flow_rhs

    def spy(stack, powers, d, buffers=None):
        shapes.append(stack.shape)
        return rhs(stack, powers, d, buffers)

    monkeypatch.setattr(lax, "flow_rhs", spy)
    states = integrate_grid(xi0, config.family, config.grid, 4)
    assert states.tobytes() == ref.tobytes()
    assert shapes == [xi0.stack.shape] * (4 * 4 * (int(np.prod(nodes)) - 1))


def blow_up_of(fill, config, xi0):
    from curvedflats.errors import BlowUpError

    with pytest.raises(BlowUpError) as err:
        fill(xi0, config.family, config.grid, config.substeps)
    return err.value.node, str(err.value), err.value.__cause__.last_t


@pytest.mark.parametrize("overrides,node", [
    # The first edge, along x2, overflows; then the first row along x1.
    ({"nodes": [5, 5], "extents": [0.4, 1e308]}, (0, 1)),
    ({"nodes": [5, 5], "extents": [1e308, 0.4]}, (1, 0)),
    # Three flows: the first row of the x2 slab (3 nodes) overflows, and
    # the second row of the x1 slab (12 nodes) grows past the limit.
    ({"powers": [1, 3, 5], "nodes": [3, 4, 3], "extents": [0.4, 1e308, 0.4]},
     (0, 1, 0)),
    ({"powers": [1, 3, 5], "nodes": [3, 4, 3], "extents": [20.0, 1.0, 0.4],
      "seed": 7}, (2, 0, 0)),
])
def test_row_fill_blows_up_where_node_by_node_fill_does(overrides, node):
    config, xi0 = seeded("sphere-grassmannian", 3, **overrides)
    got = blow_up_of(integrate_grid, config, xi0)
    assert got == blow_up_of(integrate_grid_node_by_node, config, xi0)
    assert got[0] == node


def test_row_blow_up_names_its_first_failing_node_not_its_first_failure():
    # anti-de-sitter, seed 1: on row x1 = 2 node (2, 0) fails at a later
    # substep than the nodes after it.  The row fails at the earlier
    # substep, and the fill names (2, 0) with its own time, as the
    # node-by-node fill does.
    from curvedflats.errors import BlowUpError

    overrides = {"seed": 1, "nodes": [3, 4], "extents": [5.0, 2.0], "substeps": 16}
    config, xi0 = seeded("anti-de-sitter", 3, **overrides)
    got = blow_up_of(integrate_grid, config, xi0)
    assert got == blow_up_of(integrate_grid_node_by_node, config, xi0)
    assert got[0] == (2, 0)
    # Row x1 = 1, from a grid one x1 node short with the same steps.
    short = GridSpec([2.5, 2.0], [2, 4])
    assert short.steps == config.grid.steps
    before = integrate_grid(xi0, config.family, short, 16)[1]
    failed_at = []
    with np.errstate(**lax._BLOWUP_IS_CHECKED):
        for state in before:
            with pytest.raises(BlowUpError) as err:
                lax._rk4(state[None], 1, 3, 2.5, 16, max(1.0, xi0.norm()))
            failed_at.append(err.value.last_t)
    assert failed_at[0] == got[2] and min(failed_at[1:]) < failed_at[0]


def rk4(xi, r, t, steps):
    """One flow for time t in ``steps`` RK4 substeps, as one grid edge runs
    it."""
    with np.errstate(**lax._BLOWUP_IS_CHECKED):
        return lax._rk4(xi.stack[None], r, xi.d, t, steps,
                        max(1.0, xi.norm()))[0]


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
    states = integrate_grid(xi, FlowFamily([1, 3], 1), grid, substeps=2)
    assert np.allclose(states[0, 0], xi.stack)


def test_integrate_grid_stationary_subflow():
    # d=1: the r=1 flow is stationary, so states are constant along x1.
    xi = random_state(d=1)
    grid = GridSpec([0.4, 0.4], [5, 5])
    states = integrate_grid(xi, FlowFamily([1, 3], 1), grid, substeps=3)
    for i in range(5):
        assert np.allclose(states[i, 0], xi.stack, atol=1e-13)


def test_integrate_grid_finite_and_twisted():
    xi = random_state(d=3, seed=3)
    grid = GridSpec([0.4, 0.4], [9, 9])
    states = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=4)
    assert np.all(np.isfinite(states))
    assert twist_residual(states, 0, SPEC) < 1e-9
    # The whole-grid scan equals the worst per-node residual, also when one
    # node is pushed off the twist condition.
    states[3, 5, 2, 0, 4] += 1e-3
    assert twist_residual(states, 0, SPEC) == max(
        twist_residual(states[index], 0, SPEC) for index in np.ndindex(9, 9)
    )
    assert twist_residual(states, 0, SPEC) >= 1e-3


def test_integrate_grid_deterministic():
    xi = random_state(d=3, seed=5)
    grid = GridSpec([0.3, 0.3], [5, 5])
    a = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=4)
    b = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=4)
    assert np.array_equal(a, b)


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
    # fill's first edge is along x2, the line of the dearest flow.
    from curvedflats import lax
    from curvedflats.errors import BlowUpError

    def non_finite_rhs(y, powers, d, buffers):
        out = buffers[1][0]
        out.fill(bad)
        return out

    monkeypatch.setattr(lax, "flow_rhs", non_finite_rhs)
    grid = GridSpec([0.4, 0.4], [3, 3])
    with pytest.raises(BlowUpError) as err:
        integrate_grid(random_state(seed=4), FlowFamily([1, 3], 3), grid, substeps=4)
    assert str(err.value) == (
        "blow-up while filling node (0, 1): Lax flow r=3 blew up at t=0.05"
    )
    assert err.value.node == (0, 1)
    assert err.value.__cause__.last_t == 0.0


def zero_rhs_edge(monkeypatch, stack, norm0):
    """One substep of ``_rk4`` on ``stack`` as a row of one, with a zero
    right-hand side: the blow-up test sees ``stack`` itself."""
    def zero_rhs(y, powers, d, buffers):
        out = buffers[1][0]
        out.fill(0.0)
        return out

    monkeypatch.setattr(lax, "flow_rhs", zero_rhs)
    return lax._rk4(stack[None], 1, 3, 0.1, 1, norm0)[0]


def test_blow_up_test_falls_back_to_max_when_sum_of_squares_is_large(monkeypatch):
    # Every entry at or just below the limit: the sum of squares is 100
    # limit^2, far past the BLAS test's limit^2 / 2, but no entry is past
    # the limit, so the exact test passes the state.
    limit = lax.BLOWUP_FACTOR
    stack = np.full((4, 5, 5), np.nextafter(limit, 0.0))
    stack[3, 2, 1] = -limit
    assert np.vdot(stack, stack) > 0.5 * limit * limit
    assert np.array_equal(zero_rhs_edge(monkeypatch, stack, 1.0), stack)


@pytest.mark.parametrize("norm0, bad", [
    (1.0, np.nextafter(lax.BLOWUP_FACTOR, np.inf)),
    # limit^2 overflows, and so does the square of 2 limit: the capped BLAS
    # test cannot pass it, and the exact test rejects it.
    (1e150, 2.0 * lax.BLOWUP_FACTOR * 1e150),
])
def test_blow_up_test_rejects_one_entry_past_the_limit(monkeypatch, norm0, bad):
    from curvedflats.errors import BlowUpError

    stack = np.zeros((4, 5, 5))
    stack[1, 0, 3] = bad
    with pytest.raises(BlowUpError) as err:
        zero_rhs_edge(monkeypatch, stack, norm0)
    assert str(err.value) == "Lax flow r=1 blew up at t=0.1"
    assert err.value.last_t == 0.0


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
    states = integrate_grid(xi, FlowFamily([1], 1), grid, substeps=4)
    rep = conservation_report(states, [0.6, 1.0], max_power=4)
    assert rep["max"] < 1e-14
    # Identical states at every node deviate by exactly zero.
    xi3 = random_state(d=3)
    states = np.broadcast_to(xi3.stack, (2, 2) + xi3.stack.shape).copy()
    rep2 = conservation_report(states, [1.0], max_power=2)
    assert rep2["max"] == 0.0
    states[1, 0, 0, 0, 0] = np.inf
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        conservation_report(states, [1.0], max_power=2)


def test_conservation_on_generic_grid():
    xi = random_state(d=3, seed=13)
    grid = GridSpec([0.4, 0.4], [9, 9])
    states = integrate_grid(xi, FlowFamily([1, 3], 3), grid, substeps=4)
    rep = conservation_report(states, [0.6, 1.0, 1.6], max_power=4)
    assert rep["max"] <= 1e-8
    def invariants(index, mu0):
        return trace_powers(evaluate_stack(states[index], 0, mu0), 4).tolist()

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
    states = integrate_grid(xi, FlowFamily([1], 1), grid, substeps=1)
    with pytest.raises(StructuralError):
        conservation_report(states, [0.0], max_power=2)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_trace_powers_equal_identity_start(case):
    # Starting the powers of m^2 from m^2 gives the bytes of the product with
    # the identity; a NaN node still fails the finiteness test.
    config, states, _, _ = kernel_case(case)
    for mu in config.mu_samples:
        m = evaluate_stack(states, 0, mu)
        for max_power in (2, 4, 6):
            got = trace_powers(m, max_power)
            want = trace_powers_from_identity(m, max_power)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    m = evaluate_stack(states, 0, config.mu_samples[0])
    m[(1,) * config.grid.dims + (0, 1)] = np.nan
    for kernel in (trace_powers, trace_powers_from_identity):
        with pytest.raises(NumericalError, match="non-finite spectral invariant"):
            kernel(m, 4)
