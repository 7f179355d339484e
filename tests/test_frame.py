import numpy as np
import pytest

from curvedflats.algebra import BilinearSpace, expm, in_group_residual, skew_project
from curvedflats.errors import (
    DegenerateFrameError,
    InternalConsistencyError,
    StructuralError,
)
from curvedflats.frame import (
    IN_GROUP_TOL,
    ConnectionForm,
    abelian_residual,
    connection_from_state,
    integrate_frame,
    j_orthonormalize,
    mc_residual,
)
from curvedflats.lax import GridSolution, GridSpec, integrate_grid
from curvedflats.loops import FlowFamily, LaxState

import curvedflats.frame as frame
from helpers import (
    from_offblock,
    integrate_frame_per_edge,
    j_orthonormalize_single,
    random_element,
    so5_spec,
    so14_spec,
)

RNG = np.random.default_rng(404)
SPEC = so5_spec()


def random_state(d=3, scale=0.8, seed=17):
    rng = np.random.default_rng(seed)
    stack = np.empty((d + 1, 5, 5))
    for k in range(d + 1):
        part = "k" if k % 2 == 0 else "p"
        stack[k] = random_element(rng, SPEC, part=part, scale=scale).matrix
    return LaxState(stack, SPEC)


@pytest.fixture(scope="module")
def small_run():
    grid = GridSpec([0.4, 0.4], [9, 9])
    family = FlowFamily([1, 3], 3)
    sol = integrate_grid(random_state(seed=3), family, grid, substeps=4)
    conn = connection_from_state(sol)
    return grid, family, sol, conn


@pytest.fixture(scope="module")
def refined_run(small_run):
    grid, family, sol, _ = small_run
    fine = grid.refine()
    sol_f = integrate_grid(sol.state_at((0, 0)), family, fine, substeps=4)
    return fine, connection_from_state(sol_f)


def test_connection_identity_flow():
    xi = random_state(d=1, seed=1)
    grid = GridSpec([0.3], [4])
    sol = integrate_grid(xi, FlowFamily([1], 1), grid, substeps=2)
    conn = connection_from_state(sol)
    # pi_+ of mu^0 xi keeps the state itself: A0 = xi_0, A1 = xi_1.
    for i in range(4):
        assert np.allclose(conn.a0[i, 0], xi.stack[0], atol=1e-13)
        assert np.allclose(conn.a1[i, 0], xi.stack[1], atol=1e-13)


def test_connection_cubed_flow_matches_expansion():
    xi = random_state(d=1, seed=2)
    xi0, xi1 = xi.stack[0], xi.stack[1]
    grid = GridSpec([1e-9], [2])
    sol = integrate_grid(xi, FlowFamily([3], 1), grid, substeps=1)
    conn = connection_from_state(sol)
    assert np.allclose(conn.a1[0, 0], xi1 @ xi1 @ xi1, atol=1e-12)
    assert np.allclose(
        conn.a0[0, 0],
        xi0 @ xi1 @ xi1 + xi1 @ xi0 @ xi1 + xi1 @ xi1 @ xi0,
        atol=1e-12,
    )


def test_connection_d3_r1_picks_top_coefficients(small_run):
    _, _, sol, conn = small_run
    # For r=1, pi_+ of mu^-2 xi keeps degrees 0,1: coefficients xi_2, xi_3.
    idx = (4, 3)
    assert np.allclose(conn.a0[idx + (0,)], sol.states[idx][2], atol=1e-14)
    assert np.allclose(conn.a1[idx + (0,)], sol.states[idx][3], atol=1e-14)


def test_connection_rejects_node_off_the_k_p_split(small_run):
    grid, family, sol, _ = small_run
    states = sol.states.copy()
    # A k-entry in the p-coefficient xi_3 breaks A1 of the r=1 flow (and
    # likely r=3).  The first failing (node, flow) in C order is reported,
    # not the worst one.
    states[2, 7, 3, 0, 1] += 1e-3
    states[5, 1, 3, 0, 1] += 5e-3
    with pytest.raises(InternalConsistencyError) as err:
        connection_from_state(GridSolution(states, grid, family, SPEC))
    assert "at node (2, 7), flow r=1: residual 1.000e-03" in str(err.value)


def test_mc_residual_constant_commuting():
    # Constant connection with commuting values is exactly flat.
    b1 = from_offblock([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], SPEC).matrix
    b2 = from_offblock([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], SPEC).matrix
    grid = GridSpec([0.4, 0.4], [5, 5])
    a0 = np.zeros((5, 5, 2, 5, 5))
    a1 = np.empty((5, 5, 2, 5, 5))
    a1[..., 0, :, :] = b1
    a1[..., 1, :, :] = b2
    conn = ConnectionForm(a0, a1, grid, SPEC)
    for mu in (0.0, 0.7, 1.3):
        assert mc_residual(conn, mu, grid) < 1e-15


def test_mc_residual_at_zero_is_k_part_check(small_run):
    grid, _, _, conn = small_run
    k_only = ConnectionForm(conn.a0, np.zeros_like(conn.a1), grid, SPEC)
    assert mc_residual(conn, 0.0, grid) == mc_residual(k_only, 1.0, grid)


def test_mc_residual_second_order_refinement(small_run, refined_run):
    grid, _, _, conn = small_run
    fine, conn_f = refined_run
    for mu in (0.0, 1.0, 1.6):
        ratio = mc_residual(conn, mu, grid) / mc_residual(conn_f, mu, fine)
        assert 2.5 <= ratio <= 6.0


def test_mc_residual_bounded_across_mu(small_run):
    # Flatness holds identically in mu: one bound works for all samples.
    grid, _, _, conn = small_run
    for mu in (0.6, 1.0, 1.6):
        assert mc_residual(conn, mu, grid) < 5e-4


def test_mc_residual_needs_two_axes():
    xi = random_state(d=1, seed=4)
    grid = GridSpec([0.3], [4])
    sol = integrate_grid(xi, FlowFamily([1], 1), grid, substeps=2)
    conn = connection_from_state(sol)
    with pytest.raises(StructuralError):
        mc_residual(conn, 1.0, grid)


def test_abelian_residual(small_run):
    _, _, _, conn = small_run
    assert abelian_residual(conn) <= 1e-9
    grid1 = GridSpec([0.3], [4])
    sol1 = integrate_grid(random_state(d=1, seed=5), FlowFamily([1], 1), grid1,
                          substeps=2)
    assert abelian_residual(connection_from_state(sol1)) == 0.0


def test_integrate_frame_constant_connection_closed_form():
    xi = random_state(d=1, seed=6)
    grid = GridSpec([0.5], [9])
    sol = integrate_grid(xi, FlowFamily([1], 1), grid, substeps=2)
    conn = connection_from_state(sol)
    mu = 1.3
    frames = integrate_frame(conn, [mu], grid)[0]
    from curvedflats.algebra import expm

    a = xi.stack[0] + mu * xi.stack[1]
    for i in range(9):
        expected = expm(grid.steps[0] * i * a)
        assert np.max(np.abs(frames.frames[i] - expected)) < 1e-10


def test_integrate_frame_zero_connection():
    grid = GridSpec([0.4, 0.4], [4, 4])
    conn = ConnectionForm(
        np.zeros((4, 4, 2, 5, 5)), np.zeros((4, 4, 2, 5, 5)), grid, SPEC
    )
    frames = integrate_frame(conn, [1.0], grid)[0]
    assert np.allclose(frames.frames, np.eye(5))


def test_integrate_frame_group_residual(small_run):
    grid, _, _, conn = small_run
    for mu in (0.6, 1.0, 1.6):
        field = integrate_frame(conn, [mu], grid)[0]
        assert field.max_drift <= 1e-8
        assert in_group_residual(field.frames[-1, -1], SPEC.space) <= 1e-12


def test_integrate_frame_path_independence_order(small_run, refined_run):
    grid, _, _, conn = small_run
    fine, conn_f = refined_run
    diffs = []
    for g, c in ((grid, conn), (fine, conn_f)):
        rows = integrate_frame(c, [1.0], g, axis_priority=(0, 1))[0]
        cols = integrate_frame(c, [1.0], g, axis_priority=(1, 0))[0]
        diffs.append(
            np.max(np.abs(rows.frames[-1, -1] - cols.frames[-1, -1]))
        )
    ratio = diffs[0] / diffs[1]
    assert 2.5 <= ratio <= 6.0


def test_j_orthonormalize_definite_and_indefinite():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    noisy = q + 1e-9 * rng.standard_normal((5, 5))
    out = j_orthonormalize(noisy, SPEC.space)
    assert in_group_residual(out, SPEC.space) < 1e-13
    assert np.max(np.abs(out - q)) < 1e-8
    # Lorentz boost in O(1,1): stays fixed by re-orthonormalization.
    space = BilinearSpace(1, 1)
    t = 0.8
    boost = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    out = j_orthonormalize(boost, space)
    assert in_group_residual(out, space) < 1e-13
    with pytest.raises(DegenerateFrameError):
        j_orthonormalize(np.zeros((2, 2)), space)


def test_j_orthonormalize_stack_matches_per_slice_loop():
    # Near-group slices whose columns carry distinct scales, permuted per
    # slice, so every slice pivots in its own order.
    rng = np.random.default_rng(12)
    for space in (SPEC.space, so14_spec().space, BilinearSpace(3, 2)):
        slices, orders = [], []
        for perm in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            x = skew_project(0.9 * rng.standard_normal((5, 5)), space)
            scales = np.array([1.0, 1.5, 2.0, 2.5, 3.0])[perm]
            g = expm(x) * scales + 1e-9 * rng.standard_normal((5, 5))
            slices.append(g)
            orders.append(j_orthonormalize_single(g, space)[1])
        assert len({tuple(o) for o in orders}) == 3
        stack = np.stack(slices)
        out = j_orthonormalize(stack, space)
        for got, g in zip(out, stack):
            expected = j_orthonormalize_single(g, space)[0]
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert in_group_residual(out, space) < 1e-12
        grid_shaped = j_orthonormalize(np.stack([stack, stack[::-1]]), space)
        assert np.array_equal(grid_shaped[0], out)
        assert np.array_equal(grid_shaped[1], out[::-1])


def test_j_orthonormalize_stack_names_degenerate_slice():
    space = BilinearSpace(1, 1)
    t = 0.8
    boost = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    stack = np.broadcast_to(boost, (2, 3, 2, 2)).copy()
    stack[1, 2] = 0.0
    with pytest.raises(DegenerateFrameError, match=r"pivot .* slice \(1, 2\)") as err:
        j_orthonormalize(stack, space)
    assert err.value.index == (1, 2)
    # A swapped boost keeps every pivot but gives column 0 a negative J-norm.
    stack = np.broadcast_to(boost, (4, 2, 2)).copy()
    stack[3] = boost[:, ::-1]
    with pytest.raises(DegenerateFrameError, match=r"column 0 .* slice \(3,\)") as err:
        j_orthonormalize(stack, space)
    assert err.value.index == (3,)


def _in_group_frame(rng, space, scale=0.9):
    g = expm(skew_project(scale * rng.standard_normal((5, 5)), space))
    assert in_group_residual(g, space) <= IN_GROUP_TOL
    return g


@pytest.mark.parametrize("space", [SPEC.space, BilinearSpace(3, 2)])
def test_j_orthonormalize_keeps_in_group_slices(space):
    rng = np.random.default_rng(31)
    kept = _in_group_frame(rng, space)
    noisy = (
        _in_group_frame(rng, space) * np.array([1.0, 1.5, 2.0, 2.5, 3.0])
        + 1e-9 * rng.standard_normal((5, 5))
    )
    stack = np.stack([kept, noisy, kept.T.copy()])
    out = j_orthonormalize(stack, space)
    assert out[0].tobytes() == kept.tobytes()
    expected = j_orthonormalize_single(noisy, space)[0]
    assert np.max(np.abs(out[1] - expected)) <= 1e-13
    # Alone or inside the stack, every slice gives the same bytes.
    for got, g in zip(out, stack):
        assert got.tobytes() == j_orthonormalize(g, space).tobytes()
        assert got.tobytes() == j_orthonormalize(g[None], space)[0].tobytes()


def test_j_orthonormalize_pulls_back_frame_off_the_group():
    rng = np.random.default_rng(32)
    for space in (SPEC.space, BilinearSpace(3, 2)):
        g = _in_group_frame(rng, space) + 1e-12 * rng.standard_normal((5, 5))
        assert in_group_residual(g, space) > IN_GROUP_TOL
        assert in_group_residual(j_orthonormalize(g, space), space) < IN_GROUP_TOL


def test_j_orthonormalize_bounds_drift_of_long_products():
    # Most steps take the skip path; roundoff must not pile up past the
    # point where Gram-Schmidt resets it.
    rng = np.random.default_rng(5)
    for space in (SPEC.space, BilinearSpace(3, 2)):
        frame = np.eye(5)
        for _ in range(2000):
            step = expm(0.05 * skew_project(rng.standard_normal((5, 5)), space))
            frame = j_orthonormalize(frame @ step, space)
            assert in_group_residual(frame, space) <= 2 * IN_GROUP_TOL


def test_j_orthonormalize_rejects_non_finite_slices():
    space = SPEC.space
    rng = np.random.default_rng(33)
    stack = np.stack([_in_group_frame(rng, space) for _ in range(4)])
    stack[2, 1, 3] = np.nan
    stack[3, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(DegenerateFrameError, match=r"pivot .* slice \(2,\)") as err:
            j_orthonormalize(stack, space)
        assert err.value.index == (2,)
        with pytest.raises(DegenerateFrameError, match=r"pivot .* slice \(1,\)") as err:
            j_orthonormalize(stack[[0, 3]], space)
        assert err.value.index == (1,)
        one_nan = np.eye(5)
        one_nan[1, 2] = np.nan
        for g in (one_nan, np.full((5, 5), np.inf)):
            with pytest.raises(DegenerateFrameError, match="pivot"):
                j_orthonormalize(g, space)


@pytest.fixture
def gram_schmidt_calls(monkeypatch):
    """The ``slices`` argument of every Gram-Schmidt call."""
    calls = []
    gram_schmidt = frame._gram_schmidt

    def spy(cols, space, slices, batch):
        calls.append(slices.tolist())
        return gram_schmidt(cols, space, slices, batch)

    monkeypatch.setattr(frame, "_gram_schmidt", spy)
    return calls


@pytest.mark.parametrize("space", [SPEC.space, BilinearSpace(3, 2)])
def test_j_orthonormalize_returns_an_in_group_stack_itself(space, gram_schmidt_calls):
    # Every slice in the group: the input array comes back, without
    # Gram-Schmidt, and with the bytes the per-slice defects would keep.
    rng = np.random.default_rng(34)
    stack = np.stack([_in_group_frame(rng, space) for _ in range(6)]).reshape(2, 3, 5, 5)
    before = stack.tobytes()
    out = j_orthonormalize(stack, space)
    assert out is stack
    assert out.tobytes() == before
    one = stack[1, 2]
    assert j_orthonormalize(one, space) is one
    assert gram_schmidt_calls == []


def test_j_orthonormalize_sends_nan_and_off_group_slices_to_gram_schmidt(
    gram_schmidt_calls,
):
    space = BilinearSpace(3, 2)
    rng = np.random.default_rng(35)
    stack = np.stack([_in_group_frame(rng, space) for _ in range(4)])
    off = stack.copy()
    off[2] += 1e-12 * rng.standard_normal((5, 5))
    out = j_orthonormalize(off, space)
    assert gram_schmidt_calls == [[2]]
    assert out is not off
    for k in (0, 1, 3):
        assert out[k].tobytes() == stack[k].tobytes()
    assert out[2].tobytes() == j_orthonormalize(off[2:3], space)[0].tobytes()
    nan = stack.copy()
    nan[1, 0, 4] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(DegenerateFrameError) as err:
            j_orthonormalize(nan, space)
    assert err.value.index == (1,)
    assert gram_schmidt_calls[-1] == [1]


@pytest.mark.parametrize(
    "powers,nodes,axis_priority",
    [([1, 3], [9, 9], (0, 1)), ([1, 3], [9, 9], (1, 0)),
     ([1, 3, 5], [4, 3, 3], (2, 0, 1))],
)
def test_integrate_frame_line_blocks_match_per_edge_expression(powers, nodes,
                                                               axis_priority):
    # A^mu and the exponent built once per grid line give the bytes of the
    # former per-edge expression, for every sweep order.
    grid = GridSpec([0.4] * len(nodes), nodes)
    sol = integrate_grid(random_state(seed=3), FlowFamily(powers, 3), grid, 4)
    conn = connection_from_state(sol)
    mus = [0.6, 1.0, 1.6]
    fields = integrate_frame(conn, mus, grid, axis_priority=axis_priority)
    expected = integrate_frame_per_edge(conn, mus, grid, axis_priority)
    assert fields[0].frames.base.tobytes() == expected.tobytes()


@pytest.mark.parametrize("axis_priority", [(0, 1), (1, 0)])
def test_integrate_frame_batch_matches_single_samples(small_run, axis_priority):
    grid, _, _, conn = small_run
    mus = [0.6, 1.0, 1.6]
    fields = integrate_frame(conn, mus, grid, axis_priority=axis_priority)
    assert [f.mu for f in fields] == mus
    stack = fields[0].frames.base
    assert stack.shape == (3,) + grid.nodes + (5, 5)
    for k, (field, mu) in enumerate(zip(fields, mus)):
        single = integrate_frame(conn, [mu], grid, axis_priority=axis_priority)[0]
        assert field.frames.base is stack
        assert np.array_equal(field.frames, stack[k])
        assert np.max(np.abs(field.frames - single.frames)) <= 1e-13
        assert abs(field.max_drift - single.max_drift) <= 1e-13
