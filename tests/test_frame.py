import numpy as np
import pytest

from curvedflats.algebra import BilinearSpace, in_group_residual
from curvedflats.errors import (
    DegenerateFrameError,
    InternalConsistencyError,
    StructuralError,
)
from curvedflats.frame import (
    ConnectionForm,
    abelian_residual,
    connection_from_state,
    integrate_frame,
    j_orthonormalize,
    mc_residual,
)
from curvedflats.lax import GridSolution, GridSpec, integrate_grid
from curvedflats.loops import FlowFamily, LaxState

from helpers import from_offblock, random_element, so5_spec

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
    frames = integrate_frame(conn, mu, grid)
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
    frames = integrate_frame(conn, 1.0, grid)
    assert np.allclose(frames.frames, np.eye(5))


def test_integrate_frame_group_residual(small_run):
    grid, _, _, conn = small_run
    for mu in (0.6, 1.0, 1.6):
        field = integrate_frame(conn, mu, grid)
        assert field.max_drift <= 1e-8
        assert in_group_residual(field.frames[-1, -1], SPEC.space) <= 1e-12


def test_integrate_frame_path_independence_order(small_run, refined_run):
    grid, _, _, conn = small_run
    fine, conn_f = refined_run
    diffs = []
    for g, c in ((grid, conn), (fine, conn_f)):
        rows = integrate_frame(c, 1.0, g, axis_priority=(0, 1))
        cols = integrate_frame(c, 1.0, g, axis_priority=(1, 0))
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
