import numpy as np
import pytest

from curvedflats.algebra import BilinearSpace, expm, in_group_residual, skew_project
from curvedflats.cli import RunConfig, seed_initial_state
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
    curvature_defect,
    integrate_frame,
    j_orthonormalize,
    mc_residual,
)
from curvedflats.lax import GridSpec, integrate_grid
from curvedflats.loops import FlowFamily, LaxState

from helpers import (
    KERNEL_CASES,
    curvature_defect_full_grid,
    from_offblock,
    in_group_residual_per_slice,
    integrate_frame_per_edge,
    kernel_case,
    mc_residual_full_grid,
    random_element,
    so5_spec,
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
    states = integrate_grid(random_state(seed=3), family, grid, substeps=4)
    conn = connection_from_state(states, family, grid, SPEC)
    return grid, family, states, conn


@pytest.fixture(scope="module")
def refined_run(small_run):
    grid, family, states, _ = small_run
    fine = grid.refine()
    states_f = integrate_grid(LaxState(states[0, 0], SPEC, check=False), family,
                              fine, substeps=4)
    return fine, connection_from_state(states_f, family, fine, SPEC)


def test_connection_identity_flow():
    xi = random_state(d=1, seed=1)
    grid, family = GridSpec([0.3], [4]), FlowFamily([1], 1)
    states = integrate_grid(xi, family, grid, substeps=2)
    conn = connection_from_state(states, family, grid, SPEC)
    # pi_+ of mu^0 xi keeps the state itself: A0 = xi_0, A1 = xi_1.
    for i in range(4):
        assert np.allclose(conn.a0[i, 0], xi.stack[0], atol=1e-13)
        assert np.allclose(conn.a1[i, 0], xi.stack[1], atol=1e-13)


def test_connection_cubed_flow_matches_expansion():
    xi = random_state(d=1, seed=2)
    xi0, xi1 = xi.stack[0], xi.stack[1]
    grid, family = GridSpec([1e-9], [2]), FlowFamily([3], 1)
    states = integrate_grid(xi, family, grid, substeps=1)
    conn = connection_from_state(states, family, grid, SPEC)
    assert np.allclose(conn.a1[0, 0], xi1 @ xi1 @ xi1, atol=1e-12)
    assert np.allclose(
        conn.a0[0, 0],
        xi0 @ xi1 @ xi1 + xi1 @ xi0 @ xi1 + xi1 @ xi1 @ xi0,
        atol=1e-12,
    )


def test_connection_d3_r1_picks_top_coefficients(small_run):
    _, _, states, conn = small_run
    # For r=1, pi_+ of mu^-2 xi keeps degrees 0,1: coefficients xi_2, xi_3.
    idx = (4, 3)
    assert np.allclose(conn.a0[idx + (0,)], states[idx][2], atol=1e-14)
    assert np.allclose(conn.a1[idx + (0,)], states[idx][3], atol=1e-14)


def test_connection_rejects_node_off_the_k_p_split(small_run):
    grid, family, states, _ = small_run
    states = states.copy()
    # A k-entry in the p-coefficient xi_3 breaks A1 of the r=1 flow (and
    # likely r=3).  The first failing (node, flow) in C order is reported,
    # not the worst one.
    states[2, 7, 3, 0, 1] += 1e-3
    states[5, 1, 3, 0, 1] += 5e-3
    with pytest.raises(InternalConsistencyError) as err:
        connection_from_state(states, family, grid, SPEC)
    assert "at node (2, 7), flow r=1: residual 1.000e-03" in str(err.value)
    assert err.value.node == (2, 7)


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
        assert mc_residual(conn, mu) < 1e-15


def test_mc_residual_at_zero_is_k_part_check(small_run):
    grid, _, _, conn = small_run
    k_only = ConnectionForm(conn.a0, np.zeros_like(conn.a1), grid, SPEC)
    assert mc_residual(conn, 0.0) == mc_residual(k_only, 1.0)


def test_mc_residual_second_order_refinement(small_run, refined_run):
    grid, _, _, conn = small_run
    fine, conn_f = refined_run
    for mu in (0.0, 1.0, 1.6):
        ratio = mc_residual(conn, mu) / mc_residual(conn_f, mu)
        assert 2.5 <= ratio <= 6.0


def test_mc_residual_bounded_across_mu(small_run):
    # Flatness holds identically in mu: one bound works for all samples.
    grid, _, _, conn = small_run
    for mu in (0.6, 1.0, 1.6):
        assert mc_residual(conn, mu) < 5e-4


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_curvature_matches_full_grid(conn, mu):
    # Each ring's defect is the full-grid defect's slice, byte for byte.
    grid, k = conn.grid, conn.grid.dims
    a = conn.a_mu(mu)
    for i in range(k):
        for j in range(i + 1, k):
            full = curvature_defect_full_grid(a, i, j, grid.steps)
            for ring in (1, 2):
                inner = (slice(ring, -ring),) * k
                got = curvature_defect(a, i, j, grid.steps, ring=ring)
                assert same_bytes(got, full[inner]), (i, j, ring)


def mc_roundoff_bound(conn, mu):
    """A bound on |mc_residual - mc_residual_full_grid| at ``mu``.

    Both evaluate the defect of A^mu on the interior nodes, entry by entry,
    from the same A0 and A1; only the order of the roundings differs.  With
    M = max|A0| + |mu| max|A1| (a bound on every entry of A0, mu A1 and
    A^mu) and h the least grid step, each path's rounding of one entry is at
    most about
    - 12 eps M / h from the two central differences (operands rounded once
      when A^mu or mu D1 is formed, then a subtraction and a division), and
    - (2 n^2 + 10 n) eps M^2 from the bracket (two n-term dot products per
      entry, gamma_n ~ n eps on a sum of n terms of size M^2, with their
      operands rounded) and the sums that join the four terms.
    The difference of the two paths is at most twice that, below
    32 eps (M / h + n^2 M^2); the max over nodes moves by no more than the
    largest entrywise difference.
    """
    n = conn.spec.dim
    m = float(np.max(np.abs(conn.a0)) + abs(mu) * np.max(np.abs(conn.a1)))
    eps = np.finfo(float).eps
    return 32.0 * eps * (m / min(conn.grid.steps) + n * n * m * m)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_curvature_on_inner_nodes_equals_full_grid_slice(case):
    config, _, conn, _ = kernel_case(case)
    for mu in config.mu_samples:
        assert_curvature_matches_full_grid(conn, mu)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_mc_residual_from_coefficients_matches_full_grid(case):
    # At mu = 0 the polynomial leaves D0 = the defect of A0 as it is: the
    # former value byte for byte.  Elsewhere D0 + mu D1 + mu^2 D2 rounds in
    # another order than the defect of A0 + mu A1, so the two agree within
    # ``mc_roundoff_bound``; the worst case measured is more than 10x
    # inside it (at most 1.6e-17, at mu = 4, against bounds of 1.1e-13 and
    # more).
    config, _, conn, _ = kernel_case(case)
    assert same_bytes(mc_residual(conn, 0.0), mc_residual_full_grid(conn, 0.0))
    for mu in config.mu_samples + [4.0]:
        diff = abs(mc_residual(conn, mu) - mc_residual_full_grid(conn, mu))
        assert 10.0 * diff <= mc_roundoff_bound(conn, mu), (mu, diff)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_curvature_coefficients_are_the_structure_equations(case):
    # D0 is the defect of A0 and D2 the bracket of the A1, on the interior,
    # byte for byte, and D1 the odd part of the defect of A0 + mu A1 at
    # mu = 1 up to roundoff; they are built once and shared by every mu.
    _, _, conn, _ = kernel_case(case)
    conn = ConnectionForm(conn.a0, conn.a1, conn.grid, conn.spec)
    k = conn.dims
    coefficients = conn.curvature_coefficients
    assert sorted(coefficients) == [(i, j) for i in range(k) for j in range(i + 1, k)]
    interior = (slice(1, -1),) * k
    for (i, j), (d0, d1, d2) in coefficients.items():
        assert same_bytes(d0, curvature_defect(conn.a0, i, j, conn.grid.steps))
        a1i, a1j = conn.a1[..., i, :, :], conn.a1[..., j, :, :]
        assert same_bytes(d2, (a1i @ a1j - a1j @ a1i)[interior])
        odd = 0.5 * (curvature_defect(conn.a_mu(1.0), i, j, conn.grid.steps)
                     - curvature_defect(conn.a_mu(-1.0), i, j, conn.grid.steps))
        assert np.max(np.abs(d1 - odd)) <= mc_roundoff_bound(conn, 1.0)
    mc_residual(conn, 1.0)
    assert conn.curvature_coefficients is coefficients


def test_curvature_on_inner_nodes_keeps_a_nan():
    # A NaN on the boundary reaches the interior through the central
    # difference, one inside through the bracket too: in A0 or in A1, each
    # makes mc NaN at every mu.
    _, _, conn, _ = kernel_case("definite")
    for node in ((0, 5), (4, 5)):
        for part in ("a0", "a1"):
            a = {"a0": conn.a0, "a1": conn.a1}
            a[part] = a[part].copy()
            a[part][node + (1, 0, 1 if part == "a0" else 3)] = np.nan
            broken = ConnectionForm(a["a0"], a["a1"], conn.grid, conn.spec)
            assert_curvature_matches_full_grid(broken, 1.0)
            for mu in (0.0, 1.0, 4.0):
                assert np.isnan(mc_residual(broken, mu)), (node, part, mu)
                assert np.isnan(mc_residual_full_grid(broken, mu))


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_in_group_residual_equals_max_of_slice_maxima(case):
    config, _, _, frames = kernel_case(case)
    space = config.spec.space
    for field in frames:
        got = in_group_residual(field, space)
        assert same_bytes(got, in_group_residual_per_slice(field, space))
    frames = frames[-1].copy()
    frames[(1,) * config.grid.dims + (2, 3)] = np.nan
    assert np.isnan(in_group_residual(frames, space))
    assert np.isnan(in_group_residual_per_slice(frames, space))


def test_mc_residual_needs_two_axes():
    xi = random_state(d=1, seed=4)
    grid, family = GridSpec([0.3], [4]), FlowFamily([1], 1)
    states = integrate_grid(xi, family, grid, substeps=2)
    conn = connection_from_state(states, family, grid, SPEC)
    with pytest.raises(StructuralError):
        mc_residual(conn, 1.0)


def test_abelian_residual(small_run):
    _, _, _, conn = small_run
    assert abelian_residual(conn) <= 1e-9
    grid1, family1 = GridSpec([0.3], [4]), FlowFamily([1], 1)
    states1 = integrate_grid(random_state(d=1, seed=5), family1, grid1, substeps=2)
    assert abelian_residual(connection_from_state(states1, family1, grid1, SPEC)) == 0.0


def test_integrate_frame_constant_connection_closed_form():
    xi = random_state(d=1, seed=6)
    grid, family = GridSpec([0.5], [9]), FlowFamily([1], 1)
    states = integrate_grid(xi, family, grid, substeps=2)
    conn = connection_from_state(states, family, grid, SPEC)
    mu = 1.3
    frames = integrate_frame(conn, [mu])[0]
    from curvedflats.algebra import expm

    a = xi.stack[0] + mu * xi.stack[1]
    for i in range(9):
        expected = expm(grid.steps[0] * i * a)
        assert np.max(np.abs(frames[i] - expected)) < 1e-10


def test_integrate_frame_zero_connection():
    grid = GridSpec([0.4, 0.4], [4, 4])
    conn = ConnectionForm(
        np.zeros((4, 4, 2, 5, 5)), np.zeros((4, 4, 2, 5, 5)), grid, SPEC
    )
    frames = integrate_frame(conn, [1.0])[0]
    assert np.allclose(frames, np.eye(5))


def test_integrate_frame_group_residual(small_run):
    grid, _, _, conn = small_run
    for mu in (0.6, 1.0, 1.6):
        field = integrate_frame(conn, [mu])[0]
        assert in_group_residual(field, SPEC.space) <= 1e-8
        assert in_group_residual(field[-1, -1], SPEC.space) <= 1e-12


def test_integrate_frame_path_independence_order(small_run, refined_run):
    grid, _, _, conn = small_run
    fine, conn_f = refined_run
    diffs = []
    for g, c in ((grid, conn), (fine, conn_f)):
        # The pipeline walks x1 first; the per-edge oracle walks x2 first.
        rows = integrate_frame(c, [1.0])[0]
        cols = integrate_frame_per_edge(c, [1.0], g, axis_priority=(1, 0))[0]
        diffs.append(np.max(np.abs(rows[-1, -1] - cols[-1, -1])))
    ratio = diffs[0] / diffs[1]
    assert 2.5 <= ratio <= 6.0


def test_j_orthonormalize_definite_and_indefinite():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert j_orthonormalize(q, SPEC.space) is q
    # A frame 1e-9 off the group is not roundoff: it raises and names its slice.
    noisy = np.stack([q, q + 1e-9 * rng.standard_normal((5, 5))])
    with pytest.raises(DegenerateFrameError, match=r"left O\(J\).* slice \(1,\)") as err:
        j_orthonormalize(noisy, SPEC.space)
    assert err.value.index == (1,)
    # Lorentz boost in O(1,1): kept as it is.
    space = BilinearSpace(1, 1)
    t = 0.8
    boost = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    assert j_orthonormalize(boost, space) is boost
    with pytest.raises(DegenerateFrameError):
        j_orthonormalize(np.zeros((2, 2)), space)


def test_j_orthonormalize_stack_names_degenerate_slice():
    space = BilinearSpace(1, 1)
    t = 0.8
    boost = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    stack = np.broadcast_to(boost, (2, 3, 2, 2)).copy()
    stack[1, 2] = 0.0
    with pytest.raises(DegenerateFrameError, match=r"left O\(J\).* slice \(1, 2\)") as err:
        j_orthonormalize(stack, space)
    assert err.value.index == (1, 2)
    # A swapped boost gives column 0 a negative J-norm: F^T J F = -J.
    stack = np.broadcast_to(boost, (4, 2, 2)).copy()
    stack[3] = boost[:, ::-1]
    with pytest.raises(DegenerateFrameError, match=r"left O\(J\).* slice \(3,\)") as err:
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
    stack = np.stack([kept, kept.T.copy()])
    before = stack.tobytes()
    assert j_orthonormalize(stack, space) is stack
    assert stack.tobytes() == before
    # The off-group slice raises and names its slice, alone or in a stack.
    with pytest.raises(DegenerateFrameError, match=r"slice \(1,\)") as err:
        j_orthonormalize(np.stack([kept, noisy, kept.T]), space)
    assert err.value.index == (1,)
    with pytest.raises(DegenerateFrameError) as err:
        j_orthonormalize(noisy, space)
    assert err.value.index == ()


def test_j_orthonormalize_keeps_roundoff_of_large_frames():
    # An O(3,2) frame with |F| about 25: a defect above the absolute 1e-13
    # but below IN_GROUP_TOL |F|^2 is roundoff, and the frame comes back as
    # it is, byte for byte.
    space = BilinearSpace(3, 2)
    rng = np.random.default_rng(32)
    x = np.zeros((5, 5))
    x[0, 3] = x[3, 0] = 3.9  # a boost of rapidity 3.9 mixing + and - axes
    g = expm(x) + 1e-13 * rng.standard_normal((5, 5))
    scale = np.max(np.abs(g))
    assert 20.0 < scale < 30.0
    assert 1e-13 < in_group_residual(g, space) < IN_GROUP_TOL * scale**2
    before = g.tobytes()
    assert j_orthonormalize(g, space) is g
    assert g.tobytes() == before


def test_integrate_frame_keeps_roundoff_drift_of_a_long_indefinite_walk():
    # anti-de-sitter at extents 2.0: frames grow along the walk and their
    # roundoff drift passes the absolute 1e-13, yet no frame raises.
    config = RunConfig({
        "preset": "anti-de-sitter", "seed": 1, "extents": [2.0, 2.0],
        "mu_samples": [0.25 * 16.0 ** (i / 15) for i in range(16)],
    })
    xi0, _ = seed_initial_state(config)
    states = integrate_grid(xi0, config.family, config.grid, substeps=config.substeps)
    conn = connection_from_state(states, config.family, config.grid, config.spec)
    frames = integrate_frame(conn, config.mu_samples)
    assert max(in_group_residual(f, config.spec.space) for f in frames) > 1e-13


def test_j_orthonormalize_bounds_drift_of_long_products():
    # Every step is kept as the product left it; the roundoff grows with
    # |F|^2 and must stay within the scaled bound without any repair.
    rng = np.random.default_rng(5)
    for space in (SPEC.space, BilinearSpace(3, 2)):
        frame = np.eye(5)
        for _ in range(2000):
            step = expm(0.05 * skew_project(rng.standard_normal((5, 5)), space))
            frame = j_orthonormalize(frame @ step, space)
            scale = max(1.0, np.max(np.abs(frame)))
            assert in_group_residual(frame, space) <= IN_GROUP_TOL * scale**2


def test_j_orthonormalize_rejects_non_finite_slices():
    space = SPEC.space
    rng = np.random.default_rng(33)
    stack = np.stack([_in_group_frame(rng, space) for _ in range(4)])
    stack[2, 1, 3] = np.nan
    stack[3, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(DegenerateFrameError, match=r"left O\(J\).* slice \(2,\)") as err:
            j_orthonormalize(stack, space)
        assert err.value.index == (2,)
        with pytest.raises(DegenerateFrameError, match=r"left O\(J\).* slice \(1,\)") as err:
            j_orthonormalize(stack[[0, 3]], space)
        assert err.value.index == (1,)
        one_nan = np.eye(5)
        one_nan[1, 2] = np.nan
        for g in (one_nan, np.full((5, 5), np.inf)):
            with pytest.raises(DegenerateFrameError, match=r"left O\(J\)"):
                j_orthonormalize(g, space)


@pytest.mark.parametrize("space", [SPEC.space, BilinearSpace(3, 2)])
def test_j_orthonormalize_returns_an_in_group_stack_itself(space):
    # Every slice in the group: the input array comes back unchanged.
    rng = np.random.default_rng(34)
    stack = np.stack([_in_group_frame(rng, space) for _ in range(6)]).reshape(2, 3, 5, 5)
    before = stack.tobytes()
    out = j_orthonormalize(stack, space)
    assert out is stack
    assert out.tobytes() == before
    one = stack[1, 2]
    assert j_orthonormalize(one, space) is one


def test_j_orthonormalize_names_a_nan_slice():
    space = BilinearSpace(3, 2)
    rng = np.random.default_rng(35)
    nan = np.stack([_in_group_frame(rng, space) for _ in range(4)])
    nan[1, 0, 4] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(DegenerateFrameError) as err:
            j_orthonormalize(nan, space)
    assert err.value.index == (1,)


@pytest.mark.parametrize(
    "powers,nodes", [([1, 3], [9, 9]), ([1, 3, 5], [4, 3, 3])],
)
def test_integrate_frame_line_blocks_match_per_edge_expression(powers, nodes):
    # A^mu and the exponents built once per slab row give the bytes of the
    # former per-edge expression.
    grid = GridSpec([0.4] * len(nodes), nodes)
    family = FlowFamily(powers, 3)
    states = integrate_grid(random_state(seed=3), family, grid, 4)
    conn = connection_from_state(states, family, grid, SPEC)
    mus = [0.6, 1.0, 1.6]
    frames = integrate_frame(conn, mus)
    expected = integrate_frame_per_edge(conn, mus, grid)
    assert frames.tobytes() == expected.tobytes()


def test_integrate_frame_batch_matches_single_samples(small_run):
    grid, _, _, conn = small_run
    mus = [0.6, 1.0, 1.6]
    frames = integrate_frame(conn, mus)
    assert frames.shape == (3,) + grid.nodes + (5, 5)
    for field, mu in zip(frames, mus):
        single = integrate_frame(conn, [mu])[0]
        assert np.max(np.abs(field - single)) <= 1e-13
        assert abs(in_group_residual(field, SPEC.space)
                   - in_group_residual(single, SPEC.space)) <= 1e-13
    assert integrate_frame(conn, []).shape == (0,) + grid.nodes + (5, 5)
