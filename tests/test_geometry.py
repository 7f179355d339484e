import numpy as np
import pytest

from curvedflats.algebra import expm
from curvedflats.errors import (
    DegenerateSpectrumError,
    NonCartanError,
    NonImmersiveError,
    NumericalError,
    StructuralError,
)
from curvedflats.frame import ConnectionForm, connection_from_state, integrate_frame
from curvedflats.frame import abelian_residual, mc_residual
from curvedflats.geometry import (
    GaugeField,
    curve_diagnostics,
    developing_map,
    gauge_from_h,
    gauge_to_normal_form,
    gauss_curvature_field,
    reconstruct_immersion,
    spectral_reparam,
    verify_space_form_geometry,
)
import curvedflats.geometry as geometry
from curvedflats.lax import GridSpec, integrate_grid
from curvedflats.loops import FlowFamily, LaxState

from helpers import (
    algebra_gram_full_product,
    closedness_full_grid,
    curvature_defect_full_grid,
    curved_flat_planes,
    developing_psi_per_node,
    from_offblock,
    greedy_gauge_h,
    in_psi_coordinates_einsum,
    kernel_case,
    random_element,
    so3_spec,
    so5_spec,
    special_value_stacks,
)

RNG = np.random.default_rng(1234)
SPEC = so5_spec()
# The gauge's weights of C = w_1 B_1 + w_2 B_2.
W1, W2 = 1.0 / (1.0 + np.sqrt(2.0)), 1.0 / (2.0 + np.sqrt(2.0))


def random_state(d=3, scale=0.8, seed=17):
    rng = np.random.default_rng(seed)
    stack = np.empty((d + 1, 5, 5))
    for k in range(d + 1):
        part = "k" if k % 2 == 0 else "p"
        stack[k] = random_element(rng, SPEC, part=part, scale=scale).matrix
    return LaxState(stack, SPEC)


@pytest.fixture(scope="module")
def run17():
    grid = GridSpec([0.4, 0.4], [17, 17])
    family = FlowFamily([1, 3], 3)
    states = integrate_grid(random_state(seed=3), family, grid, substeps=4)
    conn = connection_from_state(states, family, grid, SPEC)
    gauge = gauge_to_normal_form(conn)
    frames = integrate_frame(conn, [1.0])[0]
    return grid, conn, gauge, frames


@pytest.fixture(scope="module")
def run33():
    grid = GridSpec([0.4, 0.4], [33, 33])
    family = FlowFamily([1, 3], 3)
    states = integrate_grid(random_state(seed=3), family, grid, substeps=4)
    conn = connection_from_state(states, family, grid, SPEC)
    gauge = gauge_to_normal_form(conn)
    frames = integrate_frame(conn, [1.0])[0]
    return grid, conn, gauge, frames


def test_curved_flat_planes_trivial_frames():
    eye = np.broadcast_to(np.eye(5), (2, 2, 5, 5)).copy()
    p = curved_flat_planes(eye, SPEC)
    pi0 = np.zeros((5, 5))
    pi0[:3, :3] = np.eye(3)
    assert np.allclose(p, pi0)
    # Block-diagonal isotropy frames fix the base plane.
    rot = np.eye(5)
    c, s = np.cos(0.7), np.sin(0.7)
    rot[:2, :2] = [[c, -s], [s, c]]
    rot[3:, 3:] = [[c, s], [-s, c]]
    framed = np.broadcast_to(rot, (2, 2, 5, 5)).copy()
    assert np.allclose(curved_flat_planes(framed, SPEC), pi0, atol=1e-14)


def test_curved_flat_planes_projector_properties(run17):
    grid, conn, gauge, frames = run17
    p = curved_flat_planes(frames, SPEC)
    assert np.max(np.abs(p @ p - p)) < 1e-8
    trace = np.trace(p, axis1=-2, axis2=-1)
    assert np.allclose(trace, 3.0, atol=1e-8)
    j = SPEC.space.j_diag
    sym = np.swapaxes(p, -1, -2) * j[None, :] - j[:, None] * p
    assert np.max(np.abs(sym)) < 1e-8
    eig = np.linalg.eigvals(p[3, 4])
    assert np.allclose(np.sort(eig.real), [0.0, 0.0, 1.0, 1.0, 1.0], atol=1e-10)


def test_curved_flat_planes_orthogonal_so3():
    spec3 = so3_spec()
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    frames = np.broadcast_to(q, (2, 3, 3)).copy()
    p = curved_flat_planes(frames, spec3)
    eig = np.sort(np.linalg.eigvals(p[0]).real)
    assert np.allclose(eig, [0.0, 1.0, 1.0], atol=1e-10)


def test_developing_map_detects_branch_flips():
    from curvedflats.errors import GaugeContinuityError

    grid = GridSpec([0.4, 0.4], [5, 5])
    rng = np.random.default_rng(6)
    betas = rng.standard_normal((5, 5, 2, 2))  # wildly non-closed field
    shape = (5, 5, 2, 5, 5)
    gauge = GaugeField(
        np.broadcast_to(np.eye(5), (5, 5, 5, 5)).copy(),
        np.zeros(shape),
        np.zeros(shape),
        betas,
        grid,
        SPEC,
        0.0,
    )
    with pytest.raises(GaugeContinuityError):
        developing_map(gauge, closedness_tol=1e-4)


def test_gauge_normal_form_fixed_point():
    # A connection already in normal form gauges to itself (H a signed
    # permutation at most).
    grid = GridSpec([0.2, 0.2], [3, 3])
    b1 = from_offblock([[0.0, 0.9, 0.0], [0.0, 0.0, 0.4]], SPEC).matrix
    b2 = from_offblock([[0.0, 0.3, 0.0], [0.0, 0.0, -0.5]], SPEC).matrix
    a1 = np.empty((3, 3, 2, 5, 5))
    a1[..., 0, :, :] = b1
    a1[..., 1, :, :] = b2
    conn = ConnectionForm(np.zeros_like(a1), a1, grid, SPEC)
    gauge = gauge_to_normal_form(conn)
    assert np.array_equal(gauge.h, greedy_gauge_h(conn, SPEC))
    assert gauge.max_off_span < 1e-12
    got = {tuple(np.round(sorted(np.abs(row)), 10)) for row in
           gauge.betas[0, 0].tolist()}
    expected = {tuple(sorted([0.9, 0.4])), tuple(sorted([0.3, 0.5]))}
    assert got == expected
    assert np.max(np.abs(gauge.a0)) < 1e-12


def test_gauge_round_trip_under_known_conjugation(run17):
    grid, conn, gauge, _ = run17
    # Conjugate by a constant isotropy element; recovered diagonal data must
    # match the original up to sign and order.
    z = random_element(RNG, SPEC, part="k", scale=0.6)
    h_star = expm(z.matrix)
    a0 = np.einsum("ab,...jbc,dc->...jad", h_star, conn.a0, h_star)
    a1 = np.einsum("ab,...jbc,dc->...jad", h_star, conn.a1, h_star)
    conj = ConnectionForm(a0, a1, grid, SPEC)
    regauged = gauge_to_normal_form(conj)
    assert np.array_equal(regauged.h, greedy_gauge_h(conj, SPEC))
    for j in range(2):
        got = np.sort(np.abs(regauged.betas[4, 7, j]))
        want = np.sort(np.abs(gauge.betas[4, 7, j]))
        assert np.allclose(got, want, atol=1e-8)


def test_gauge_single_direction_matches_svd():
    grid = GridSpec([0.2], [3])
    b = np.array([[0.6, -0.2, 0.1], [0.3, 0.8, -0.4]])
    x = from_offblock(b, SPEC).matrix
    a1 = np.empty((3, 1, 5, 5))
    a1[:, 0] = x
    conn = ConnectionForm(np.zeros_like(a1), a1, grid, SPEC)
    gauge = gauge_to_normal_form(conn)
    assert np.array_equal(gauge.h, greedy_gauge_h(conn, SPEC))
    got = np.sort(np.abs(gauge.betas[0, 0]))
    want = np.sort(np.linalg.svd(b, compute_uv=False))
    assert np.allclose(got, want, atol=1e-12)


def test_gauge_degenerate_spectrum_raises():
    grid = GridSpec([0.2], [3])
    # Equal singular values make the branch ambiguous.
    b = np.array([[0.7, 0.0, 0.0], [0.0, 0.7, 0.0]])
    x = from_offblock(b, SPEC).matrix
    a1 = np.empty((3, 1, 5, 5))
    a1[:, 0] = x
    conn = ConnectionForm(np.zeros_like(a1), a1, grid, SPEC)
    with pytest.raises(DegenerateSpectrumError):
        gauge_to_normal_form(conn)


def test_gauge_names_first_node_with_colliding_singular_values(run17):
    # C = w_1 B_1 + w_2 B_2 has equal singular values where w_1 s_1 = w_2 s_2;
    # the span stays Cartan there.  At the origin, where H is built, the gap
    # test fails.  Elsewhere the origin's H leaves the pair off the reference
    # span, and of the two such nodes (2, 3) comes first in C order.
    grid, conn, _, _ = run17
    d0 = from_offblock([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0]], SPEC).matrix
    d1 = from_offblock([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5 * W1 / W2]], SPEC).matrix

    def colliding(nodes):
        a1 = conn.a1.copy()
        for node in nodes:
            a1[node + (0,)], a1[node + (1,)] = d0, d1
        return ConnectionForm(conn.a0, a1, grid, SPEC)

    at_origin = colliding([(0, 0)])
    with pytest.raises(DegenerateSpectrumError, match=r"at node \(0, 0\)$") as err:
        gauge_to_normal_form(at_origin)
    assert err.value.node == (0, 0)
    with pytest.raises(DegenerateSpectrumError) as former:
        greedy_gauge_h(at_origin, SPEC)
    assert str(err.value) == str(former.value)

    with pytest.raises(NumericalError, match=r"leaves the Cartan span by .* at "
                       r"node \(2, 3\)$") as err:
        gauge_to_normal_form(colliding([(3, 1), (2, 3)]))
    assert type(err.value) is NumericalError
    assert err.value.node == (2, 3)


def test_gauge_names_first_non_cartan_node(run17):
    # A rank-deficient span (flow 2 = 2 x flow 1) at two nodes: the sweep
    # meets (6, 12) first, and the span test fails before any other check.
    grid, conn, _, _ = run17
    a1 = conn.a1.copy()
    for node in [(9, 4), (6, 12)]:
        a1[node + (1,)] = 2.0 * a1[node + (0,)]
    broken = ConnectionForm(conn.a0, a1, grid, SPEC)
    with pytest.raises(NonCartanError, match=r"at \(6, 12\)$") as err:
        gauge_to_normal_form(broken)
    assert err.value.node == (6, 12)
    with pytest.raises(NonCartanError) as former:
        greedy_gauge_h(broken, SPEC)
    assert str(err.value) == str(former.value)


def _rotated_normal_form(grid, rotations):
    """A1 with B_j = D_j R^T: the normal-form pair D_j conjugated at each
    node by its rotation R of the plane block (identity where ``rotations``
    has none), so every span is Cartan."""
    d = [from_offblock([[0.0, 0.9, 0.0], [0.0, 0.0, 0.4]], SPEC).matrix[3:, :3],
         from_offblock([[0.0, 0.3, 0.0], [0.0, 0.0, -0.5]], SPEC).matrix[3:, :3]]
    a1 = np.empty(grid.nodes + (2, 5, 5))
    for index in np.ndindex(grid.nodes):
        r = rotations.get(index, np.eye(3))
        for j in range(2):
            a1[index + (j,)] = from_offblock(d[j] @ r.T, SPEC).matrix
    return ConnectionForm(np.zeros_like(a1), a1, grid, SPEC)


def test_gauge_names_first_node_where_continuity_breaks():
    # Turning a singular direction 70 degrees into the kernel moves the span
    # off the origin's normal form: the gauged p-part leaves the reference
    # Cartan span there, and of the two turned nodes (4, 7) comes first in C
    # order.
    grid = GridSpec([0.4, 0.4], [9, 9])
    angle = np.deg2rad(70.0)
    turn = np.eye(3)
    turn[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    conn = _rotated_normal_form(grid, {(6, 2): turn, (4, 7): turn})
    with pytest.raises(NumericalError, match=r"^gauged p-part leaves the Cartan "
                       r"span by \S+ at node \(4, 7\)$") as err:
        gauge_to_normal_form(conn)
    assert type(err.value) is NumericalError
    assert err.value.node == (4, 7)


def test_gauge_follows_singular_directions_that_swap():
    # The first singular value of C = w_1 B_1 + w_2 B_2 comes from the first
    # diagonal entry for x2-index >= 5 and from the second below, so the raw
    # SVD swaps its columns on every edge (i, 4) -> (i, 5).  Continuation
    # undoes the swap: the gauged coordinates keep their columns.
    grid = GridSpec([0.4, 0.4], [9, 9])
    s0 = 0.1 + 0.03 * (np.arange(9) - 4)
    a1 = np.empty((9, 9, 2, 5, 5))
    for j in range(9):
        a1[:, j, 0] = from_offblock([[0.0, s0[j], 0.0], [0.0, 0.0, 0.6]], SPEC).matrix
    a1[..., 1, :, :] = from_offblock([[0.0, 0.5, 0.0], [0.0, 0.0, -0.2]], SPEC).matrix
    conn = ConnectionForm(np.zeros_like(a1), a1, grid, SPEC)
    c = W1 * a1[..., 0, 3:, :3] + W2 * a1[..., 1, 3:, :3]
    lead = np.argmax(np.abs(np.linalg.svd(c)[2][..., 0, :]), axis=-1)
    assert np.all(lead[:, :5] == 2) and np.all(lead[:, 5:] == 1)

    gauge = gauge_to_normal_form(conn)
    assert np.array_equal(gauge.h, greedy_gauge_h(conn, SPEC))
    assert gauge.max_off_span < 1e-12
    betas = np.abs(gauge.betas)
    col = int(np.argmin(np.abs(betas[0, 0, 0] - abs(s0[0]))))
    assert np.allclose(betas[..., 0, col], np.abs(s0), atol=1e-12)
    assert np.allclose(betas[..., 0, 1 - col], 0.6, atol=1e-12)
    assert np.allclose(betas[..., 1, col], 0.5, atol=1e-12)


def test_gauge_left_singular_columns_keep_their_own_signs():
    # Negating A1 at one node negates C there: the raw SVD flips one side of
    # each singular pair.  Each side takes the sign of its own overlap, so H
    # stays put and the gauged coordinates at that node change sign.
    grid = GridSpec([0.4, 0.4], [5, 5])
    conn = _rotated_normal_form(grid, {})
    conn.a1[3, 2] *= -1.0
    gauge = gauge_to_normal_form(conn)
    assert np.array_equal(gauge.h, greedy_gauge_h(conn, SPEC))
    assert np.array_equal(gauge.h[3, 2], gauge.h[3, 1])
    assert np.allclose(gauge.betas[3, 2], -gauge.betas[3, 1], atol=1e-12)


def test_gauge_matches_greedy_oracle_on_integrated_runs(run17, run33):
    for _, conn, gauge, _ in (run17, run33):
        assert np.array_equal(gauge.h, greedy_gauge_h(conn, SPEC))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gauge_rejects_non_finite_a1_as_structural(run17, bad):
    # The batched SVD would raise LinAlgError on a non-finite entry; the
    # whole-field so(J) check raises StructuralError (exit 2) first.
    grid, conn, _, _ = run17
    a1 = conn.a1.copy()
    a1[5, 6, 1, 3, 0] = bad
    with pytest.raises(StructuralError, match=r"flow 1 at node \(5, 6\)") as err:
        gauge_to_normal_form(ConnectionForm(conn.a0, a1, grid, SPEC))
    assert err.value.node == (5, 6)


def test_pair_reductions_keep_a_nan(run17):
    # Python's max(worst, nan) returns worst: one NaN entry must make each
    # residual NaN, not a passing 0.
    grid, conn, gauge, _ = run17
    a0, a1 = conn.a0.copy(), conn.a1.copy()
    a0[8, 8, 0, 0, 1] = np.nan
    a1[8, 8, 1, 0, 3] = np.nan
    broken = ConnectionForm(a0, a1, grid, SPEC)
    assert np.isnan(mc_residual(broken, 1.0))
    assert np.isnan(abelian_residual(broken))
    betas = gauge.betas.copy()
    betas[8, 8, 0, 0] = np.nan
    nan_gauge = GaugeField(gauge.h, gauge.a0, gauge.a1, betas, grid, SPEC, 0.0)
    # The branch-flip test lets a NaN through to the report's finiteness test.
    dev = developing_map(nan_gauge, closedness_tol=1e-4)
    assert np.isnan(dev.closedness_residual)


def test_gauge_from_h_names_a_non_finite_node(run17):
    # The span test reads the conjugated A1 only, so a NaN in H fails at its
    # own node, not at the neighbours its derivative reaches.
    grid, conn, gauge, _ = run17
    h = gauge.h.copy()
    h[5, 6, 0, 0] = np.nan
    with pytest.raises(NumericalError, match=r"span by nan at node \(5, 6\)$") as err:
        gauge_from_h(conn, h)
    assert err.value.node == (5, 6)


def test_developing_map_constant_coefficients():
    grid = GridSpec([0.4, 0.4], [5, 5])
    b1 = from_offblock([[0.0, 0.9, 0.0], [0.0, 0.0, 0.4]], SPEC).matrix
    b2 = from_offblock([[0.0, 0.3, 0.0], [0.0, 0.0, -0.5]], SPEC).matrix
    a1 = np.empty((5, 5, 2, 5, 5))
    a1[..., 0, :, :] = b1
    a1[..., 1, :, :] = b2
    conn = ConnectionForm(np.zeros_like(a1), a1, grid, SPEC)
    gauge = gauge_to_normal_form(conn)
    assert np.array_equal(gauge.h, greedy_gauge_h(conn, SPEC))
    dev = developing_map(gauge, closedness_tol=1e-4)
    assert dev.closedness_residual == 0.0
    # psi is linear in the coordinates: psi(x) = x . betas.
    h = grid.steps
    for i in range(5):
        for j in range(5):
            expected = i * h[0] * gauge.betas[0, 0, 0] + j * h[1] * gauge.betas[
                0, 0, 1
            ]
            assert np.allclose(dev.psi[i, j], expected, atol=1e-13)


@pytest.mark.parametrize("nodes", [(7,), (5, 6), (3, 4, 5)])
def test_developing_map_equals_per_node_sweep(nodes):
    # The per-slab cumsum makes the per-node walk's additions in its order.
    grid = GridSpec([0.4] * len(nodes), nodes)
    rng = np.random.default_rng(len(nodes))
    k = len(nodes)
    betas = rng.standard_normal(nodes + (k, 2))
    zeros = np.zeros(nodes + (k, 5, 5))
    gauge = GaugeField(np.zeros(nodes + (5, 5)), zeros, zeros, betas,
                       grid, SPEC, 0.0)
    dev = developing_map(gauge, closedness_tol=np.inf)
    assert dev.psi.tobytes() == developing_psi_per_node(betas, grid).tobytes()


def test_developing_map_isometry(run17):
    grid, conn, gauge, _ = run17
    dev = developing_map(gauge, closedness_tol=1e-4)
    assert dev.isometry_residual <= 1e-10
    assert dev.closedness_residual <= 1e-10


def test_developing_map_arc_length_for_curves():
    grid = GridSpec([0.5], [9])
    b = np.array([[0.8, 0.0, 0.0], [0.0, 0.5, 0.0]])
    x = from_offblock(b, SPEC).matrix
    a1 = np.empty((9, 1, 5, 5))
    a1[:, 0] = x
    conn = ConnectionForm(np.zeros_like(a1), a1, grid, SPEC)
    gauge = gauge_to_normal_form(conn)
    assert np.array_equal(gauge.h, greedy_gauge_h(conn, SPEC))
    dev = developing_map(gauge, closedness_tol=1e-4)
    # Antiderivative of constant coefficients: |psi| grows linearly.
    assert np.allclose(
        np.linalg.norm(dev.psi[-1]), 0.5 * np.linalg.norm([0.8, 0.5]), atol=1e-12
    )


def test_reconstruct_immersion_unit_and_kernel(run17):
    grid, conn, gauge, frames = run17
    im = reconstruct_immersion(gauge, frames, 1.0)
    assert im.unit_residual <= 1e-7
    assert im.kernel_residual <= 1e-8
    assert im.degenerate_fraction == 0.0


def test_reconstruct_immersion_rejects_zero_mu(run17):
    grid, conn, gauge, _ = run17
    frames0 = integrate_frame(conn, [0.0])[0]
    with pytest.raises(StructuralError):
        reconstruct_immersion(gauge, frames0, 0.0)


def test_reconstruct_immersion_vacuum_is_non_immersive():
    # Stationary state with zero block-diagonal part: phi is constant.
    spec3 = so3_spec()
    b = np.array([[0.7, 0.0]])
    x = from_offblock(b, spec3).matrix
    stack = np.stack([np.zeros((3, 3)), x])
    grid = GridSpec([0.6], [9])
    family = FlowFamily([1], 1)
    states = integrate_grid(LaxState(stack, spec3), family, grid, substeps=2)
    conn = connection_from_state(states, family, grid, spec3)
    gauge = gauge_to_normal_form(conn)
    frames = integrate_frame(conn, [1.0])[0]
    with pytest.raises(NonImmersiveError):
        reconstruct_immersion(gauge, frames, 1.0)


def test_reconstruct_immersion_identity_frames_non_immersive():
    grid = GridSpec([0.2, 0.2], [4, 4])
    b1 = from_offblock([[0.0, 0.9, 0.0], [0.0, 0.0, 0.4]], SPEC).matrix
    b2 = from_offblock([[0.0, 0.3, 0.0], [0.0, 0.0, -0.5]], SPEC).matrix
    a1 = np.empty((4, 4, 2, 5, 5))
    a1[..., 0, :, :] = b1
    a1[..., 1, :, :] = b2
    conn = ConnectionForm(np.zeros_like(a1), a1, grid, SPEC)
    gauge = gauge_to_normal_form(conn)
    eye = np.broadcast_to(np.eye(5), (4, 4, 5, 5)).copy()
    with pytest.raises(NonImmersiveError):
        reconstruct_immersion(gauge, eye, 1.0)


def test_gauss_curvature_synthetic_sphere_and_plane():
    errs = []
    for nn in (17, 33):
        grid = GridSpec([0.6, 0.6], [nn, nn])
        u = np.arange(nn) * grid.steps[0] - 0.3
        metric = np.zeros((nn, nn, 2, 2))
        metric[..., 0, 0] = 1.0
        metric[..., 1, 1] = np.cos(u)[:, None] ** 2
        kappa = gauss_curvature_field(metric, grid)
        errs.append(np.max(np.abs(kappa[2:-2, 2:-2] - 1.0)))
    assert errs[0] < 5e-3
    ratio = errs[0] / errs[1]
    assert 2.8 <= ratio <= 5.7
    flat = np.zeros((9, 9, 2, 2))
    flat[..., 0, 0] = 1.0
    flat[..., 1, 1] = 1.0
    grid = GridSpec([0.4, 0.4], [9, 9])
    assert np.max(np.abs(gauss_curvature_field(flat, grid)[1:-1, 1:-1])) == 0.0


def test_verify_space_form_geometry_orders(run17, run33):
    reports = []
    for grid, conn, gauge, frames in (run17, run33):
        im = reconstruct_immersion(gauge, frames, 1.0)
        reports.append(verify_space_form_geometry(im))
    for key in (
        "gauss_curvature_max_error",
        "normal_curvature_residual",
        "ii_offdiag_ratio",
    ):
        order = np.log2(reports[0][key] / reports[1][key])
        assert 1.5 <= order <= 2.5, (key, order)
    assert reports[1]["gauss_curvature_max_error"] < 5e-3


def test_inner_node_residuals_equal_full_grid_formulas(run17):
    # The closedness and the normal curvature take their differences on the
    # nodes they read only: the former full-grid values, byte for byte.
    grid, conn, gauge, frames = run17
    dev = developing_map(gauge, closedness_tol=1e-4)
    want = closedness_full_grid(gauge.betas, grid)
    assert np.float64(dev.closedness_residual).tobytes() == np.float64(want).tobytes()
    im = reconstruct_immersion(gauge, frames, 1.0)
    n1 = SPEC.n1
    core = (slice(2, -2), slice(2, -2))
    r_normal = curvature_defect_full_grid(gauge.a0[..., :, n1:, n1:], 0, 1, grid.steps)
    want = float(np.max(np.abs(r_normal[core][~im.degenerate[core]])))
    got = verify_space_form_geometry(im)["normal_curvature_residual"]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _same_bytes(got, want, nan_sign_free=False):
    # An inf entry makes NaNs from inf - inf or inf * 0, whose sign bit
    # depends on the order of operations; no residual reads it.
    if nan_sign_free:
        got, want = (np.where(np.isnan(x), np.nan, x) for x in (got, want))
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_contractions_equal_former_einsums_on_special_values():
    # Both contractions form only the entries they return, in the former
    # order of additions: the same bytes on +-0 and NaN entries too.
    rng = np.random.default_rng(26)
    with np.errstate(invalid="ignore", over="ignore"):
        for a1 in special_value_stacks(rng, (7, 3, 2, 5, 5)):
            assert _same_bytes(geometry._algebra_gram(a1),
                               algebra_gram_full_product(a1),
                               np.isinf(a1).any())
        for w, second in zip(special_value_stacks(rng, (40, 2, 2)),
                             special_value_stacks(rng, (40, 2, 2, 2))):
            assert _same_bytes(geometry._in_psi_coordinates(w, second),
                               in_psi_coordinates_einsum(w, second),
                               np.isinf(w).any() or np.isinf(second).any())


def test_contractions_equal_former_einsums_on_a_run(monkeypatch):
    # On the gauge of a 9^2 run: the algebra Gram of the developing map, and
    # W^T II W as verify_space_form_geometry hands it over for every mu.
    config, _, conn, frames = kernel_case("definite")
    gauge = gauge_to_normal_form(conn)
    assert _same_bytes(geometry._algebra_gram(gauge.a1),
                       algebra_gram_full_product(gauge.a1))
    seen = []
    in_psi = geometry._in_psi_coordinates

    def spy(w, second):
        out = in_psi(w, second)
        seen.append((w, second, out))
        return out

    monkeypatch.setattr(geometry, "_in_psi_coordinates", spy)
    for field, mu in zip(frames, config.mu_samples):
        verify_space_form_geometry(reconstruct_immersion(gauge, field, mu))
    assert len(seen) == len(config.mu_samples) == 3
    for w, second, out in seen:
        assert len(w) == 49
        assert _same_bytes(out, in_psi_coordinates_einsum(w, second))


def test_gauge_only_parts_equal_former_per_mu_formulas(run17):
    # Each part kept on the GaugeField equals what reconstruct_immersion and
    # verify_space_form_geometry computed per mu, and is computed once.
    grid, conn, gauge, frames = run17
    fresh = gauge_from_h(conn, gauge.h)
    kernel = float(np.max(np.linalg.norm(fresh.a1[..., :, 0], axis=-1)))
    assert reconstruct_immersion(fresh, frames, 1.0).kernel_residual == kernel
    n1 = SPEC.n1
    defect = geometry.curvature_defect(fresh.a0[..., :, n1:, n1:], 0, 1,
                                       grid.steps, ring=2)
    assert _same_bytes(fresh.normal_curvature_defect, defect)
    assert fresh.kernel_residual is fresh.kernel_residual
    # A NaN node fails the determinant test; each mu's non-degenerate nodes
    # select from the kept inverse the bytes of inverting them alone.
    betas = gauge.betas.copy()
    betas[4, 5, 1, 0] = np.nan
    nan_gauge = GaugeField(gauge.h, gauge.a0, gauge.a1, betas, grid, SPEC, 0.0)
    jac = np.swapaxes(betas[1:-1, 1:-1], -1, -2)
    with np.errstate(invalid="ignore"):
        ok = np.abs(np.linalg.det(jac)) > 1e-12
        invertible, w = nan_gauge.psi_jacobian_inverse
    assert not invertible[3, 4] and invertible.sum() == invertible.size - 1
    assert np.array_equal(invertible, ok)
    assert nan_gauge.psi_jacobian_inverse[1] is w
    valid = np.random.default_rng(5).random(ok.shape) < 0.7
    assert _same_bytes(w[valid[invertible]], np.linalg.inv(jac[valid & ok]))


def test_gauge_invariance_of_geometry(run17):
    grid, conn, gauge, frames = run17
    # Conjugate by a smooth isotropy-valued gauge with known derivative.
    z = random_element(RNG, SPEC, part="k", scale=1.0).matrix
    h = grid.steps
    nodes = grid.nodes

    def f(i, j):
        x, y = i * h[0], j * h[1]
        return 0.3 * np.sin(1.7 * x) + 0.2 * y * y

    def df(i, j, axis):
        x, y = i * h[0], j * h[1]
        return 0.3 * 1.7 * np.cos(1.7 * x) if axis == 0 else 0.4 * y

    from curvedflats.algebra import expm

    a0 = np.empty_like(conn.a0)
    a1 = np.empty_like(conn.a1)
    g_field = np.empty(nodes + (5, 5))
    for i in range(nodes[0]):
        for j in range(nodes[1]):
            g = g_field[i, j] = expm(f(i, j) * z)
            gi = g.T
            for jdir in range(2):
                a0[i, j, jdir] = (
                    g @ conn.a0[i, j, jdir] @ gi - df(i, j, jdir) * z
                )
                a1[i, j, jdir] = g @ conn.a1[i, j, jdir] @ gi
    conj = ConnectionForm(a0, a1, grid, SPEC)
    assert abs(abelian_residual(conj) - abelian_residual(conn)) < 1e-9

    # The span turns with g(x), so the origin's H leaves it off the reference
    # Cartan span from the first node where g differs from the identity.
    with pytest.raises(NumericalError, match=r"at node \(0, 1\)$") as err:
        gauge_to_normal_form(conj)
    assert err.value.node == (0, 1)
    # H g(x)^T undoes the turn; its -dH H^-1 term must cancel the one added
    # to A0 above.
    regauge = gauge_from_h(conj, gauge.h @ np.swapaxes(g_field, -1, -2))
    # The former continuation followed the turn to the same H up to roundoff.
    assert np.allclose(regauge.h, greedy_gauge_h(conj, SPEC), rtol=0.0, atol=1e-12)
    assert np.allclose(regauge.a1, gauge.a1, rtol=0.0, atol=1e-12)
    dev0 = developing_map(gauge, closedness_tol=1e-4)
    dev1 = developing_map(regauge, closedness_tol=1e-4)
    gram0 = np.einsum("...ia,...ja->...ij", gauge.betas, gauge.betas)
    gram1 = np.einsum("...ia,...ja->...ij", regauge.betas, regauge.betas)
    assert np.max(np.abs(gram0 - gram1)) < 1e-9
    assert dev1.isometry_residual < 1e-9

    frames1 = integrate_frame(conj, [1.0])[0]
    im0 = reconstruct_immersion(gauge, frames, 1.0)
    im1 = reconstruct_immersion(regauge, frames1, 1.0)
    rep0 = verify_space_form_geometry(im0)
    rep1 = verify_space_form_geometry(im1)
    for key in ("gauss_curvature_max_error", "normal_curvature_residual"):
        assert rep1[key] <= 10.0 * rep0[key] + 1e-10, key


def test_spectral_reparam():
    assert spectral_reparam(1.0, 0.5) == 0.0
    assert spectral_reparam(-1.0, 0.5) == 0.0
    assert spectral_reparam(2.0, 0.5) == pytest.approx(-0.75, abs=1e-15)
    lam = 2.0
    assert spectral_reparam(1.0 / lam, 0.5) == -spectral_reparam(lam, 0.5)
    for lam in (0.3, 1.7, 5.0):
        assert spectral_reparam(1.0 / lam, 0.25) == pytest.approx(
            -spectral_reparam(lam, 0.25), abs=1e-14
        )
    with pytest.raises(StructuralError):
        spectral_reparam(1.0, 1.5)
    with pytest.raises(StructuralError):
        spectral_reparam(0.0, 0.5)


def _circle_setup(omega, beta, mu, length=2.0, nodes=161):
    spec3 = so3_spec()
    k_gen = np.zeros((3, 3))
    k_gen[0, 1], k_gen[1, 0] = 1.0, -1.0
    xi0 = omega * k_gen
    xi1 = from_offblock([[beta, 0.0]], spec3).matrix
    stack = np.stack([xi0, xi1])
    grid = GridSpec([length], [nodes])
    family = FlowFamily([1], 1)
    states = integrate_grid(LaxState(stack, spec3), family, grid, substeps=2)
    conn = connection_from_state(states, family, grid, spec3)
    frames = integrate_frame(conn, [mu])[0]
    return curve_diagnostics(frames, mu, conn), grid


def test_curve_diagnostics_circle_family():
    omega, beta = 0.8, 1.0
    for mu in (0.5, 1.0, 2.0):
        diag, _ = _circle_setup(omega, beta, mu)
        assert np.allclose(diag["speed"], mu * beta, atol=1e-10)
        assert np.allclose(
            np.abs(diag["geodesic_curvature"]), omega / (mu * beta), atol=1e-8
        )


def test_curve_diagnostics_great_circle():
    beta, mu = 1.0, 1.3
    diag, grid = _circle_setup(0.0, beta, mu)
    xs = np.arange(grid.nodes[0]) * grid.steps[0]
    expected = np.stack(
        [-np.sin(mu * beta * xs), np.zeros_like(xs), np.cos(mu * beta * xs)],
        axis=-1,
    )
    assert np.max(np.abs(diag["curve"] - expected)) < 1e-6
    assert np.max(np.abs(diag["geodesic_curvature"])) < 1e-8
