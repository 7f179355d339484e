"""Acceptance suite: each test exercises one contract of the build at its
stated tolerance on the shipped default configuration and prints a pass line.
"""

import numpy as np
import pytest

from curvedflats.algebra import is_cartan
from curvedflats.cli import RunConfig, default_config, run_pipeline, seed_initial_state
from curvedflats.frame import abelian_residual, connection_from_state, integrate_frame, mc_residual
from curvedflats.geometry import (
    curve_diagnostics,
    developing_map,
    gauge_to_normal_form,
    reconstruct_immersion,
    spectral_reparam,
    verify_space_form_geometry,
)
from curvedflats.lax import commutativity_check, conservation_report, integrate_grid
from curvedflats.loops import FlowFamily, LaxState

from helpers import (
    AlgebraElement,
    cartan_oracle,
    from_offblock,
    greedy_gauge_h,
    so5_spec,
    span_of,
)

MU_SET = (0.0, 0.6, 1.0, 1.6)
ORDER_WINDOW = (1.5, 2.5)


def _assemble(config, grid):
    xi0, _ = seed_initial_state(config)
    states = integrate_grid(xi0, config.family, grid, substeps=config.substeps)
    conn = connection_from_state(states, config.family, grid, config.spec)
    return states, conn


@pytest.fixture(scope="module")
def default_run():
    config = RunConfig(default_config())
    states, conn = _assemble(config, config.grid)
    gauge = gauge_to_normal_form(conn)
    frames = integrate_frame(conn, [1.0])[0]
    return config, states, conn, gauge, frames


@pytest.fixture(scope="module")
def refined_run(default_run):
    config = default_run[0]
    fine = config.grid.refine()
    states, conn = _assemble(config, fine)
    gauge = gauge_to_normal_form(conn)
    frames = integrate_frame(conn, [1.0])[0]
    return fine, states, conn, gauge, frames


def test_gauge_matches_greedy_oracle(default_run, refined_run):
    # Exact continuation reproduces the former greedy gauge byte for byte.
    spec = default_run[0].spec
    for conn, gauge in ((default_run[2], default_run[3]),
                        (refined_run[2], refined_run[3])):
        assert np.array_equal(gauge.h, greedy_gauge_h(conn, spec))


def test_criterion_1_zero_curvature_identical_in_mu(default_run, refined_run):
    config, _, conn, _, _ = default_run
    fine, _, conn_f, _, _ = refined_run
    for mu in MU_SET:
        coarse = mc_residual(conn, mu)
        refined = mc_residual(conn_f, mu)
        order = np.log2(coarse / refined)
        assert ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1], (mu, order)
        assert refined <= 1e-5, (mu, refined)
    print("PASS criterion 1: zero-curvature residual is O(h^2), identically in mu")


def test_criterion_2_abelian_tangent_spaces(default_run):
    _, _, conn, _, _ = default_run
    res = abelian_residual(conn)
    assert res <= 1e-9, res
    print(f"PASS criterion 2: abelian tangent residual {res:.2e} <= 1e-9")


def test_criterion_3_commuting_flows(default_run):
    config, states, _, _, _ = default_run
    origin = LaxState(states[0, 0], config.spec, check=False)
    target = config.grid.extents
    d4 = commutativity_check(origin, config.family, target, steps=4)
    d8 = commutativity_check(origin, config.family, target, steps=8)
    order = np.log2(d4 / d8)
    assert 3.5 <= order <= 4.5, order
    d_default = commutativity_check(
        origin, config.family, target, steps=config.commutativity_steps
    )
    assert d_default <= 1e-8, d_default
    print(
        f"PASS criterion 3: flow commutation order {order:.2f}, "
        f"default discrepancy {d_default:.2e} <= 1e-8"
    )


def test_criterion_4_isospectrality(default_run):
    _, states, _, _, _ = default_run
    report = conservation_report(states, [0.6, 1.0, 1.6], max_power=4)
    for mu, table in report["table"].items():
        for p in (2, 4):
            assert table[p] <= 1e-8, (mu, p, table[p])
    print(f"PASS criterion 4: spectral invariants conserved to {report['max']:.2e}")


def test_criterion_5_intrinsic_flatness(default_run, refined_run):
    config, _, _, gauge, _ = default_run
    fine, _, _, gauge_f, _ = refined_run
    dev = developing_map(gauge, closedness_tol=1e-4)
    dev_f = developing_map(gauge_f, closedness_tol=1e-4)
    c0, c1 = dev.closedness_residual, dev_f.closedness_residual
    if max(c0, c1) >= 1e-12:
        order = np.log2(c0 / c1)
        assert ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1], order
        note = f"closedness order {order:.2f}"
    else:
        # The gauged coefficients are constant for these flows, so the
        # closedness defect sits at machine zero on both grids.
        note = f"closedness at machine zero ({max(c0, c1):.1e})"
    assert dev.isometry_residual <= 1e-10, dev.isometry_residual
    print(
        f"PASS criterion 5: {note}; development isometry "
        f"{dev.isometry_residual:.2e} <= 1e-10"
    )


def test_criterion_6_immersion_reconstruction(default_run, refined_run):
    config, _, _, gauge, frames = default_run
    fine, _, _, gauge_f, frames_f = refined_run
    im = reconstruct_immersion(gauge, frames, 1.0)
    im_f = reconstruct_immersion(gauge_f, frames_f, 1.0)
    assert im.unit_residual <= 1e-7, im.unit_residual
    assert im.kernel_residual <= 1e-8, im.kernel_residual
    rep = verify_space_form_geometry(im)
    rep_f = verify_space_form_geometry(im_f)
    orders = {}
    for key in (
        "gauss_curvature_max_error",
        "normal_curvature_residual",
        "ii_offdiag_ratio",
    ):
        orders[key] = np.log2(rep[key] / rep_f[key])
        assert ORDER_WINDOW[0] <= orders[key] <= ORDER_WINDOW[1], (key, orders)
    print(
        "PASS criterion 6: unit-quadric {:.1e}, kernel {:.1e}; convergence "
        "orders K->1: {:.2f}, normal: {:.2f}, II-diagonality: {:.2f}".format(
            im.unit_residual,
            im.kernel_residual,
            orders["gauss_curvature_max_error"],
            orders["normal_curvature_residual"],
            orders["ii_offdiag_ratio"],
        )
    )


def _rank_one_curve(omega, beta, mu):
    from curvedflats.presets import make_preset

    spec3 = make_preset("sphere", m=1, n=1)
    assert spec3.rank == 1
    k_gen = np.zeros((3, 3))
    k_gen[0, 1], k_gen[1, 0] = 1.0, -1.0
    stack = np.stack([omega * k_gen, from_offblock([[beta, 0.0]], spec3).matrix])
    from curvedflats.lax import GridSpec

    grid = GridSpec([3.0], [257])
    family = FlowFamily([1], 1)
    states = integrate_grid(LaxState(stack, spec3), family, grid, substeps=2)
    conn = connection_from_state(states, family, grid, spec3)
    frames = integrate_frame(conn, [mu])[0]
    return curve_diagnostics(frames, mu, conn), grid


def test_criterion_7_curve_family_scaling():
    omega, beta = 0.8, 1.0
    speeds = {}
    kappas = {}
    for mu in (0.5, 1.0, 2.0):
        diag, _ = _rank_one_curve(omega, beta, mu)
        speeds[mu] = float(np.mean(diag["speed"]))
        kappas[mu] = float(np.mean(diag["geodesic_curvature"]))
    for mu in (0.5, 2.0):
        assert abs(speeds[mu] / speeds[1.0] - mu) <= 1e-6, (mu, speeds)
        assert abs(kappas[mu] * mu / kappas[1.0] - 1.0) <= 1e-4, (mu, kappas)
    # Stationary seed: the pipeline reproduces the analytic great circle.
    mu = 1.0
    diag, grid = _rank_one_curve(0.0, beta, mu)
    xs = np.arange(grid.nodes[0]) * grid.steps[0]
    circle = np.stack(
        [-np.sin(mu * beta * xs), np.zeros_like(xs), np.cos(mu * beta * xs)],
        axis=-1,
    )
    err = float(np.max(np.abs(diag["curve"] - circle)))
    assert err <= 1e-6, err
    print(
        "PASS criterion 7: speed scales by mu (<=1e-6), curvature by 1/mu "
        f"(<=1e-4); great-circle deviation {err:.2e} <= 1e-6"
    )


def test_criterion_8_cartan_detection_oracle():
    spec = so5_spec()
    rng = np.random.default_rng(2718)
    b1 = from_offblock([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], spec)
    b2 = from_offblock([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], spec)
    b3 = from_offblock([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], spec)
    disagreements = 0
    cartan_count = 0
    for trial in range(50):
        # Random isotropy conjugation of the normal-form pair, remixed.
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        h = np.zeros((5, 5))
        h[:3, :3], h[3:, 3:] = q1, q2
        mix = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        y1 = h @ (mix[0, 0] * b1.matrix + mix[0, 1] * b2.matrix) @ h.T
        y2 = h @ (mix[1, 0] * b1.matrix + mix[1, 1] * b2.matrix) @ h.T
        z = h @ b3.matrix @ h.T
        span = [AlgebraElement(y1, spec.space), AlgebraElement(y2, spec.space)]
        got = is_cartan(span_of(span), spec)
        want = cartan_oracle(span, spec)
        disagreements += got != want
        cartan_count += got
        if trial % 2 == 0:
            # Perturbation breaking commutativity.
            bad = [
                AlgebraElement(y1 + 1e-3 * z, spec.space),
                span[1],
            ]
        else:
            # Rank-deficient span.
            bad = [span[0], AlgebraElement(1.5 * y1, spec.space)]
        got_bad = is_cartan(span_of(bad), spec)
        want_bad = cartan_oracle(bad, spec)
        disagreements += got_bad != want_bad
        assert not got_bad
    assert cartan_count == 50
    assert disagreements == 0
    print("PASS criterion 8: 100/100 Cartan verdicts agree with the oracle")


def test_criterion_9_spectral_reparametrization():
    assert spectral_reparam(1.0, 0.5) == 0.0
    for lam in (2.0, 4.0, 0.25):  # dyadic: reciprocal is exact in binary
        assert spectral_reparam(1.0 / lam, 0.5) == -spectral_reparam(lam, 0.5)
    assert abs(spectral_reparam(2.0, 0.5) - (-0.75)) <= 1e-15
    print("PASS criterion 9: mu(1)=0, mu(1/lam)=-mu(lam), mu(2;1/2)=-0.75")


def test_criterion_10_determinism(tmp_path):
    config = default_config()
    config["outputs"] = {"report": True, "csv": True, "obj": False}
    _, code_a = run_pipeline(RunConfig(config), tmp_path / "a")
    _, code_b = run_pipeline(RunConfig(config), tmp_path / "b")
    assert code_a == 0 and code_b == 0
    bytes_a = (tmp_path / "a" / "phi.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "phi.csv").read_bytes()
    assert bytes_a == bytes_b
    print("PASS criterion 10: repeated runs produce bit-identical CSV artifacts")
