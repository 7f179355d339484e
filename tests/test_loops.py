import tracemalloc

import numpy as np
import pytest

import curvedflats.loops as loops
from curvedflats.loops import (
    FlowFamily,
    LaxState,
    connection_coefficients,
    evaluate_stack,
    flow_rhs,
    top_powers,
    trace_powers,
    twist_residual,
)
from curvedflats.algebra import expm
from curvedflats.errors import StructuralError

from curvedflats.presets import make_preset

from helpers import (
    flow_field,
    flow_rhs_single,
    from_offblock,
    random_element,
    so5_spec,
    special_value_stacks,
    tilde_v,
    twist_residual_full_product,
    twist_residual_two_projections,
)

RNG = np.random.default_rng(77)
SPEC = so5_spec()


def random_lax_state(d=3, scale=0.8, rng=RNG):
    stack = np.empty((d + 1, 5, 5))
    for k in range(d + 1):
        part = "k" if k % 2 == 0 else "p"
        stack[k] = random_element(rng, SPEC, part=part, scale=scale).matrix
    return LaxState(stack, SPEC)


def cauchy_oracle(stacks):
    """Convolution of coefficient stacks by explicit degree bookkeeping."""
    result = {0: np.eye(5)}
    for stack in stacks:
        new = {}
        for deg, mat in result.items():
            for k in range(stack.shape[0]):
                key = deg + k
                new[key] = new.get(key, 0.0) + mat @ stack[k]
        result = new
    return result


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
@pytest.mark.parametrize("lo", [-3, -2, 0, 1])
def test_twist_residual_matches_two_projection_oracle(preset, lo):
    # One product with the parity mask gives the same values as the two
    # {0, 1}-mask projections and their where: signed zeros, NaN and inf too.
    spec = make_preset(preset)
    rng = np.random.default_rng(lo + 10)
    with np.errstate(invalid="ignore"):  # inf * 0 in both forms
        for length in (1, 4):
            for stack in special_value_stacks(rng, (3, 2, length, 5, 5)):
                for case in (stack, stack[0, 0]):
                    np.testing.assert_equal(
                        twist_residual(case, lo, spec),
                        twist_residual_two_projections(case, lo, spec),
                    )


@pytest.mark.parametrize("block", [None, 1, 3000])
def test_twist_residual_blocked_matches_full_product(monkeypatch, block):
    # Taken in blocks (the default, one node per block, and blocks that
    # split the node rows unevenly), the residual equals the one product of
    # the whole stack: random values, signed zeros, NaN and inf.
    if block is not None:
        monkeypatch.setattr(loops, "RESIDUAL_BLOCK", block)
    spec = make_preset("anti-de-sitter")
    rng = np.random.default_rng(21)
    with np.errstate(invalid="ignore"):  # inf * 0 in both forms
        for stack in special_value_stacks(rng, (11, 13, 4, 5, 5)):
            np.testing.assert_equal(
                twist_residual(stack, 0, spec),
                twist_residual_full_product(stack, 0, spec),
            )
    nan_last = rng.standard_normal((200, 4, 5, 5))
    nan_last[-1, 2, 3, 1] = np.nan
    assert np.isnan(twist_residual(nan_last, 0, spec))
    assert twist_residual(np.zeros((0, 4, 5, 5)), 0, spec) == 0.0


@pytest.mark.parametrize(
    "residual,bounded",
    [(twist_residual, True), (twist_residual_full_product, False)],
)
def test_twist_residual_peak_memory_is_a_few_blocks(residual, bounded):
    # A 16 MB stack: the blocked residual holds a few blocks, the former
    # one a product of the whole stack.
    spec = make_preset("sphere-grassmannian")
    stack = np.random.default_rng(0).standard_normal((2 ** 21 // 100, 4, 5, 5))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        value = residual(stack, 0, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert (peak <= 1e6) is bounded, peak


def test_twist_validation():
    # A p-element at even degree violates the twist condition.
    bad = np.zeros((2, 5, 5))
    bad[0] = from_offblock([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], SPEC).matrix
    with pytest.raises(StructuralError, match="twist condition"):
        LaxState(np.concatenate([bad, np.zeros((2, 5, 5))]), SPEC)  # d = 3
    with pytest.raises(StructuralError):
        LaxState(bad, SPEC)  # d = 1


def test_twist_check_rejects_a_nan_entry():
    # A NaN twist residual compares False with any bound, so the check must
    # accept only a residual that is at most it.
    stack = random_lax_state().stack.copy()
    stack[1, 0, 4] = np.nan
    with pytest.raises(StructuralError, match="twist condition"):
        LaxState(stack, SPEC)
    kept = LaxState(stack, SPEC, check=False)
    assert np.isnan(kept.stack[1, 0, 4])


def test_lax_state_requires_odd_degree():
    stack = np.zeros((3, 5, 5))
    with pytest.raises(StructuralError):
        LaxState(stack, SPEC)


def test_flow_family_validation():
    FlowFamily([1, 3], 3)
    with pytest.raises(StructuralError):
        FlowFamily([2], 3)
    with pytest.raises(StructuralError):
        FlowFamily([3, 1], 3)
    with pytest.raises(StructuralError):
        FlowFamily([1], 2)
    with pytest.raises(StructuralError):
        FlowFamily([], 3)


def test_tilde_v_identity_flow():
    xi = random_lax_state(d=1)
    tv = tilde_v(xi, 1)
    assert tv.lo == 0 and tv.hi == 1
    assert np.allclose(tv.stack, xi.stack)


def test_tilde_v_rejects_even_powers():
    with pytest.raises(StructuralError):
        tilde_v(random_lax_state(d=1), 2)


def test_tilde_v_cubed_normal_form():
    # B with B B^T = I forces xi1^3 = -xi1, so Vt collapses to -mu xi1.
    b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    xi1 = from_offblock(b, SPEC).matrix
    assert np.allclose(
        np.linalg.matrix_power(xi1, 3), -xi1
    )  # direct 5x5 cube oracle
    stack = np.stack([np.zeros((5, 5)), xi1])
    tv = tilde_v(LaxState(stack, SPEC), 3)
    assert tv.lo == -2 and tv.hi == 1
    assert np.allclose(tv.coefficient(1), -xi1)
    assert np.max(np.abs(tv.stack[:-1])) < 1e-15


def test_tilde_v_general_coefficients_match_cauchy_oracle():
    xi = random_lax_state(d=1)
    xi0, xi1 = xi.stack[0], xi.stack[1]
    tv = tilde_v(xi, 3)
    oracle = cauchy_oracle([xi.stack] * 3)
    assert np.allclose(tv.coefficient(1), oracle[3])
    assert np.allclose(tv.coefficient(0), oracle[2])
    assert np.allclose(oracle[3], xi1 @ xi1 @ xi1)
    assert np.allclose(
        oracle[2], xi0 @ xi1 @ xi1 + xi1 @ xi0 @ xi1 + xi1 @ xi1 @ xi0
    )


def test_tilde_v_commutes_with_evaluation():
    for _ in range(5):
        xi = random_lax_state(d=3)
        for r in (1, 3):
            tv = tilde_v(xi, r)
            for mu0 in (0.7, 1.3):
                direct = mu0 ** (1 - 3 * r) * np.linalg.matrix_power(
                    evaluate_stack(xi.stack, 0, mu0), r
                )
                assert np.max(np.abs(tv.evaluate(mu0) - direct)) < 1e-11


def test_tilde_v_twist_preservation():
    for _ in range(5):
        xi = random_lax_state(d=3)
        for r in (1, 3, 5):
            tv = tilde_v(xi, r)
            assert twist_residual(tv.stack, tv.lo, SPEC) < 1e-12 * max(
                1.0, xi.norm() ** r
            ) + 1e-13


def test_flow_field_stationary_cases():
    xi = random_lax_state(d=1)
    assert flow_field(xi, 1).norm() < 1e-15
    b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    xi1 = from_offblock(b, SPEC).matrix
    stack = np.stack([np.zeros((5, 5)), xi1])
    assert flow_field(LaxState(stack, SPEC), 3).norm() < 1e-15


def test_flow_field_d3_r1_expansion():
    xi = random_lax_state(d=3)
    out = flow_field(xi, 1)
    # pi_+ Vt = xi_2 + mu xi_3; bracket degree-by-degree via the oracle.
    xi2, xi3 = xi.stack[2], xi.stack[3]
    for k in range(4):
        expected = xi.stack[k] @ xi2 - xi2 @ xi.stack[k]
        if k >= 1:
            expected += xi.stack[k - 1] @ xi3 - xi3 @ xi.stack[k - 1]
        assert np.allclose(out.stack[k], expected)


def test_flow_field_tangency_and_twist():
    for _ in range(5):
        xi = random_lax_state(d=3)
        for r in (1, 3):
            out = flow_field(xi, r)
            assert out.stack.shape[0] == 4
            assert twist_residual(out.stack, 0, SPEC) < 1e-11


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("r", [1, 3, 5])
def test_flow_rhs_matches_flow_field(d, r):
    # flow_rhs is the pipeline's flow; the Cauchy-power oracle is its reference.
    rng = np.random.default_rng(100 * d + r)
    states = [random_lax_state(d=d, rng=rng) for _ in range(3)]
    for xi in states:
        expected = flow_field(xi, r).stack
        scale = max(1.0, float(np.max(np.abs(xi.stack)))) ** (r + 1)
        got = flow_rhs(xi.stack, top_powers(xi.stack[d], r), d)
        assert np.max(np.abs(got - expected)) < 1e-13 * scale
    # The top-two kernel reproduces degrees 0 and 1 of the full Cauchy power
    # byte for byte (signed zeros included), also on a stack of states.
    stacked = np.stack([xi.stack for xi in states])
    lo, hi = connection_coefficients(stacked, top_powers(stacked[:, d], r), d)
    for i, xi in enumerate(states):
        full = tilde_v(xi, r).stack
        assert lo[i].tobytes() == full[d * r - 1].tobytes()
        assert hi[i].tobytes() == full[d * r].tobytes()


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("r", [1, 3, 5])
def test_connection_coefficients_of_one_state_match_cauchy_power(d, r):
    # A single (d+1, n, n) state takes the 2-D ``dot`` branch: its pair is
    # degrees dr-1 and dr of the full Cauchy power byte for byte, signed
    # zeros included.
    rng = np.random.default_rng(1000 + 10 * d + r)
    stacks = [random_lax_state(d=d, scale=s, rng=rng).stack for s in (0.3, 0.8, 2.0)]
    stacks += [np.zeros((d + 1, 5, 5)), -np.zeros((d + 1, 5, 5))]
    # A +0 top over an all-negative xi_{d-1}: every product term is -0, and
    # the pair must still carry the Cauchy power's signed zeros.
    signed = np.zeros((d + 1, 5, 5))
    signed[d - 1] = -1.0 - rng.random((5, 5))
    stacks.append(signed)
    for stack in stacks:
        lo, hi = connection_coefficients(stack, top_powers(stack[d], r), d)
        assert lo.shape == hi.shape == (5, 5)
        full = tilde_v(LaxState(stack, SPEC, check=False), r).stack
        assert lo.tobytes() == full[d * r - 1].tobytes()
        assert hi.tobytes() == full[d * r].tobytes()


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("r", [1, 3, 5])
def test_flow_rhs_stack_matches_per_slice_loop(d, r):
    # The broadcast kernel on a (b, d+1, n, n) stack equals the former
    # per-degree loop on each slice byte for byte, signed zeros included.
    rng = np.random.default_rng(10 * d + r)
    slices = [random_lax_state(d=d, scale=s, rng=rng).stack for s in (0.3, 0.8, 2.0)]
    slices += [np.zeros((d + 1, 5, 5)), -np.zeros((d + 1, 5, 5))]
    stack = np.stack(slices)
    got = flow_rhs(stack, top_powers(stack[:, d], r), d)
    assert got.shape == stack.shape
    for i, one in enumerate(slices):
        assert got[i].tobytes() == flow_rhs_single(one, r, d).tobytes()
        alone = flow_rhs(one, top_powers(one[d], r), d)
        assert alone.tobytes() == flow_rhs_single(one, r, d).tobytes()


def test_spectral_invariants_values():
    zero = np.zeros((2, 5, 5))
    assert trace_powers(evaluate_stack(zero, 0, 0.9), 4).tolist() == [0.0, 0.0]
    b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    xi1 = from_offblock(b, SPEC).matrix
    xi = LaxState(np.stack([np.zeros((5, 5)), xi1]), SPEC)
    mu0 = 1.3
    vals = trace_powers(evaluate_stack(xi.stack, 0, mu0), 2)
    assert vals[0] == pytest.approx(-4.0 * mu0**2, rel=1e-13)


def test_spectral_invariants_conjugation_invariance():
    xi = random_lax_state(d=3)
    g = expm(0.6 * random_element(RNG, SPEC).matrix)
    g_inv = np.linalg.inv(g)
    conj = np.stack([g @ c @ g_inv for c in xi.stack])
    for mu0 in (0.5, 1.0, 2.0):
        a = trace_powers(evaluate_stack(xi.stack, 0, mu0), 6)
        b = trace_powers(evaluate_stack(conj, 0, mu0), 6)
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)
