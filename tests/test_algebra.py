import tracemalloc

import numpy as np
import pytest

import curvedflats.algebra as algebra
from curvedflats.algebra import (
    CARTAN_CACHE_SIZE,
    AlgebraElement,
    BilinearSpace,
    SymmetricSpaceSpec,
    expm,
    in_group_residual,
    is_abelian,
    is_cartan,
    membership_residual,
)
from curvedflats.errors import StructuralError
from curvedflats.loops import connection_coefficients, top_powers
from curvedflats.presets import make_preset, preset_names

from helpers import (
    cartan_oracle,
    expm_single,
    from_offblock,
    is_cartan_per_element,
    membership_residual_sum,
    membership_residual_two_temporaries,
    random_element,
    so3_spec,
    so5_spec,
    so14_spec,
    span_of,
    special_value_stacks,
)

RNG = np.random.default_rng(20240311)


def elem(i, j, n):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def test_bilinear_space_validation():
    s = BilinearSpace(3, 2)
    assert np.allclose(s.metric @ s.metric, np.eye(5))
    assert s.dim == 5
    with pytest.raises(StructuralError):
        BilinearSpace(2, 1, diag=[1.0, 2.0, -1.0])
    with pytest.raises(StructuralError):
        BilinearSpace(2, 1, diag=[1.0, -1.0, -1.0])


def test_symmetric_spec_validation():
    with pytest.raises(StructuralError):
        SymmetricSpaceSpec(BilinearSpace(3, 0), (2, 2), rank=1)
    with pytest.raises(StructuralError):
        SymmetricSpaceSpec(BilinearSpace(3, 0), (2, 1), rank=3)


def test_membership_enforced():
    spec = so3_spec()
    with pytest.raises(StructuralError):
        AlgebraElement(np.eye(3), spec.space)


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
def test_membership_residual_matches_three_temporary_oracle(preset):
    # The in-place add and abs give the same value as the one-expression
    # form, on whole stacks and single matrices, signed zeros, NaN and inf.
    space = make_preset(preset).space
    rng = np.random.default_rng(5)
    with np.errstate(invalid="ignore"):  # inf - inf in both forms
        for shape in ((3, 2, 4, 5, 5), (5, 5)):
            for m in special_value_stacks(rng, shape):
                np.testing.assert_equal(
                    membership_residual(m, space), membership_residual_sum(m, space)
                )


@pytest.mark.parametrize("preset", ["sphere-grassmannian", "anti-de-sitter"])
@pytest.mark.parametrize("block", [None, 1, 600, 5000])
def test_membership_residual_matches_two_temporary_formula(monkeypatch, preset,
                                                           block):
    # Y + Y^T with Y = J X adds the products of X^T J + J X in the other
    # order: equal values, NaN included, whether the stack is one block,
    # one matrix per block, or blocks that do not divide the stack.
    if block is not None:
        monkeypatch.setattr(algebra, "RESIDUAL_BLOCK", block)
    space = make_preset(preset).space
    rng = np.random.default_rng(7)
    with np.errstate(invalid="ignore"):  # inf - inf in both forms
        for shape in ((7, 3, 4, 5, 5), (13, 5, 5), (5, 5)):
            for m in special_value_stacks(rng, shape):
                np.testing.assert_equal(
                    membership_residual(m, space),
                    membership_residual_two_temporaries(m, space),
                )
    empty = np.zeros((0, 5, 5))
    assert membership_residual(empty, space) == 0.0
    assert membership_residual_two_temporaries(empty, space) == 0.0


@pytest.mark.parametrize(
    "residual,bounded",
    [(membership_residual, True), (membership_residual_two_temporaries, False)],
)
def test_membership_residual_peak_memory_is_a_few_blocks(residual, bounded):
    # A 16 MB stack: the blocked residual holds a few blocks, the former
    # formula two temporaries of the whole stack, so the bound tells them
    # apart.
    space = make_preset("sphere-grassmannian").space
    stack = np.random.default_rng(0).standard_normal((2 ** 21 // 25, 5, 5))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        value = residual(stack, space)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert (peak <= 1e6) is bounded, peak


def test_decompose_identities():
    spec = so5_spec()
    sigma = np.outer(spec.s_diag, spec.s_diag)  # S X S = sigma * X
    for _ in range(10):
        x = random_element(RNG, spec).matrix
        k_part, p_part = spec.k_project(x), spec.p_project(x)
        # Both parts stay in so(J): AlgebraElement validates membership.
        AlgebraElement(k_part, spec.space)
        AlgebraElement(p_part, spec.space)
        assert np.allclose(k_part + p_part, x, atol=1e-14)
        assert np.allclose(sigma * k_part, k_part)
        assert np.allclose(sigma * p_part, -p_part)
    block = elem(0, 1, 5) - elem(1, 0, 5)
    assert np.max(np.abs(spec.p_project(block))) == 0.0
    off = elem(0, 2, 3) - elem(2, 0, 3)
    assert np.max(np.abs(so3_spec().k_project(off))) == 0.0


def test_decomposition_bracket_relations():
    spec = so5_spec()
    for _ in range(10):
        k1, k2, p1, p2 = (
            random_element(RNG, spec, part=part).matrix for part in "kkpp"
        )
        assert np.max(np.abs(spec.p_project(k1 @ k2 - k2 @ k1))) < 1e-12
        assert np.max(np.abs(spec.k_project(k1 @ p1 - p1 @ k1))) < 1e-12
        assert np.max(np.abs(spec.p_project(p1 @ p2 - p2 @ p1))) < 1e-12


def test_is_abelian():
    spec = so5_spec()
    b1 = from_offblock([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], spec)
    b2 = from_offblock([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], spec)
    assert is_abelian(span_of([b1, b2]), tol=1e-12)
    assert is_abelian(span_of([b1]), tol=1e-12)
    s3 = so3_spec()
    p1 = AlgebraElement(elem(0, 2, 3) - elem(2, 0, 3), s3.space)
    p2 = AlgebraElement(elem(1, 2, 3) - elem(2, 1, 3), s3.space)
    assert not is_abelian(span_of([p1, p2]), tol=1e-12)
    with pytest.raises(StructuralError):
        is_abelian(np.empty((0, 3, 3)), tol=1e-12)


def test_is_cartan_examples():
    spec = so5_spec()
    b1 = from_offblock([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], spec)
    b2 = from_offblock([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], spec)
    assert is_cartan(span_of([b1, b2]), spec, tol=1e-9)
    assert not is_cartan(span_of([b1]), spec, tol=1e-9)
    assert not is_cartan(span_of([b1, b1]), spec, tol=1e-9)
    k_elem = AlgebraElement(elem(0, 1, 5) - elem(1, 0, 5), spec.space)
    with pytest.raises(StructuralError):
        is_cartan(span_of([k_elem]), spec)


def test_is_cartan_agrees_with_oracle_so3_so5():
    s3, s5 = so3_spec(), so5_spec()
    for _ in range(15):
        span3 = [random_element(RNG, s3, part="p")]
        assert is_cartan(span_of(span3), s3, tol=1e-9) == cartan_oracle(span3, s3)
        span5 = [random_element(RNG, s5, part="p") for _ in range(2)]
        assert is_cartan(span_of(span5), s5, tol=1e-9) == cartan_oracle(span5, s5)


def test_is_cartan_agrees_with_oracle_indefinite():
    spec = so14_spec(rank=2)
    null_spec = so14_spec(rank=1)
    null_elem = from_offblock([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], null_spec)
    # Null direction: the trace form degenerates on its span.
    m = null_elem.matrix
    assert -0.5 * np.trace(m @ m) == pytest.approx(0.0, abs=1e-14)
    assert is_cartan(span_of([null_elem]), null_spec, tol=1e-9) == cartan_oracle(
        [null_elem], null_spec
    )
    assert not is_cartan(span_of([null_elem]), null_spec, tol=1e-9)
    # A commuting nondegenerate pair is Cartan; both tests agree on it and on
    # random singletons (dimension deficit).
    b1 = from_offblock([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], spec)
    b2 = from_offblock([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], spec)
    assert is_cartan(span_of([b1, b2]), spec, tol=1e-9)
    assert cartan_oracle([b1, b2], spec)
    for _ in range(10):
        span = [random_element(RNG, spec, part="p")]
        assert is_cartan(span_of(span), spec, tol=1e-9) == cartan_oracle(span, spec)


@pytest.mark.parametrize("spec", [
    SymmetricSpaceSpec(BilinearSpace(5, 0), (3, 2), rank=1),
    so14_spec(rank=1),
], ids=["so5-rank1", "so14-rank1"])
def test_is_cartan_maximality_decides_a_verdict(spec):
    # X has distinct nonzero singular values, so its commutant in p is
    # 2-dimensional.  For a spec declared with rank 1 the span of X passes
    # the abelian, dimension and form tests; only maximality (c) rejects it.
    x = from_offblock([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], spec)
    assert is_abelian(span_of([x]), tol=1e-9)
    assert not is_cartan(span_of([x]), spec, tol=1e-9)
    assert not cartan_oracle([x], spec)
    relaxed = SymmetricSpaceSpec(spec.space, spec.split, rank=2)
    assert is_cartan(span_of([x, from_offblock([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                                                relaxed)]), relaxed, tol=1e-9)


def _cartan_candidates(spec, rng):
    """Spans the gauge and the seed meet, plus spans built to fail each
    stage of the Cartan test."""
    n1, n2 = spec.split
    diagonal = []
    for a in range(n2):
        b = np.zeros((n2, n1))
        b[a, n1 - n2 + a] = 1.0
        diagonal.append(from_offblock(b, spec).matrix)
    spans = []
    for _ in range(4):
        # The seed's span: A1 of the flows r = 1, 3 of a random state.
        stack = np.stack([
            random_element(rng, spec, part="k" if k % 2 == 0 else "p",
                           scale=0.75).matrix
            for k in range(4)
        ])
        spans.append([
            connection_coefficients(stack, top_powers(stack[3], r), 3)[1]
            for r in (1, 3)
        ])
        # The reference Cartan subspace moved by an isotropy element.
        h = expm(random_element(rng, spec, part="k", scale=0.8).matrix)
        h_inv = spec.space.j_diag[:, None] * h.T * spec.space.j_diag[None, :]
        weights = rng.standard_normal((2, n2))
        spans.append([h @ np.tensordot(w, diagonal, 1) @ h_inv for w in weights])
        x, y = (random_element(rng, spec, part="p").matrix for _ in range(2))
        spans.append([x, y])                      # not abelian
        spans.append([x, 2.0 * x])                # rank deficit
        spans.append([x])                         # one element for rank 2
        spans.append([diagonal[0], diagonal[0] + 1e-6 * y])  # nearly abelian
    # Commuting unit off-block pairs: x_{0,a} + x_{0,a'} is null for the trace
    # form where the two entries have opposite causal character.
    def unit(b, a):
        e = np.zeros((n2, n1))
        e[b, a] = 1.0
        return from_offblock(e, spec).matrix

    for a, a2, a3 in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        spans.append([unit(0, a) + unit(0, a2), unit(1, a3)])
    return [[AlgebraElement(m, spec.space) for m in span] for span in spans]


@pytest.mark.parametrize("name", preset_names())
def test_is_cartan_matches_per_element_implementation(name):
    spec = make_preset(name)
    rng = np.random.default_rng(len(name))
    verdicts = []
    for span in _cartan_candidates(spec, rng):
        got = is_cartan(span_of(span), spec, tol=1e-9)
        assert got == is_cartan_per_element(span, spec, tol=1e-9)
        # The second call is answered from the spec's verdict cache.
        assert is_cartan(span_of(span), spec, tol=1e-9) == got
        verdicts.append(got)
    assert True in verdicts and False in verdicts
    # An element outside p raises the same error from both, naming the
    # k-part of the first such element.
    k_part = random_element(rng, spec, part="k", scale=0.5)
    k_big = random_element(rng, spec, part="k", scale=3.0)
    for span in ([k_part], [_cartan_candidates(spec, rng)[1][0], k_part],
                 [k_big, k_part]):
        with pytest.raises(StructuralError) as want:
            is_cartan_per_element(span, spec)
        with pytest.raises(StructuralError) as got:
            is_cartan(span_of(span), spec)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("basis element not in p")


def test_p_basis_is_built_once_per_spec():
    spec = so5_spec()
    basis = spec.p_basis
    assert basis.shape == (6, 5, 5) and not basis.flags.writeable
    assert spec.p_basis is basis
    assert all(np.array_equal(spec.p_project(b), b) for b in basis)


def test_group_exp_identity_and_rotation():
    spec = so3_spec()
    zero = AlgebraElement(np.zeros((3, 3)), spec.space)
    assert np.allclose(expm(zero.matrix), np.eye(3))
    x = AlgebraElement(elem(0, 1, 3) - elem(1, 0, 3), spec.space)
    got = expm(np.pi / 2 * x.matrix)
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(got, expected, atol=1e-14)


def test_group_exp_inverse_and_group_residual():
    spec = so5_spec()
    for _ in range(10):
        x = random_element(RNG, spec, scale=0.8)
        t = float(RNG.uniform(-1.0, 1.0))
        g = expm(t * x.matrix)
        assert np.max(np.abs(g @ expm(-t * x.matrix) - np.eye(5))) < 1e-12
        assert in_group_residual(g, spec.space) < 1e-12


def test_group_exp_indefinite_signature():
    spec = so14_spec()
    x = random_element(RNG, spec, scale=0.7)
    g = expm(0.9 * x.matrix)
    assert in_group_residual(g, spec.space) < 1e-12


def test_non_finite_entries_rejected():
    from curvedflats.algebra import expm
    from curvedflats.errors import NumericalError

    spec = so3_spec()
    bad = np.zeros((3, 3))
    bad[0, 1], bad[1, 0] = np.inf, -np.inf
    with pytest.raises(StructuralError):
        AlgebraElement(bad, spec.space)
    with pytest.raises(NumericalError):
        expm(bad)
    with pytest.raises(NumericalError, match=r"in slice \(1,\)") as err:
        expm(np.stack([np.zeros((3, 3)), bad]))
    assert err.value.index == (1,)


@pytest.fixture
def uncached_calls(monkeypatch):
    """Counts the runs of the uncached Cartan test behind ``is_cartan``."""
    calls = []
    test = algebra._cartan_verdict

    def counting(mats, spec, tol):
        calls.append(mats.shape)
        return test(mats, spec, tol)

    monkeypatch.setattr(algebra, "_cartan_verdict", counting)
    return calls


def test_is_cartan_cache_answers_only_the_same_bytes(uncached_calls):
    spec = so5_spec()
    b1 = from_offblock([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], spec)
    b2 = from_offblock([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], spec)
    span = span_of([b1, b2])
    assert is_cartan(span, spec, tol=1e-9)
    assert is_cartan(span.copy(), spec, tol=1e-9)
    assert len(uncached_calls) == 1
    # One ulp away, another tol, another spec: each judged afresh.
    nudged = span.copy()
    nudged[0, 3, 1] = np.nextafter(nudged[0, 3, 1], 2.0)
    assert is_cartan(nudged, spec, tol=1e-9)
    assert is_cartan(span, spec, tol=1e-8)
    assert is_cartan(span, so5_spec(), tol=1e-9)
    assert len(uncached_calls) == 4


def test_is_cartan_never_caches_a_span_outside_p(uncached_calls):
    spec = so5_spec()
    k_elem = AlgebraElement(elem(0, 1, 5) - elem(1, 0, 5), spec.space)
    for _ in range(3):
        with pytest.raises(StructuralError):
            is_cartan(span_of([k_elem]), spec)
    assert len(uncached_calls) == 3
    assert spec._cartan_verdicts == {}


def test_is_cartan_cache_is_bounded_and_drops_the_oldest(uncached_calls):
    spec = so5_spec()
    rng = np.random.default_rng(5)
    spans = [span_of([random_element(rng, spec, part="p") for _ in range(2)])
             for _ in range(50)]
    for span in spans:
        is_cartan(span, spec, tol=1e-9)
        assert len(spec._cartan_verdicts) <= CARTAN_CACHE_SIZE
    assert len(spec._cartan_verdicts) == CARTAN_CACHE_SIZE
    assert len(uncached_calls) == 50
    is_cartan(spans[-1], spec, tol=1e-9)  # still held
    assert len(uncached_calls) == 50
    is_cartan(spans[0], spec, tol=1e-9)  # dropped long ago
    assert len(uncached_calls) == 51


EXPM_SCALES = [0.0, 1e-3, 0.05, 0.3, 1.0, 4.0, 30.0]


def test_expm_stack_matches_per_slice_loop():
    from curvedflats.algebra import expm

    rng = np.random.default_rng(31)
    stack = np.stack([s * rng.standard_normal((5, 5)) for s in EXPM_SCALES])
    # Every slice takes its own squaring count; the zero matrix takes none.
    assert [expm_single(m)[1] for m in stack] == [0, 0, 1, 3, 5, 7, 10]
    batched = expm(stack)
    for out, m in zip(batched, stack):
        assert out.tobytes() == expm(m).tobytes()
    grid_shaped = expm(stack[1:].reshape(2, 3, 5, 5))
    assert grid_shaped.tobytes() == batched[1:].tobytes()


def test_expm_matches_taylor_loop_reference():
    # The degree-16 polynomial and the former term-by-term Taylor loop agree
    # to a few ulps at scaled norm <= 0.5, and each squaring at most doubles
    # that difference: the bound is 64 eps, doubled per squaring, relative to
    # the largest entry.  It was fixed from eps before the comparison ran.
    from curvedflats.algebra import expm

    eps = np.finfo(float).eps
    rng = np.random.default_rng(31)
    for m in [s * rng.standard_normal((5, 5)) for s in EXPM_SCALES]:
        expected, count = expm_single(m)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(expm(m) - expected)) <= 64 * eps * 2.0**count * scale


def test_expm_rejects_squarings_past_float64_resolution():
    # A rotation by 2^k has norm 5 * 2^k and needs k + 4 squarings: k = 48
    # takes MAX_SQUARINGS = 52, k = 49 takes 53, where 2^53 times the unit
    # roundoff is 1 and no digit of the result is correct.
    from curvedflats.algebra import MAX_SQUARINGS, expm
    from curvedflats.errors import NumericalError

    def rotation(k):
        m = np.zeros((5, 5))
        m[0, 1], m[1, 0] = 2.0**k, -(2.0**k)
        return m

    assert MAX_SQUARINGS == 52
    assert np.all(np.isfinite(expm(rotation(48))))
    with pytest.raises(NumericalError, match="needs 53 squarings") as err:
        expm(rotation(49))
    assert err.value.index == ()
    # In a stack the error names the first slice out of range.
    stack = np.stack([rotation(0), rotation(1), rotation(60), rotation(49)])
    with pytest.raises(NumericalError, match=r"64 squarings.* in slice \(2,\)") as err:
        expm(stack)
    assert err.value.index == (2,)


def test_in_group_residual_values():
    space = BilinearSpace(2, 0)
    assert in_group_residual(np.eye(2), space) == 0.0
    assert in_group_residual(2.0 * np.eye(2), space) == pytest.approx(3.0)
    # A stack (e.g. a frame field) gives the worst member's residual.
    stack = np.stack([np.eye(2), 2.0 * np.eye(2), 0.5 * np.eye(2)])
    assert in_group_residual(stack, space) == max(
        in_group_residual(g, space) for g in stack
    )
    with pytest.raises(StructuralError):
        in_group_residual(np.eye(3)[None], space)
