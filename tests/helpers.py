"""Shared test utilities: spaces, off-block builders, and independent oracles."""

import functools

import numpy as np

from curvedflats.algebra import (
    EPS_ALGEBRA,
    BilinearSpace,
    SymmetricSpaceSpec,
    membership_residual,
)
from curvedflats.errors import NumericalError, StructuralError
from curvedflats.loops import LaxState, evaluate_stack


class AlgebraElement:
    """A validated element of so(J): the former ``curvedflats.AlgebraElement``,
    kept as the tests' membership check on hand-built elements."""

    def __init__(self, matrix, space, tol=EPS_ALGEBRA):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] != space.dim:
            raise StructuralError(
                f"matrix dim {m.shape[0]} does not match space dim {space.dim}"
            )
        if not np.all(np.isfinite(m)):
            raise StructuralError("matrix has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(m))))
        res = membership_residual(m, space)
        if res > tol * scale:
            raise StructuralError(
                f"matrix is not in so(J): residual {res:.3e} > {tol * scale:.3e}"
            )
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self.space = space

    @property
    def norm(self):
        return float(np.max(np.abs(self.matrix)))

    def __repr__(self):
        return f"AlgebraElement(dim={self.space.dim}, norm={self.norm:.3g})"


def so3_spec():
    return SymmetricSpaceSpec(BilinearSpace(3, 0), (2, 1), rank=1)


def so5_spec():
    return SymmetricSpaceSpec(BilinearSpace(5, 0), (3, 2), rank=2)


def so14_spec(rank=2):
    space = BilinearSpace(1, 4, diag=[1.0, -1.0, -1.0, -1.0, -1.0])
    return SymmetricSpaceSpec(space, (3, 2), rank=rank)


def from_offblock(b, spec):
    """Embed an n2 x n1 off-block as a p-element of so(J)."""
    n, n1 = spec.dim, spec.n1
    j = spec.space.j_diag
    m = np.zeros((n, n))
    m[n1:, :n1] = b
    j1 = j[:n1]
    j2 = j[n1:]
    m[:n1, n1:] = -(j1[:, None] * np.asarray(b).T * j2[None, :])
    return AlgebraElement(m, spec.space)


def span_of(elems):
    """The (k, n, n) stack of a list of elements, as the span tests take it."""
    return np.stack([e.matrix for e in elems])


def random_element(rng, spec, part=None, scale=1.0):
    """Random element of g, optionally projected to k or p, Frobenius scale."""
    raw = rng.standard_normal((spec.dim, spec.dim))
    j = spec.space.j_diag
    m = 0.5 * (raw - j[:, None] * raw.T * j[None, :])
    if part == "k":
        m = spec.k_project(m)
    elif part == "p":
        m = spec.p_project(m)
    norm = np.linalg.norm(m)
    if norm > 0:
        m = m * (scale / norm)
    return AlgebraElement(m, spec.space)


def cartan_oracle(elems, spec, tol=1e-9):
    """Brute-force Cartan test from the definition, on an independent
    numerical path (hand Gram-Schmidt, normal-matrix eigendecomposition)."""
    mats = [np.asarray(e.matrix) for e in elems]
    n = spec.dim
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            if np.max(np.abs(comm)) > tol:
                return False
    # Span dimension by hand Gram-Schmidt on the flattened matrices.
    basis = []
    for m in mats:
        v = m.ravel().astype(float).copy()
        ref = np.linalg.norm(v)
        for b in basis:
            v = v - (v @ b) * b
        if np.linalg.norm(v) > 1e-9 * max(ref, 1.0):
            basis.append(v / np.linalg.norm(v))
    if len(basis) != spec.rank:
        return False
    # Commutant dimension inside p from the normal matrix of the linear system.
    p_basis = []
    n1 = spec.n1
    for b_row in range(spec.n2):
        for a_col in range(n1):
            e = np.zeros((n, n))
            e[n1 + b_row, a_col] = 1.0
            j = spec.space.j_diag
            p_basis.append(e - j[:, None] * e.T * j[None, :])
    rows = []
    for pb in p_basis:
        rows.append(
            np.concatenate([(pb @ m - m @ pb).ravel() for m in mats])
        )
    l_mat = np.stack(rows)
    normal = l_mat @ l_mat.T
    w = np.linalg.eigvalsh(normal)
    cutoff = max(w[-1], 1.0) * 1e-12
    null_dim = int(np.sum(w < cutoff))
    if null_dim != spec.rank:
        return False
    # Nondegenerate trace form on the span.
    ortho = [b.reshape(n, n) for b in basis]
    gram = np.array(
        [[-0.5 * np.trace(x @ y) for y in ortho] for x in ortho]
    )
    return bool(np.min(np.abs(np.linalg.eigvalsh(gram))) > tol)


def fit_order(values, ratios=2.0):
    """Least-squares convergence order from residuals at successively
    refined resolutions (each a factor ``ratios`` finer)."""
    values = np.asarray(values, dtype=float)
    steps = ratios ** -np.arange(len(values))
    slope = np.polyfit(np.log(steps), np.log(values), 1)[0]
    return float(slope)


def expm_single(m):
    """Single-matrix scaling-and-squaring exponential with a term-by-term
    Taylor loop, the former ``algebra.expm``: the accuracy reference for the
    Taylor polynomials of ``expm``.  Returns the exponential and the
    squaring count."""
    norm = np.max(np.abs(m)) * m.shape[0]
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = m / (2.0 ** squarings)
    result = np.eye(m.shape[0]) + a
    term = a
    for k in range(2, 24):
        term = term @ a / k
        result = result + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result, squarings


def connection_pair_per_stage(stack, r, d):
    """The former ``loops.connection_coefficients``: the (A0, A1) pair of
    flow r with the powers of xi_d rebuilt from ``stack`` on every call, in
    the same zero-started arithmetic."""
    below, top = stack[..., d - 1, :, :], stack[..., d, :, :]
    mul = np.ndarray.dot if stack.ndim == 3 else np.matmul
    lo, hi = below, top
    for _ in range(r - 1):
        lo, hi = (0.0 + mul(lo, top)) + mul(hi, below), 0.0 + mul(hi, top)
    return lo, hi


def flow_rhs_per_stage(stack, r, d):
    """The former ``loops.flow_rhs``: the broadcast right-hand side on the
    pair of ``connection_pair_per_stage``."""
    b0, b1 = connection_pair_per_stage(stack, r, d)
    b0, b1 = b0[..., None, :, :], b1[..., None, :, :]
    out = stack @ b0 - b0 @ stack
    lower = stack[..., :-1, :, :]
    out[..., 1:, :, :] += lower @ b1 - b1 @ lower
    return out


def rk4_per_stage(rows, r, d, t, steps, norm0, scratch=None):
    """The former ``lax._rk4``, which rebuilt the powers of xi_d in every
    RK4 stage from that stage's state, on each state of ``rows`` (m, d+1,
    n, n) in turn; the hoisted one must equal it byte for byte wherever
    xi_d does not move inside the edge.  A row raises the error of its
    first failing node.  ``scratch`` is taken for ``_rk4``'s signature and
    not used."""
    from curvedflats.errors import BlowUpError
    from curvedflats.lax import BLOWUP_FACTOR

    h = t / steps
    half, sixth = 0.5 * h, h / 6.0
    limit = BLOWUP_FACTOR * norm0
    out = []
    for y in rows:
        for i in range(steps):
            k1 = flow_rhs_per_stage(y, r, d)
            k2 = flow_rhs_per_stage(y + half * k1, r, d)
            k3 = flow_rhs_per_stage(y + half * k2, r, d)
            k4 = flow_rhs_per_stage(y + h * k3, r, d)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (np.abs(y).max() <= limit):
                raise BlowUpError(
                    f"Lax flow r={r} blew up at t={(i + 1) * h:.6g}", last_t=i * h
                )
        out.append(y)
    return np.stack(out)


def integrate_grid_default_sweep(xi0, family, grid, substeps):
    """The former ``lax.integrate_grid``: the Lax fill along the default
    tree of ``edges_per_node``, flow 1 along x1 from the seed, then flow 2
    along x2 from every x1-node, ...; returns the states."""
    from curvedflats.lax import _rk4

    states = np.zeros(grid.nodes + xi0.stack.shape)
    states[(0,) * grid.dims] = xi0.stack
    norm0 = max(1.0, xi0.norm())
    for index, prev, axis in edges_per_node(grid, range(grid.dims)):
        if prev is not None:
            states[index] = _rk4(states[prev][None], family.powers[axis],
                                 family.d, grid.steps[axis], substeps, norm0)[0]
    return states


def integrate_grid_node_by_node(xi0, family, grid, substeps):
    """The Lax fill of ``lax.integrate_grid`` one node at a time: the same
    slabs in the same order, every edge a ``_rk4`` call on a row of one.  A
    blow-up raises at the first failing node in slab order, as the fill
    does; returns the states."""
    from curvedflats.errors import BlowUpError
    from curvedflats.lax import _BLOWUP_IS_CHECKED, _rk4, _rk4_scratch

    states = np.zeros(grid.nodes + xi0.stack.shape)
    states[(0,) * grid.dims] = xi0.stack
    flat = states.reshape((-1,) + xi0.stack.shape)
    norm0 = max(1.0, xi0.norm())
    scratch = _rk4_scratch(xi0.stack.shape, 1)
    priority = sorted(range(family.dims), key=family.powers.__getitem__,
                      reverse=True)
    with np.errstate(**_BLOWUP_IS_CHECKED):
        for axis, ids in grid.slabs(priority):
            r, t = family.powers[axis], grid.steps[axis]
            for prev, node in zip(ids[:-1].ravel().tolist(), ids[1:].ravel().tolist()):
                try:
                    flat[node] = _rk4(flat[prev][None], r, family.d, t, substeps,
                                      norm0, scratch)[0]
                except BlowUpError as err:
                    index = tuple(int(i) for i in np.unravel_index(node, grid.nodes))
                    raise BlowUpError(
                        f"blow-up while filling node {index}: {err}", node=index
                    ) from err
    return states


def edges_per_node(grid, priority):
    """The spanning tree of the grid for an axis ``priority`` node by node,
    the origin first with prev = axis = None: per node, the index and
    predecessor tuples built from an ``itertools.product`` over the axes in
    ``priority`` order, each node one step along its last nonzero axis in
    that order."""
    import itertools

    for combo in itertools.product(*(range(grid.nodes[ax]) for ax in priority)):
        index = [0] * grid.dims
        for ax, i in zip(priority, combo):
            index[ax] = i
        moved = [ax for ax, i in zip(priority, combo) if i > 0]
        if not moved:
            yield tuple(index), None, None
            continue
        prev = list(index)
        prev[moved[-1]] -= 1
        yield tuple(index), tuple(prev), moved[-1]


def integrate_frame_per_edge(conn, mus, grid, axis_priority=None):
    """The former ``frame.integrate_frame``: A^mu evaluated at both ends of
    every edge, then exp(h * Abar) and ``j_orthonormalize``; returns the
    (len(mus), *nodes, n, n) frames."""
    from curvedflats.algebra import expm
    from curvedflats.frame import j_orthonormalize

    n = conn.spec.dim
    mu = np.array([float(m) for m in mus])[:, None, None]
    h = grid.steps
    frames = np.zeros((len(mus),) + grid.nodes + (n, n))
    every = (slice(None),)
    priority = range(grid.dims) if axis_priority is None else axis_priority
    for index, prev, axis in edges_per_node(grid, priority):
        if prev is None:
            frames[every + index] = np.eye(n)
            continue
        at_prev, at_index = prev + (axis,), index + (axis,)
        abar = 0.5 * (
            (conn.a0[at_prev] + mu * conn.a1[at_prev])
            + (conn.a0[at_index] + mu * conn.a1[at_index])
        )
        frames[every + index] = j_orthonormalize(
            frames[every + prev] @ expm(h[axis] * abar), conn.spec.space
        )
    return frames


def twist_residual_full_product(stack, lo, spec):
    """The former ``loops.twist_residual``: one product of the whole stack
    with the parity mask, then the membership residual."""
    from curvedflats.algebra import membership_residual

    even = ((lo + np.arange(stack.shape[-3])) % 2 == 0)[:, None, None]
    wrong = stack * np.where(even, spec.p_project(1.0), spec.k_project(1.0))
    res = float(np.max(np.abs(wrong, out=wrong), initial=0.0))
    return max(res, membership_residual(stack, spec.space))


def twist_residual_two_projections(stack, lo, spec):
    """The former ``loops.twist_residual``: both projections of the whole
    stack, a ``where`` between them and an ``abs`` copy."""
    even = ((lo + np.arange(stack.shape[-3])) % 2 == 0)[:, None, None]
    wrong = np.where(even, spec.p_project(stack), spec.k_project(stack))
    res = float(np.max(np.abs(wrong), initial=0.0))
    return max(res, membership_residual_sum(stack, spec.space))


def membership_residual_sum(m, space):
    """The former ``algebra.membership_residual``: X^T J + J X as one
    expression of three full-size temporaries, then an ``abs`` copy."""
    j = space.j_diag
    res = np.swapaxes(m, -1, -2) * j + j[:, None] * m
    return float(np.max(np.abs(res), initial=0.0))


def membership_residual_two_temporaries(m, space):
    """The former ``algebra.membership_residual``: X^T J and J X as two
    full-size temporaries, added and taken ``abs`` of in place."""
    j = space.j_diag
    res = np.swapaxes(m, -1, -2) * j
    res += j[:, None] * m
    return float(np.max(np.abs(res, out=res), initial=0.0))


def special_value_stacks(rng, shape):
    """Random stacks of ``shape``: plain, then with +0/-0 entries, with NaN
    entries, with +inf and -inf entries, and last all -0."""
    base = rng.standard_normal(shape)
    yield base
    for values in ([0.0, -0.0], [np.nan], [np.inf, -np.inf]):
        stack = base.copy().reshape(-1)
        picks = rng.choice(base.size, size=3 * len(values), replace=False)
        stack[picks] = np.resize(values, len(picks))
        yield stack.reshape(shape)
    yield -np.zeros(shape)


def stack_mul(a, b):
    """Cauchy product of two coefficient stacks (degree-indexed matmul)."""
    la, lb = a.shape[0], b.shape[0]
    prod = a[:, None] @ b[None, :]
    out = np.zeros((la + lb - 1,) + a.shape[1:])
    for i in range(la):
        out[i : i + lb] += prod[i]
    return out


class Loop:
    """Matrix Laurent polynomial with the degree-(lo + i) coefficient at
    ``stack[i]``, unchecked: Cauchy powers have coefficients outside g."""

    def __init__(self, stack, lo):
        self.stack = stack
        self.lo = lo
        self.hi = lo + len(stack) - 1

    def coefficient(self, k):
        if self.lo <= k <= self.hi:
            return self.stack[k - self.lo]
        return np.zeros(self.stack.shape[1:])

    def evaluate(self, mu):
        return evaluate_stack(self.stack, self.lo, mu)


def tilde_v(xi, r):
    """Vt_r(xi)(mu) = mu^(1 - d*r) xi(mu)^r for odd r; degrees 1-dr .. 1.

    The full Cauchy power, against which the pipeline's top-two kernel
    (``loops.connection_coefficients``) is checked.  Even powers break the
    equivariance that makes the flows well defined on the twisted algebra,
    so they are rejected.
    """
    if r < 1 or r % 2 == 0:
        raise StructuralError(f"flow power must be odd and positive, got {r}")
    powered = xi.stack
    for _ in range(r - 1):
        powered = stack_mul(powered, xi.stack)
    return Loop(powered, 1 - xi.d * r)


def flow_field(xi, r):
    """X_r(xi) = [xi, pi_+ Vt_r(xi)], truncated to degrees 0..d: the
    reference for ``loops.flow_rhs``.

    pi_+ Vt_r is the top two coefficients of ``tilde_v`` (degrees 0 and 1).
    The bracket a priori reaches degree d+1, but the top coefficient is
    [xi_d, xi_d^r] = 0; coefficients outside 0..d are checked to vanish.
    """
    plus = tilde_v(xi, r).stack[-2:]
    full = stack_mul(xi.stack, plus) - stack_mul(plus, xi.stack)
    d = xi.d
    tail = full[d + 1 :]
    if tail.size:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(xi.stack))) ** (r + 1))
        tail_norm = float(np.max(np.abs(tail)))
        if tail_norm > tol:
            raise NumericalError(
                f"flow field left the state space: stray coefficient {tail_norm:.3e}"
            )
    return LaxState(full[: d + 1], xi.spec, check=False)


def curved_flat_planes(frames, spec):
    """Projector field P = F Pi0 F^-1 onto the moving plane, for frames
    F (*nodes, n, n).

    Pi0 projects onto the first n1 coordinates; F^-1 = J F^T J keeps the
    computation in the group.  P is idempotent, of rank n1, and
    J-self-adjoint.
    """
    n, n1 = spec.dim, spec.n1
    j = spec.space.j_diag
    pi0 = np.zeros((n, n))
    pi0[:n1, :n1] = np.eye(n1)
    f_inv = j[None, :] * np.swapaxes(frames, -1, -2) * j[:, None]
    return frames @ pi0 @ f_inv


def flow_rhs_single(stack, r, d):
    """The former per-degree loop of ``loops.flow_rhs`` on one (d+1, n, n)
    stack, which the broadcast kernel must reproduce byte for byte."""
    b0, b1 = connection_pair_per_stage(stack, r, d)
    out = np.empty_like(stack)
    for k in range(d + 1):
        acc = stack[k] @ b0 - b0 @ stack[k]
        if k >= 1:
            acc += stack[k - 1] @ b1 - b1 @ stack[k - 1]
        out[k] = acc
    return out


def is_cartan_per_element(basis, spec, tol=1e-9):
    """The former ``algebra.is_cartan``: per-element k-part test, p-basis
    rebuilt on every call, commutant rows bracketed one basis matrix at a
    time and the Gram matrix filled entry by entry.  The cached, broadcast
    version must give the same verdicts and raise the same errors."""
    from curvedflats.errors import StructuralError

    if len(basis) == 0:
        raise StructuralError("is_cartan needs a nonempty basis")
    for e in basis:
        if e.space != spec.space:
            raise StructuralError("basis element over the wrong space")
        p_res = np.max(np.abs(spec.k_project(e.matrix)))
        if p_res > max(1.0, e.norm) * 1e-9:
            raise StructuralError(f"basis element not in p (k-part {p_res:.2e})")
    mats = [e.matrix for e in basis]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) > tol:
                return False
    flat = np.stack([m.ravel() for m in mats])
    sv = np.linalg.svd(flat, compute_uv=False)
    span_dim = int(np.sum(sv > sv[0] * 1e-9)) if sv[0] > 0 else 0
    if span_dim != spec.rank:
        return False
    n, n1 = spec.dim, spec.n1
    jd = spec.space.j_diag
    p_basis = []
    for b in range(spec.n2):
        for a in range(n1):
            e = np.zeros((n, n))
            e[n1 + b, a] = 2.0
            p_basis.append(0.5 * (e - jd[:, None] * e.T * jd[None, :]))
    rows = [np.concatenate([(pb @ m - m @ pb).ravel() for m in mats])
            for pb in p_basis]
    s = np.linalg.svd(np.stack(rows).T, compute_uv=False)
    cutoff = (s[0] if s.size and s[0] > 0 else 1.0) * 1e-9
    if len(p_basis) - int(np.sum(s > cutoff)) != spec.rank:
        return False
    q, _ = np.linalg.qr(flat.T)
    ortho = [q[:, i].reshape(n, n) for i in range(span_dim)]
    gram = np.empty((span_dim, span_dim))
    for i in range(span_dim):
        for j in range(span_dim):
            gram[i, j] = -0.5 * np.trace(ortho[i] @ ortho[j])
    return bool(float(np.min(np.abs(np.linalg.eigvalsh(gram)))) > tol)


def savetxt_phi_csv(path, config, phis_by_mu):
    """The former ``cli.write_phi_csv``: one ``np.savetxt`` call with
    ``%.17g`` over every mu block."""
    grid, n = config.grid, config.spec.dim
    header = (
        [f"x{i + 1}" for i in range(grid.dims)]
        + ["mu"]
        + [f"phi_{i + 1}" for i in range(n)]
    )
    coords = np.indices(grid.nodes).reshape(grid.dims, -1).T * grid.steps
    rows = [
        np.column_stack(
            [coords, np.full(len(coords), mu), phis_by_mu[mu].reshape(-1, n)]
        )
        for mu in config.mu_samples
    ]
    np.savetxt(path, np.concatenate(rows), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def savetxt_obj(path, config, phi, mu):
    """The former ``cli.write_obj``: vertices and faces by ``np.savetxt``."""
    n0, n1 = config.grid.nodes
    header = "\n".join([
        "# curved-flat reconstruction mesh",
        f"# config sha256: {config.hash()}",
        f"# mu: {mu:.17g}",
    ])
    vid = np.arange(n0 * n1).reshape(n0, n1) + 1
    a, b = vid[:-1, :-1].ravel(), vid[1:, :-1].ravel()
    c, d = vid[1:, 1:].ravel(), vid[:-1, 1:].ravel()
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    with open(path, "w") as fh:
        np.savetxt(fh, phi.reshape(-1, phi.shape[-1])[:, list(config.obj_coords)],
                   fmt="v %.17g %.17g %.17g", header=header, comments="")
        np.savetxt(fh, faces, fmt="f %d %d %d")


def _greedy_match(overlap):
    """Permutation pi maximizing |overlap[i, pi(i)]| greedily, row by row,
    with the matched overlap values."""
    size = overlap.shape[0]
    taken = set()
    perm = np.empty(size, dtype=int)
    vals = np.empty(size)
    for i in range(size):
        for cand in np.argsort(-np.abs(overlap[i])):
            if int(cand) not in taken:
                perm[i] = int(cand)
                vals[i] = overlap[i, cand]
                taken.add(int(cand))
                break
    return perm, vals


def _align_columns(prev, new, what, node, perm=None):
    from curvedflats.errors import GaugeContinuityError

    if new.shape[1] == 0:
        return new, np.empty(0, dtype=int)
    if perm is None:
        perm, vals = _greedy_match(prev.T @ new)
    else:
        vals = np.einsum("ij,ij->j", prev, new[:, perm])
    worst = float(np.min(np.abs(vals)))
    if worst < 0.5:
        raise GaugeContinuityError(
            f"{what} columns rotated too far between neighboring nodes at "
            f"node {node} (overlap {worst:.3f})"
        )
    return new[:, perm] * np.sign(vals)[None, :], perm


def _admissible_span_per_element(span, spec, tol):
    """The former ``geometry.admissible_span`` on a list of elements, with a
    QR basis for the form margin."""
    k = len(span)
    if k >= spec.rank:
        return is_cartan_per_element(span, spec, tol)
    mats = [e.matrix for e in span]
    for i in range(k):
        for j in range(i + 1, k):
            if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) > tol:
                return False
    flat = np.stack([m.ravel() for m in mats])
    sv = np.linalg.svd(flat, compute_uv=False)
    if (int(np.sum(sv > sv[0] * 1e-9)) if sv[0] > 0 else 0) != k:
        return False
    q, _ = np.linalg.qr(flat.T)
    ortho = q[:, :k].T.reshape((k,) + mats[0].shape)
    gram = -0.5 * np.einsum("aij,bji->ab", ortho, ortho)
    return bool(np.min(np.abs(np.linalg.eigvalsh(gram))) > tol)


def greedy_gauge_h(conn, spec):
    """The former node-by-node ``geometry.gauge_to_normal_form``: per node an
    ``AlgebraElement`` span test, the gap test, and a greedy column match
    against the already-gauged predecessor.  Returns the gauge field H; raises
    what the former gauge raised, with its messages (and no ``node``)."""
    from curvedflats.errors import (
        DegenerateSpectrumError,
        NonCartanError,
    )

    grid = conn.grid
    n, n1 = spec.dim, spec.n1
    k, m = conn.dims, spec.n2
    weights = [1.0 / (j + np.sqrt(2.0)) for j in range(1, k + 1)]
    a1 = conn.a1
    c = sum(w * a1[..., j, n1:, :n1] for j, w in enumerate(weights))
    u_all, s_all, vt_all = np.linalg.svd(c, full_matrices=True)

    def canonical_signs(columns):
        lead = columns[np.argmax(np.abs(columns), axis=0),
                       np.arange(columns.shape[1])]
        return np.where(lead < 0, -1.0, 1.0)

    h_field = np.zeros(grid.nodes + (n, n))
    p_sing, p_ker, q_field = {}, {}, {}
    for index, prev, _axis in edges_per_node(grid, range(grid.dims)):
        span = [AlgebraElement(a1[index + (j,)], spec.space, tol=1e-9)
                for j in range(k)]
        if not _admissible_span_per_element(span, spec, 1e-9):
            raise NonCartanError(f"tangent span fails the Cartan test at {index}")
        s = s_all[index]
        gap = np.min(-np.diff(s), initial=np.inf)
        if s[-1] < 1e-8 or gap < 1e-8:
            raise DegenerateSpectrumError(
                f"singular values {s} too close or too small at node {index}"
            )
        u, v = u_all[index], vt_all[index].T
        v_sing, v_ker = v[:, :m], v[:, m:]
        if prev is None:
            signs = canonical_signs(v_sing)
            v_sing, u = v_sing * signs, u * signs
            v_ker = v_ker * canonical_signs(v_ker)
        else:
            v_sing, perm = _align_columns(p_sing[prev], v_sing, "singular", index)
            u, _ = _align_columns(q_field[prev], u, "left singular", index, perm)
            v_ker, _ = _align_columns(p_ker[prev], v_ker, "kernel", index)
        p_sing[index], p_ker[index], q_field[index] = v_sing, v_ker, u
        h = h_field[index]
        h[:n1, :n1] = np.concatenate([v_ker, v_sing], axis=1).T
        h[n1:, n1:] = u.T
    return h_field


def developing_psi_per_node(betas, grid):
    """The former node-by-node trapezoid walk of ``geometry.developing_map``
    along the default tree of ``edges_per_node``."""
    psi = np.zeros(grid.nodes + (betas.shape[-1],))
    for index, prev, axis in edges_per_node(grid, range(grid.dims)):
        if prev is None:
            continue
        avg = 0.5 * (betas[prev + (axis,)] + betas[index + (axis,)])
        psi[index] = psi[prev] + grid.steps[axis] * avg
    return psi


def curvature_defect_full_grid(a, i, j, steps):
    """The former ``frame.curvature_defect``: d_i A_j - d_j A_i + [A_i, A_j]
    on every node, with ``grid_derivative``'s one-sided boundary rows; its
    callers sliced the interior or the core out of it."""
    from curvedflats.frame import grid_derivative

    ai, aj = a[..., i, :, :], a[..., j, :, :]
    return (
        grid_derivative(aj, i, steps[i])
        - grid_derivative(ai, j, steps[j])
        + ai @ aj
        - aj @ ai
    )


def mc_residual_full_grid(conn, mu0):
    """The former ``frame.mc_residual``: ``curvature_defect_full_grid`` of
    A^mu0 per axis pair, then its interior."""
    grid = conn.grid
    a = conn.a_mu(mu0)
    interior = tuple(slice(1, -1) for _ in range(grid.dims))
    worst = 0.0
    for i in range(grid.dims):
        for j in range(i + 1, grid.dims):
            res = curvature_defect_full_grid(a, i, j, grid.steps)
            worst = float(np.maximum(worst, np.max(np.abs(res[interior]))))
    return worst


def closedness_full_grid(betas, grid):
    """The former closedness residual of ``geometry.developing_map``: full
    grid derivatives of the betas per axis pair, then their interior."""
    from curvedflats.frame import grid_derivative

    k, steps = grid.dims, grid.steps
    interior = tuple(slice(1, -1) for _ in range(k))
    worst = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            res = (
                grid_derivative(betas[..., j, :], i, steps[i])
                - grid_derivative(betas[..., i, :], j, steps[j])
            )
            worst = float(np.maximum(worst, np.max(np.abs(res[interior]))))
    return worst


def algebra_gram_full_product(a1):
    """The former algebra Gram of ``geometry.developing_map``: the full
    (..., k, k, n, n) product A1_i A1_j, then -1/2 its trace."""
    prod = np.einsum("...iab,...jbc->...ijac", a1, a1)
    return -0.5 * np.trace(prod, axis1=-2, axis2=-1)


def in_psi_coordinates_einsum(w, second):
    """The former W^T II_a W of ``geometry.verify_space_form_geometry``: one
    three-operand einsum."""
    return np.einsum("...ia,...nij,...jb->...nab", w, second, w)


def trace_powers_from_identity(m, max_power):
    """The former ``loops.trace_powers``: the powers of m^2 start from a
    product with the broadcast identity."""
    m2 = m @ m
    acc = np.broadcast_to(np.eye(m.shape[-1]), m.shape)
    out = []
    for _ in range(max_power // 2):
        acc = acc @ m2
        out.append(np.trace(acc, axis1=-2, axis2=-1))
    out = np.stack(out, axis=-1)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite spectral invariant")
    return out


def in_group_residual_per_slice(g, space):
    """The former ``algebra.in_group_residual``: the max of the per-slice
    maxima of |G^T J G - J|."""
    res = np.swapaxes(g, -1, -2) @ (space.j_diag[:, None] * g) - space.metric
    return float(np.max(np.max(np.abs(res), axis=(-2, -1))))


# Small runs whose kernels are compared with the former formulas: both
# signatures on a 9^2 grid, and three flows on a 5^3 grid.
KERNEL_CASES = {
    "definite": {"preset": "sphere-grassmannian", "nodes": [9, 9],
                 "commutativity_steps": 4},
    "indefinite": {"preset": "anti-de-sitter", "nodes": [9, 9],
                   "mu_samples": [0.25, 1.0, 4.0], "commutativity_steps": 4},
    "three-flow": {"preset": "sphere-grassmannian", "powers": [1, 3, 5],
                   "extents": [0.4, 0.4, 0.4], "nodes": [5, 5, 5],
                   "commutativity_steps": 4},
}


@functools.lru_cache(maxsize=None)
def kernel_case(name):
    """(config, Lax states, connection, frames) of ``KERNEL_CASES``
    entry ``name``, built once per test process."""
    from curvedflats.cli import RunConfig, seed_initial_state
    from curvedflats.frame import connection_from_state, integrate_frame
    from curvedflats.lax import integrate_grid

    config = RunConfig(KERNEL_CASES[name])
    xi0, _ = seed_initial_state(config)
    states = integrate_grid(xi0, config.family, config.grid, substeps=config.substeps)
    conn = connection_from_state(states, config.family, config.grid, config.spec)
    return config, states, conn, integrate_frame(conn, config.mu_samples)
