"""Shared test utilities: spaces, off-block builders, and independent oracles."""

import numpy as np

from curvedflats.algebra import BilinearSpace, SymmetricSpaceSpec, AlgebraElement


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
    """Single-matrix scaling-and-squaring exponential, the per-slice loop the
    batched ``algebra.expm`` must reproduce byte for byte."""
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


def j_orthonormalize_single(g, space, pivot_tol=1e-10):
    """Column-by-column pivoted J-Gram-Schmidt on one matrix, the per-slice
    loop the batched ``frame.j_orthonormalize`` must match.  Returns the
    frame and the pivot order; raises ValueError where the batched kernel
    raises DegenerateFrameError."""
    j = space.j_diag
    cols = g.copy()
    out = np.empty_like(g)
    remaining = list(range(g.shape[0]))
    order = []
    while remaining:
        quads = [cols[:, i] @ (j * cols[:, i]) for i in remaining]
        pick = int(np.argmax([abs(q) for q in quads]))
        q = quads[pick]
        if abs(q) < pivot_tol:
            raise ValueError("pivot below tolerance")
        i = remaining.pop(pick)
        order.append(i)
        sign = 1.0 if q > 0 else -1.0
        u = cols[:, i] / np.sqrt(abs(q))
        out[:, i] = u
        for c in remaining:
            cols[:, c] -= sign * (cols[:, c] @ (j * u)) * u
    return out, order


def flow_rhs_single(stack, r, d):
    """The former per-degree loop of ``loops.flow_rhs`` on one (d+1, n, n)
    stack, which the broadcast kernel must reproduce byte for byte."""
    from curvedflats.loops import connection_coefficients

    b0, b1 = connection_coefficients(stack, r, d)
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
