"""Pseudo-orthogonal matrix Lie algebra kernel.

Everything downstream is built on g = so(J) = {X : X^T J + J X = 0} for a
diagonal metric J with entries +-1, together with the symmetric decomposition
g = k + p induced by conjugation with a diagonal block-signature matrix S.
The module holds what the pipeline calls: the k/p projections, the
Cartan-subspace test, the matrix exponential and the so(J) and group
residuals over whole stacks; brackets and the trace form are written inline
where they are needed.  All operations are pure functions of immutable
values, with one exception: each ``SymmetricSpaceSpec`` keeps a small
verdict cache that ``is_cartan`` fills, so a span judged once on that spec
is answered without repeating the test.  A cached verdict is the one the
test gave for the same bytes, so it changes no result.
"""

from functools import cached_property, lru_cache

import numpy as np

from .errors import StructuralError, NumericalError

# Membership / identity tolerance at unit matrix scale.
EPS_ALGEBRA = 1e-12
# expm's squarings: 2^s times the unit roundoff 2^-53 reaches 1 at s = 53.
MAX_SQUARINGS = 52
# Bytes of the stack ``membership_residual`` takes per block.
RESIDUAL_BLOCK = 1 << 16
# Spans whose Cartan verdict one spec keeps (oldest dropped first).
CARTAN_CACHE_SIZE = 8
# Span test tolerance: brackets, form margin and the gauge's so(J) check.
CARTAN_TOL = 1e-9


class BilinearSpace:
    """R^n with the diagonal metric J, signature (pos, neg).

    The default layout puts the +1 entries first.  Presets whose isotropy
    blocks each carry a negative direction need an interleaved layout, so an
    explicit ``diag`` of +-1 entries is also accepted.
    """

    def __init__(self, pos, neg, diag=None):
        if pos < 0 or neg < 0 or pos + neg < 1:
            raise StructuralError(f"invalid signature ({pos}, {neg})")
        self.pos = int(pos)
        self.neg = int(neg)
        self.dim = self.pos + self.neg
        if diag is None:
            j = np.concatenate([np.ones(self.pos), -np.ones(self.neg)])
        else:
            j = np.asarray(diag, dtype=float)
            if j.shape != (self.dim,) or not np.all(np.abs(j) == 1.0):
                raise StructuralError("metric diagonal must consist of +-1 entries")
            if int(np.sum(j > 0)) != self.pos:
                raise StructuralError("metric diagonal does not match signature")
        self.j_diag = j
        self.j_diag.setflags(write=False)

    @cached_property
    def metric(self):
        """diag(J) as a read-only (n, n) array, built on first use."""
        m = np.diag(self.j_diag)
        m.setflags(write=False)
        return m

    @property
    def is_definite(self):
        return self.neg == 0

    def __repr__(self):
        return f"BilinearSpace(pos={self.pos}, neg={self.neg})"


class SymmetricSpaceSpec:
    """Algebraic data of a symmetric space G/K realized in O(J).

    The involution is sigma(X) = S X S with S = diag(+1 x n1, -1 x n2);
    k is the block-diagonal (+1) eigenspace, p the off-block (-1) eigenspace.
    ``rank`` is the dimension of maximal abelian subspaces of p and is stored
    explicitly (min(n1, n2) for the shipped presets).  The spec also holds
    the verdict cache of ``is_cartan`` (at most ``CARTAN_CACHE_SIZE`` spans).
    """

    def __init__(self, space, split, rank, preset_name=None):
        n1, n2 = int(split[0]), int(split[1])
        if n1 < 1 or n2 < 1 or n1 + n2 != space.dim:
            raise StructuralError(f"split {split} incompatible with dim {space.dim}")
        if rank < 1 or rank > min(n1, n2):
            raise StructuralError(f"rank {rank} impossible for split {split}")
        self.space = space
        self.n1 = n1
        self.n2 = n2
        self.rank = int(rank)
        self.preset_name = preset_name
        s = np.concatenate([np.ones(n1), -np.ones(n2)])
        s.setflags(write=False)
        self.s_diag = s
        # {0,1} masks for the sigma eigenspaces; k = block-diagonal part.
        k_mask = (np.outer(s, s) + 1.0) / 2.0
        k_mask.setflags(write=False)
        self._k_mask = k_mask
        # is_cartan verdicts keyed by (shape, bytes) of the span; a dict
        # keeps insertion order, so the first key is the oldest.
        self._cartan_verdicts = {}

    @property
    def dim(self):
        return self.space.dim

    @property
    def split(self):
        return (self.n1, self.n2)

    def k_project(self, m):
        return m * self._k_mask

    def p_project(self, m):
        return m * (1.0 - self._k_mask)

    @cached_property
    def p_basis(self):
        """Elementary basis of p as one read-only (dim p, n, n) array, built
        on first use and kept for the life of the spec: one so(J)-projected
        unit matrix per off-block entry (b, a), in row-major (b, a) order."""
        n, n1 = self.dim, self.n1
        b, a = (i.ravel() for i in np.indices((self.n2, n1)))
        e = np.zeros((len(b), n, n))
        e[np.arange(len(b)), n1 + b, a] = 2.0
        basis = skew_project(e, self.space)
        basis.setflags(write=False)
        return basis

    def k_block_definite(self):
        """True when J restricted to both involution blocks is definite."""
        j = self.space.j_diag
        return (
            abs(np.sum(j[: self.n1])) == self.n1
            and abs(np.sum(j[self.n1 :])) == self.n2
        )

    def __repr__(self):
        name = f", preset={self.preset_name!r}" if self.preset_name else ""
        return (
            f"SymmetricSpaceSpec(signature=({self.space.pos},{self.space.neg}), "
            f"split=({self.n1},{self.n2}), rank={self.rank}{name})"
        )


def membership_residual(m, space):
    """max-norm of X^T J + J X over a stack (..., n, n); zero iff every X is
    in so(J).

    With Y = J X, the residual is Y + Y^T: each entry is the same two
    products as X^T J + J X, added in the other order, so the value is the
    same, NaN included.  The leading axes are taken in blocks of at most
    RESIDUAL_BLOCK bytes, so no temporary is the size of the stack.
    """
    j = space.j_diag[:, None]
    flat = m.reshape((-1,) + m.shape[-2:])
    rows = max(1, RESIDUAL_BLOCK // max(1, flat[:1].nbytes))
    worst = 0.0
    for start in range(0, len(flat), rows):
        y = j * flat[start:start + rows]
        y = y + np.swapaxes(y, -1, -2)
        # np.maximum, not max(): a NaN block must make the residual NaN.
        worst = np.maximum(worst, np.max(np.abs(y, out=y)))
    return float(worst)


def skew_project(m, space):
    """Project raw matrices (..., n, n) onto so(J): X -> (X - J X^T J)/2."""
    j = space.j_diag
    return 0.5 * (m - j[:, None] * np.swapaxes(m, -1, -2) * j[None, :])


def _span_stack(span, n=None):
    """``span`` as a nonempty (k, n, n) float stack, with the given n if
    any; StructuralError else."""
    mats = np.asarray(span, dtype=float)
    if mats.ndim != 3 or len(mats) == 0 or mats.shape[1:] != (n or mats.shape[2],) * 2:
        raise StructuralError(f"expected a nonempty (k, n, n) stack, got {mats.shape}")
    return mats


def is_abelian(span, tol):
    """True iff all pairwise brackets of a (k, n, n) stack vanish within tol
    (max-norm)."""
    mats = _span_stack(span)
    comm = mats[:, None] @ mats - mats @ mats[:, None]  # (k, k, n, n)
    return not np.max(np.abs(comm)) > tol


def is_cartan(basis, spec):
    """Test whether the span of a (k, n, n) stack is a Cartan subspace of p.

    Checks: (a) the span is abelian, (b) its dimension equals spec.rank,
    (c) the commutant {Y in p : [Y, X_i] = 0 for all i} has dimension exactly
    spec.rank (maximality), (d) the invariant form is nondegenerate on the
    span (smallest |eigenvalue| of the Gram matrix on an orthonormal basis
    exceeds CARTAN_TOL).  Each check can decide the verdict: an element of a
    maximal abelian subspace spans a rank-1 space that passes (a), (b) and
    (d) for a spec declared with rank 1, and only (c) rejects it.

    A stack already judged on this spec, with the same shape and the same
    bytes, is answered from the spec's verdict cache (the last
    ``CARTAN_CACHE_SIZE`` distinct spans); the gauge asks about one span at
    every node, since A1 is a first integral.  A stack with an element
    outside p raises ``StructuralError`` on every call and is never cached.
    """
    mats = _span_stack(basis, spec.dim)
    key = (mats.shape, mats.tobytes())
    verdicts = spec._cartan_verdicts
    if key not in verdicts:
        verdict = _cartan_verdict(mats, spec)
        if len(verdicts) >= CARTAN_CACHE_SIZE:
            del verdicts[next(iter(verdicts))]
        verdicts[key] = verdict
    return verdicts[key]


def _cartan_verdict(mats, spec):
    """The uncached test behind ``is_cartan`` on a validated stack.

    The k-parts of all elements are tested in one call, the commutant system
    is one broadcast bracket against ``spec.p_basis`` (built once per spec),
    one SVD of the span gives both its dimension and the orthonormal basis
    for (d), and the first element outside p raises ``StructuralError``.
    """
    k_res = np.max(np.abs(spec.k_project(mats)), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(mats), axis=(-2, -1)))
    off_p = np.flatnonzero(k_res > scale * 1e-9)
    if off_p.size:
        raise StructuralError(
            f"basis element not in p (k-part {k_res[off_p[0]]:.2e})"
        )

    if not is_abelian(mats, CARTAN_TOL):
        return False
    ortho = span_basis(mats)
    if len(ortho) != spec.rank:
        return False

    # Commutant of the span inside p, as the null space of Y -> ([Y, X_i])_i:
    # column c of the system is [P_c, X_i] for every i, flattened.
    p_basis = spec.p_basis[:, None]
    comm = p_basis @ mats - mats @ p_basis  # (dim p, len(basis), n, n)
    system = comm.reshape(len(comm), -1).T  # (len(basis)*n^2, dim p)
    s = np.linalg.svd(system, compute_uv=False)
    cutoff = (s[0] if s.size and s[0] > 0 else 1.0) * 1e-9
    commutant_dim = len(comm) - int(np.sum(s > cutoff))
    if commutant_dim != spec.rank:
        return False
    return bool(form_margin(ortho) > CARTAN_TOL)


def span_basis(span):
    """Orthonormal basis (rank, n, n) of the span of a (k, n, n) stack, from
    one SVD; its length, the span's dimension, counts the singular values
    above 1e-9 of the largest."""
    mats = _span_stack(span)
    _, sv, vt = np.linalg.svd(mats.reshape(len(mats), -1), full_matrices=False)
    rank = int(np.sum(sv > sv[0] * 1e-9)) if sv[0] > 0 else 0
    return vt[:rank].reshape((rank,) + mats.shape[1:])


def form_margin(ortho):
    """Smallest |eigenvalue| of the invariant form's Gram matrix on an
    orthonormal basis (m, n, n), as ``span_basis`` gives it."""
    gram = -0.5 * np.einsum("aij,bji->ab", ortho, ortho)  # -tr(O_a O_b)/2
    return float(np.min(np.abs(np.linalg.eigvalsh(gram))))


# 1/k! for k = 0..16, the Taylor coefficients ``expm`` reads.
_TAYLOR = 1.0 / np.cumprod([1.0] + list(range(1, 17)))
# The Taylor degrees m that ``expm`` chooses from.  TAYLOR_THETAS[i] is the
# largest scaled norm t at which degree TAYLOR_DEGREES[i] is exact to float64:
# the remainder sum_{k>m} t^k/k! <= t^(m+1)/(m+1)! / (1 - t/(m+2)) is at most
# 2^-54 for t <= 0.0647 (m = 8) and t <= 0.3178 (m = 12), rounded down.
# Degree 16 takes the rest: at the largest scaled norm, 0.5, its remainder
# is 2.2e-20.
TAYLOR_DEGREES = (8, 12, 16)
TAYLOR_THETAS = np.array([0.0647, 0.3178])
TAYLOR_THETAS.setflags(write=False)


def _taylor_rows(degree):
    """Paterson-Stockmeyer coefficient rows of the degree-``degree`` Taylor
    polynomial, as a (4, 5) table: row j holds the coefficients of I, a,
    a^2, a^3 in block j of the Horner scheme in a^4, so block j is
    sum_{i<4} a^i / (4j + i)!; the top block, row degree/4 - 1, also takes
    a^4 / degree!, and the rows above it are zero."""
    rows = np.zeros((4, 5))
    blocks = degree // 4
    rows[:blocks, :4] = _TAYLOR[:degree].reshape(blocks, 4)
    rows[blocks - 1, 4] = _TAYLOR[degree]
    return rows


# (row, power, degree index): the rows of every degree in TAYLOR_DEGREES,
# so that per-slice degree indices on the last axis give (J, 5, b) rows.
_TAYLOR_ROWS = np.stack([_taylor_rows(m) for m in TAYLOR_DEGREES], axis=-1)
# The degree-8 rows, shaped to broadcast over the (5, b, n, n) powers.
_DEGREE8_ROWS = np.ascontiguousarray(_TAYLOR_ROWS[:2, :, 0, None, None, None])


@lru_cache(maxsize=None)
def _identity(n):
    """The read-only n x n identity, built once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _taylor(a, rows):
    """Taylor polynomial of exp over a stack (b, n, n) by Paterson-Stockmeyer:
    a^2, a^3, a^4, the blocks of ``rows`` (J, 5, b or 1, 1, 1) in one
    elementwise product and sum, then J - 1 Horner steps in a^4, so degree
    4J takes 2 + J matrix products (four for degree 8, six for 16).  A slice
    whose rows are zero above its own degree gets exact zeros from them and
    the bytes of its own degree."""
    powers = np.empty((5,) + a.shape)  # I, a, a^2, a^3, a^4
    powers[0] = _identity(a.shape[-1])
    powers[1] = a
    np.matmul(a, a, out=powers[2])
    np.matmul(powers[2], powers[1:3], out=powers[3:])
    blocks = (rows * powers).sum(axis=1)
    out = blocks[-1]
    for block in blocks[-2::-1]:
        out = out @ powers[4] + block
    return out


def slice_error(message, flat, batch, kind=NumericalError):
    """A ``kind`` error for slice ``flat`` (C order) of a stack with leading
    shape ``batch``, naming the slice and carrying its index."""
    index = tuple(int(i) for i in np.unravel_index(flat, batch))
    where = f" in slice {index}" if batch else ""
    return kind(message + where, index=index)


def expm(m):
    """Matrix exponential by scaling-and-squaring with a Taylor core of
    degree 8, 12 or 16, over a stack (..., n, n).

    Each slice's squaring count is chosen so its scaled norm is <= 0.5, and
    its Taylor degree is the least in ``TAYLOR_DEGREES`` that is exact to
    below float64 resolution at that scaled norm (``TAYLOR_THETAS``).  When
    no slice's norm exceeds the degree-8 bound, the whole stack takes the
    degree-8 rows with no per-slice work.  Otherwise every slice takes its
    own coefficient rows, zero above its degree, and the Horner steps run to
    the stack's highest degree.  The squaring count and the degree are kept
    per slice and the polynomial is the same elementwise arithmetic for
    every slice, so every slice equals the exponential of that matrix alone,
    byte for byte.  Each squaring doubles the relative error, so past
    ``MAX_SQUARINGS`` no digit of the result is correct and a
    ``NumericalError`` names the first such slice.
    """
    m = np.asarray(m, dtype=float)
    shape = m.shape
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise StructuralError(f"expected (..., n, n), got shape {shape}")
    n = shape[-1]
    flat = m.reshape((-1, n, n))
    worst = np.abs(flat).max(initial=0.0) * n
    if worst <= TAYLOR_THETAS[0]:  # every slice takes degree 8; a NaN fails
        return _taylor(flat, _DEGREE8_ROWS).reshape(shape)
    # A NaN or inf entry makes the largest scaled norm non-finite.
    if not np.isfinite(worst):
        b = int(np.argmax(~np.isfinite(flat).all(axis=(1, 2))))
        raise slice_error("expm: non-finite entries", b, shape[:-2])
    norm = np.abs(flat).reshape(len(flat), n * n).max(axis=1) * n
    most = 0
    if worst > 0.5:  # some slice needs scaling
        # norm = mant * 2**e with mant in [0.5, 1): the least squaring count
        # s >= 0 with norm / 2**s <= 0.5, exactly; the scaling by 2**-s is
        # exact, for the matrices and for their norms.
        mant, e = np.frexp(norm)
        squarings = np.maximum(e + (mant > 0.5), 0)
        most = int(squarings.max())
        if most > MAX_SQUARINGS:
            b = int(np.argmax(squarings > MAX_SQUARINGS))
            raise slice_error(
                f"expm: norm {norm[b]:.3e} needs {squarings[b]} squarings, which"
                " leave no correct digit", b, shape[:-2],
            )
        norm = np.ldexp(norm, -squarings)
        flat = np.ldexp(flat, -squarings[:, None, None])
    # Each slice's least degree whose bound covers its scaled norm.
    index = np.searchsorted(TAYLOR_THETAS, norm)
    blocks = TAYLOR_DEGREES[index.max()] // 4
    rows = _TAYLOR_ROWS[:blocks, :, index, None, None]  # (J, 5, b, 1, 1)
    result = _taylor(flat, rows)
    for i in range(most):
        more = squarings > i
        result[more] = result[more] @ result[more]
    return result.reshape(shape)


def group_defect_field(g, space):
    """|G^T J G - J| entrywise over a stack (..., n, n), in a fresh array."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-2:] != (space.dim, space.dim):
        raise StructuralError(f"expected (..., {space.dim}, {space.dim}), got {g.shape}")
    res = np.swapaxes(g, -1, -2) @ (space.j_diag[:, None] * g)
    res -= space.metric
    return np.abs(res, out=res)


def group_defects(g, space):
    """||G^T J G - J||_max of every slice of a stack (..., n, n), shape (...)."""
    return np.max(group_defect_field(g, space), axis=(-2, -1))


def in_group_residual(g, space):
    """Drift monitor: ||G^T J G - J||_max over a stack (..., n, n), e.g. a
    whole frame or gauge field in one call: one ``max`` over every entry,
    which a NaN makes NaN."""
    return float(group_defect_field(g, space).max())
