"""Twisted loop algebra of matrix Laurent polynomials.

A loop is xi(mu) = sum_k mu^k xi_k with twist condition S xi(mu) S = xi(-mu),
i.e. even-degree coefficients in k and odd-degree ones in p.  The splitting
into nonnegative and negative degrees yields the projections pi_+/pi_- and
the operator R = (pi_+ - pi_-)/2, which generates the commuting flows
X_r(xi) = [xi, pi_+ Vt_r(xi)] with Vt_r(xi)(mu) = mu^(1-d*r) xi(mu)^r.
The flows and the connection share one kernel for the two coefficients of
pi_+ Vt_r: ``top_powers`` builds the powers of the top coefficient xi_d, a
first integral of every flow, and ``connection_coefficients`` takes them;
the seed test reads A1 = xi_d^r from ``top_powers`` alone.  The full Cauchy
power and the flow field built from it (``tilde_v``, ``flow_field``) are the
tests' independent reference, in ``tests/helpers.py``.
"""

import numpy as np

from .algebra import EPS_ALGEBRA, RESIDUAL_BLOCK, membership_residual
from .errors import NumericalError, StructuralError


def twist_residual(stack, lo, spec):
    """Violation of the twist condition: k-parity of coefficients plus
    membership of each coefficient in g.  ``stack`` is (..., L, n, n) with
    degree lo + i at position i of axis -3; leading axes (grid nodes) are
    scanned in the same call, in blocks of at most ``RESIDUAL_BLOCK`` bytes
    as ``membership_residual`` takes them, so no temporary is the size of
    the stack."""
    even = ((lo + np.arange(stack.shape[-3])) % 2 == 0)[:, None, None]
    # The projections are {0, 1}-mask products, so one product with the
    # parity's mask gives every value of the projection, NaN included.
    mask = np.where(even, spec.p_project(1.0), spec.k_project(1.0))
    flat = stack.reshape((-1,) + stack.shape[-3:])
    rows = max(1, RESIDUAL_BLOCK // max(1, flat[:1].nbytes))
    res = 0.0
    for start in range(0, len(flat), rows):
        wrong = flat[start:start + rows] * mask
        # np.maximum, not max(): a NaN block must make the residual NaN.
        res = np.maximum(res, np.max(np.abs(wrong, out=wrong), initial=0.0))
    return max(float(res), membership_residual(stack, spec.space))


def evaluate_stack(stack, lo, mu):
    """sum_i mu^(lo+i) stack[..., i, :, :] for a stack (..., L, n, n)."""
    lead, (length, n) = stack.shape[:-3], stack.shape[-3:-1]
    powers = mu ** np.arange(lo, lo + length, dtype=float)
    flat = stack.reshape(lead + (length, n * n))
    return (powers @ flat).reshape(lead + (n, n))


class LoopElement:
    """Matrix Laurent polynomial with coefficients indexed by degree.

    ``check='twisted'`` validates the twist condition, which a non-finite
    entry fails; ``check='none'`` admits untwisted stacks (Cauchy powers,
    whose coefficients leave g).
    """

    def __init__(self, stack, lo, spec, check="twisted"):
        stack = np.asarray(stack, dtype=float)
        n = spec.dim
        if stack.ndim != 3 or stack.shape[1:] != (n, n):
            raise StructuralError(f"coefficient stack has shape {stack.shape}")
        self.stack = stack
        self.lo = int(lo)
        self.spec = spec
        if check == "twisted":
            scale = max(1.0, float(np.max(np.abs(stack)))) if stack.size else 1.0
            res = twist_residual(stack, self.lo, spec)
            if not res <= EPS_ALGEBRA * scale:  # a NaN residual fails too
                raise StructuralError(
                    f"twist condition violated: residual {res:.3e}"
                )

    @property
    def hi(self):
        return self.lo + self.stack.shape[0] - 1

    def coefficient(self, k):
        if self.lo <= k <= self.hi:
            return self.stack[k - self.lo]
        return np.zeros((self.spec.dim, self.spec.dim))

    def evaluate(self, mu):
        return evaluate_stack(self.stack, self.lo, mu)

    def norm(self):
        return float(np.max(np.abs(self.stack))) if self.stack.size else 0.0

    def __repr__(self):
        return f"LoopElement(degrees {self.lo}..{self.hi}, dim={self.spec.dim})"


class LaxState(LoopElement):
    """Polynomial loop of degrees 0..d (d odd), the state space of the flows."""

    def __init__(self, stack, spec, check=True):
        stack = np.asarray(stack, dtype=float)
        d = stack.shape[0] - 1
        if d < 1 or d % 2 == 0:
            raise StructuralError(f"degree d must be odd and positive, got {d}")
        super().__init__(stack, 0, spec, check="twisted" if check else "none")
        self.d = d

    def __repr__(self):
        return f"LaxState(d={self.d}, dim={self.spec.dim})"


class FlowFamily:
    """Commuting flows indexed by odd matrix powers r_1 < ... < r_k."""

    def __init__(self, powers, d):
        powers = tuple(int(r) for r in powers)
        if not powers:
            raise StructuralError("flow family needs at least one power")
        if any(r < 1 or r % 2 == 0 for r in powers):
            raise StructuralError(f"powers must be odd and positive: {powers}")
        if any(b <= a for a, b in zip(powers, powers[1:])):
            raise StructuralError(f"powers must be strictly increasing: {powers}")
        if d < 1 or d % 2 == 0:
            raise StructuralError(f"d must be odd and positive, got {d}")
        self.powers = powers
        self.d = int(d)

    @property
    def dims(self):
        return len(self.powers)

    def __repr__(self):
        return f"FlowFamily(powers={self.powers}, d={self.d})"


def flow_rhs(stack, powers, d):
    """Raw right-hand side of the r-flow on a coefficient stack (hot path).

    X_r(xi) = [xi, pi_+ Vt_r(xi)] without its identically-zero degree-(d+1)
    term: coefficient k is [xi_k, b0] + [xi_{k-1}, b1] with (b0, b1) the
    pair of ``connection_coefficients`` and r = ``len(powers)``, the powers
    of xi_d from ``top_powers``.  A stack with leading (node) axes is one
    broadcast expression over all degrees and nodes.  A single state (d+1,
    n, n), the RK4 edge's case, takes each right product of all its degrees
    as one ``ndarray.dot`` on the (d+1)n x n row stack and each left product
    as one matmul, and subtracts the commutator halves in place.  Every
    entry is the same two gemm sums, subtracted and added in the same order,
    so both paths equal the single-stack per-degree loop byte for byte.
    """
    b0, b1 = connection_coefficients(stack, powers, d)
    if stack.ndim == 3:
        n = stack.shape[-1]
        rows = stack.reshape(-1, n)
        out = rows.dot(b0).reshape(stack.shape)
        out -= b0 @ stack
        lower = stack[:-1]
        tail = rows[:-n].dot(b1).reshape(lower.shape)
        tail -= b1 @ lower
        upper = out[1:]  # a view: += on it skips the setitem of out[1:] +=
        upper += tail
        return out
    b0, b1 = b0[..., None, :, :], b1[..., None, :, :]
    out = stack @ b0 - b0 @ stack
    lower = stack[..., :-1, :, :]
    out[..., 1:, :, :] += lower @ b1 - b1 @ lower
    return out


def top_powers(top, r):
    """(xi_d, xi_d^2, ..., xi_d^r) for the top coefficient ``top`` (..., n, n).

    xi_d^k is degree dk of the Cauchy power xi^k bit for bit (see
    ``connection_coefficients`` on the zero start).  xi_d is a first
    integral of every flow, so the RK4 fill builds these once per edge and
    every stage of the edge shares them.  A single matrix multiplies with
    ``ndarray.dot``, which calls the same gemm as ``@`` with half the
    dispatch per product; stacks with node axes keep ``np.matmul``.
    """
    mul = np.ndarray.dot if top.ndim == 2 else np.matmul
    out = [top]
    for _ in range(r - 1):
        out.append(mul(out[-1], top))
    return tuple(out)


def connection_coefficients(stack, powers, d):
    """Degree-0 and degree-1 coefficients of pi_+ Vt_r: the (A0, A1) pair.

    These are the top two coefficients of xi^r (degrees dr-1, dr), with
    r = ``len(powers)`` and ``powers`` the ``top_powers`` of xi_d: the
    degree-dr one is xi_d^r = ``powers[-1]``, the degree-(dr-1) one the chain
    lo <- lo xi_d + xi_d^k xi_{d-1} from lo = xi_{d-1}.  The Cauchy product
    starts its sums from +0; a BLAS product sums from +0 too, so it is never
    -0 and the chain needs no explicit zero start to equal the full Cauchy
    power bit for bit, signed zeros included, when ``powers`` come from this
    stack's xi_d.  ``stack`` is (..., d+1, n, n); leading (node) axes are
    carried through.  A single state (every RK4 stage) multiplies with
    ``ndarray.dot`` as ``top_powers`` does.
    """
    if stack.ndim == 3:
        below, mul = stack[d - 1], np.ndarray.dot
    else:
        below, mul = stack[..., d - 1, :, :], np.matmul
    top = powers[0]
    lo = below
    for power in powers[:-1]:
        lo = mul(lo, top) + mul(power, below)
    return lo, powers[-1]


def trace_powers(m, max_power):
    """[tr(m^2), tr(m^4), ...] up to max_power along a new last axis, for
    matrices m of shape (..., n, n); raises on a non-finite value."""
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

