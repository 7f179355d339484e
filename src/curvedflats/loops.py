"""Lax states in the twisted loop algebra, and the kernel of their flows.

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


class LaxState:
    """Polynomial loop xi(mu) = sum_k mu^k xi_k of degrees 0..d (d odd), the
    state space of the flows.  ``check`` validates the twist condition, which
    a non-finite entry fails; ``check=False`` admits any stack of that shape.
    """

    def __init__(self, stack, spec, check=True):
        stack = np.asarray(stack, dtype=float)
        if stack.ndim != 3 or stack.shape[1:] != (spec.dim, spec.dim):
            raise StructuralError(f"coefficient stack has shape {stack.shape}")
        d = stack.shape[0] - 1
        if d < 1 or d % 2 == 0:
            raise StructuralError(f"degree d must be odd and positive, got {d}")
        if check:
            scale = max(1.0, float(np.max(np.abs(stack))))
            res = twist_residual(stack, 0, spec)
            if not res <= EPS_ALGEBRA * scale:  # a NaN residual fails too
                raise StructuralError(
                    f"twist condition violated: residual {res:.3e}"
                )
        self.stack = stack
        self.spec = spec
        self.d = d

    def norm(self):
        return float(np.max(np.abs(self.stack)))

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


def flow_rhs(stack, powers, d, buffers=None):
    """Raw right-hand side of the r-flow on a coefficient stack (hot path).

    X_r(xi) = [xi, pi_+ Vt_r(xi)] without its identically-zero degree-(d+1)
    term: coefficient k is [xi_k, b0] + [xi_{k-1}, b1] with (b0, b1) the
    pair of ``connection_coefficients`` and r = ``len(powers)``, the powers
    of xi_d from ``top_powers``.  A stack with leading (node) axes is one
    broadcast expression over all degrees and nodes.  A single state (d+1,
    n, n), the RK4 edge's case, takes each right product of all its degrees
    as one ``ndarray.dot`` on the (d+1)n x n row stack and each left product
    as one matmul, written into ``buffers``: the ``state_views`` of the
    stack, of the output and of the tail and left scratch states (fresh ones
    when None; successive calls may share the scratch pair, which is written
    before it is read).  It subtracts the commutator halves in place and
    returns the output buffer.  Every entry is the same two gemm sums,
    subtracted and added in the same order, so both paths equal the
    single-stack per-degree loop byte for byte.
    """
    if stack.ndim == 3:
        if buffers is None:
            buffers = (state_views(stack),) + tuple(
                state_views(np.empty_like(stack)) for _ in range(3)
            )
        ((_, rows, lower_rows, lower, _), (out, out_rows, _, _, upper),
         (_, _, tail_rows, tail, _), (left, _, _, left_lower, _)) = buffers
        if len(powers) == 1:  # r = 1: the pair is (xi_{d-1}, xi_d), no chain
            b0, b1 = stack[d - 1], powers[0]
        else:
            b0, b1 = connection_coefficients(stack, powers, d)
        rows.dot(b0, out_rows)
        np.matmul(b0, stack, left)
        out -= left
        lower_rows.dot(b1, tail_rows)
        np.matmul(b1, lower, left_lower)
        tail -= left_lower
        upper += tail
        return out
    b0, b1 = connection_coefficients(stack, powers, d)
    b0, b1 = b0[..., None, :, :], b1[..., None, :, :]
    out = stack @ b0 - b0 @ stack
    lower = stack[..., :-1, :, :]
    out[..., 1:, :, :] += lower @ b1 - b1 @ lower
    return out


def state_views(stack):
    """The views of a single state (d+1, n, n) that ``flow_rhs`` reads and
    writes: ``(stack, rows, lower rows, lower, upper)``, with ``rows`` its
    (d+1)n x n row stack, ``lower`` its degrees 0..d-1 and ``upper`` its
    degrees 1..d.  A caller that evaluates many stages builds them once per
    buffer."""
    rows = stack.reshape(-1, stack.shape[-1])
    return stack, rows, rows[:-stack.shape[-1]], stack[:-1], stack[1:]


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
    carried through.  A single state (an RK4 stage of an r >= 3 flow; the
    r = 1 stages take (xi_{d-1}, xi_d) in ``flow_rhs``) multiplies with
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
    matrices m of shape (..., n, n); raises on a non-finite value.  The
    powers of m^2 start from m^2 itself, which the product with the identity
    gave byte for byte: a BLAS product is never -0 (see
    ``connection_coefficients``)."""
    m2 = m @ m
    acc, out = m2, []
    for _ in range(max_power // 2):
        if out:
            acc = acc @ m2
        out.append(np.trace(acc, axis1=-2, axis2=-1))
    out = np.stack(out, axis=-1)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite spectral invariant")
    return out

