"""Lax states in the twisted loop algebra, and the kernel of their flows.

A loop is xi(mu) = sum_k mu^k xi_k with twist condition S xi(mu) S = xi(-mu),
i.e. even-degree coefficients in k and odd-degree ones in p.  The splitting
into nonnegative and negative degrees yields the projections pi_+/pi_- and
the operator R = (pi_+ - pi_-)/2, which generates the commuting flows
X_r(xi) = [xi, pi_+ Vt_r(xi)] with Vt_r(xi)(mu) = mu^(1-d*r) xi(mu)^r.
The flows and the connection share one kernel for the two coefficients of
pi_+ Vt_r: ``top_powers`` builds the powers of the top coefficient xi_d, a
first integral of every flow, and ``connection_coefficients`` takes them;
the seed test reads A1 = xi_d^r from ``top_powers`` alone; ``flow_rhs`` is
the one flow.  Its operands must lie in so(J): it forms every commutator
[X, Y] from the right product XY alone, since YX = J (XY)^T J there, and
an operand off so(J) by delta moves the flow by O(delta).  The full Cauchy
power and the flow field built from it (``tilde_v``, ``flow_field``) are
the tests' independent reference, in ``tests/helpers.py``.
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


def flow_rhs(stack, powers, d, signs, buffers=None):
    """Raw right-hand side of the r-flow on one state (d+1, n, n) (hot path).

    X_r(xi) = [xi, pi_+ Vt_r(xi)] without its identically-zero degree-(d+1)
    term: coefficient k is [xi_k, b0] + [xi_{k-1}, b1] with (b0, b1) the
    pair of ``connection_coefficients`` and r = ``len(powers)``, the powers
    of xi_d from ``top_powers``.  For X, Y in so(J), YX = J (XY)^T J, so
    each commutator is [X, Y] = P - signs * P^T with P = XY its right
    product alone and ``signs`` the ``skew_signs`` j j^T of the space.  The
    operands must therefore be in so(J): an explicit state off so(J) by
    delta gets a flow that differs from the two-sided bracket by O(delta).
    Whatever P is, the result equals -signs * result^T exactly (==, up to
    the sign of a zero), and so do the RK4 sums of such slopes, so the
    filled states of a seed in so(J) stay exactly in so(J).  The right
    products of all degrees are two ``ndarray.dot``s on the row stack, xi b0
    ((d+1)n x n) and the lower degrees times b1 (dn x n), written into the
    two halves of one (2, d+1, n, n) buffer, the second at degrees 1..d.
    One multiply mirrors both halves into the scratch pair, one subtraction
    forms both commutators, and the tail adds into the slope.  ``buffers``
    are the ``flow_buffers`` of the stack (fresh ones when None; successive
    calls may share the scratch pair, which is written before it is read).
    Returns the slope, the first half of the buffer.  A batch of states
    keeps these bytes only as a row stack of the same gemm shape: on some
    BLAS kernels (OpenBLAS Nehalem) a product of n x n slices sums in
    another order.
    """
    if buffers is None:
        buffers = flow_buffers(stack, np.zeros((2,) + stack.shape),
                               np.empty((2,) + stack.shape))
    (rows, lower_rows, slope_rows, tail_rows, pair, mirror, scratch, slope,
     upper, tail) = buffers
    if len(powers) == 1:  # r = 1: the pair is (xi_{d-1}, xi_d), no chain
        b0, b1 = stack[d - 1], powers[0]
    else:
        b0, b1 = connection_coefficients(stack, powers, d)
    rows.dot(b0, slope_rows)
    lower_rows.dot(b1, tail_rows)
    np.multiply(signs, mirror, scratch)
    pair -= scratch
    upper += tail
    return slope


def flow_buffers(stack, pair, scratch):
    """The views of a single state (d+1, n, n) that ``flow_rhs`` reads and
    writes, with ``pair`` and ``scratch`` (2, d+1, n, n) C-contiguous:
    ``(rows, lower rows, slope rows, tail rows, pair, mirror, scratch,
    slope, upper, tail)``.  ``rows`` is the (d+1)n x n row stack of the
    state and ``lower rows`` that of its degrees 0..d-1.  The slope is
    ``pair[0]``, with ``slope rows`` its row stack and ``upper`` its degrees
    1..d; the tail is degrees 1..d of ``pair[1]``, with ``tail rows`` its
    row stack, and degree 0 of ``pair[1]`` is never read (zero, it stays
    zero).  ``mirror`` is ``pair`` with each n x n slice transposed.  A
    caller that evaluates many stages builds them once per buffer."""
    n = stack.shape[-1]
    rows = stack.reshape(-1, n)
    slope_rows, tail_rows = pair.reshape(2, -1, n)
    return (rows, rows[:-n], slope_rows, tail_rows[n:], pair,
            pair.transpose(0, 1, 3, 2), scratch, pair[0], pair[0, 1:],
            pair[1, 1:])


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

