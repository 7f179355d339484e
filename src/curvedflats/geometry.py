"""Geometry extraction from integrated frames.

The p-parts of the connection span the same Cartan subspace at every node
(the top Lax coefficient is a first integral of the flows), so one K-valued
gauge H, built from a simultaneous singular value decomposition at the
origin, conjugates them into the rectangular-diagonal normal form with a
common kernel direction e0; the gauged form is checked node by node, in C
order.  Integrating it one ``GridSpec.slabs`` block at a time, in the
default axis order, gives the developing map psi (a local isometry onto the
reference Cartan subspace), and the first column of the gauged frame is the
reconstructed unit-quadric map phi, whose induced metric, normal bundle, and
second fundamental form are then checked against the space-form predictions.
"""

from functools import cached_property

import numpy as np

from .algebra import (
    CARTAN_TOL,
    form_margin,
    is_abelian,
    is_cartan,
    skew_project,
    span_basis,
)
from .errors import (
    DegenerateSpectrumError,
    GaugeContinuityError,
    NonCartanError,
    NonImmersiveError,
    NumericalError,
    StructuralError,
)
from .frame import central_difference, curvature_defect, grid_derivative

GAUGE_SPAN_TOL = 1e-7
SINGULAR_SEP_TOL = 1e-8
# Induced metric counts as degenerate below this fraction of its largest
# eigenvalue.
DEGENERACY_RATIO = 1e-6
# The Jacobian of psi is inverted where |det| exceeds this.
JACOBIAN_DET_TOL = 1e-12


class GaugeField:
    """Nodewise gauge H in K plus the gauged connection and its coordinates.

    The reference Cartan subspace is spanned by the D_a of p with unit
    off-block entry at row n1 + a, column n1 - n2 + a; ``betas[node, j, a]``
    is the component of the gauged p-part along D_a.

    The residual parts that read the gauge alone (the kernel residual, the
    normal-curvature defect and the inverse psi-Jacobian) are computed on
    first use and kept, so every spectral value of one run shares them; the
    arrays must not change after that.
    """

    def __init__(self, h, a0, a1, betas, grid, spec, max_off_span):
        self.h = h                      # (*nodes, n, n), block-diagonal
        self.a0 = a0                    # (*nodes, k, n, n), includes dH term
        self.a1 = a1                    # (*nodes, k, n, n), in span of the D_a
        self.betas = betas              # (*nodes, k, m)
        self.grid = grid
        self.spec = spec
        self.max_off_span = max_off_span

    def __repr__(self):
        return (
            f"GaugeField(nodes={self.grid.nodes}, "
            f"off_span={self.max_off_span:.2e})"
        )

    @cached_property
    def kernel_residual(self):
        """max |A1~_j e0| over nodes and flows: the gauged p-part annihilates
        the common kernel direction e0 (0.0 when n1 <= n2, no kernel)."""
        if self.spec.n1 <= self.spec.n2:
            return 0.0
        return float(np.max(np.linalg.norm(self.a1[..., :, 0], axis=-1)))

    @cached_property
    def normal_curvature_defect(self):
        """Curvature defect of the normal connection (the n1: block of A0~)
        along axes 0 and 1, on the nodes two rings in."""
        n1 = self.spec.n1
        return curvature_defect(self.a0[..., :, n1:, n1:], 0, 1, self.grid.steps, ring=2)

    @cached_property
    def psi_jacobian_inverse(self):
        """(invertible, w) on the interior nodes, for k = m: ``invertible``
        marks where the psi-Jacobian betas^T has |det| > JACOBIAN_DET_TOL (a
        NaN fails), and w holds its inverse at those nodes, in C order."""
        interior = (slice(1, -1),) * self.grid.dims
        jac = np.swapaxes(self.betas[interior], -1, -2)  # (m, k) per node
        invertible = np.abs(np.linalg.det(jac)) > JACOBIAN_DET_TOL
        return invertible, np.linalg.inv(jac[invertible])


class DevelopingMap:
    """Coordinates psi of the development onto the reference Cartan subspace."""

    def __init__(self, psi, closedness_residual, isometry_residual):
        self.psi = psi  # (*nodes, m)
        self.closedness_residual = closedness_residual
        self.isometry_residual = isometry_residual

    def __repr__(self):
        return (
            f"DevelopingMap(nodes={self.psi.shape[:-1]}, "
            f"closedness={self.closedness_residual:.2e})"
        )


class ImmersionData:
    """Reconstructed quadric map phi with induced metric and diagnostics; its
    grid and spec are those of ``gauge``."""

    def __init__(self, phi, metric, degenerate, unit_residual, kernel_residual,
                 f_tilde, gauge, mu):
        self.phi = phi                # (*nodes, n)
        self.metric = metric          # (*nodes, k, k)
        self.degenerate = degenerate  # (*nodes,) bool
        self.unit_residual = unit_residual
        self.kernel_residual = kernel_residual
        self.f_tilde = f_tilde        # (*nodes, n, n) adapted frames
        self.gauge = gauge
        self.mu = mu

    @property
    def degenerate_fraction(self):
        return float(np.mean(self.degenerate))

    def __repr__(self):
        return (
            f"ImmersionData(nodes={self.gauge.grid.nodes}, mu={self.mu}, "
            f"degenerate={self.degenerate_fraction:.0%})"
        )


def _canonical_signs(columns):
    """Per column the sign (+-1) making its largest-magnitude entry positive."""
    lead = columns[np.argmax(np.abs(columns), axis=0), np.arange(columns.shape[1])]
    return np.where(lead < 0, -1.0, 1.0)


def admissible_span(span, spec):
    """Precondition shared by seeding and the gauge on a (k, n, n) tangent
    span, at the span test's tolerance ``CARTAN_TOL``.

    With at least as many flows as the rank this is the full Cartan test;
    with fewer flows (a curve in a higher-rank space) it relaxes to: abelian,
    linearly independent, nondegenerate trace form.
    """
    k = len(span)
    if k >= spec.rank:
        return is_cartan(span, spec)
    if not is_abelian(span, CARTAN_TOL):
        return False
    ortho = span_basis(span)
    return len(ortho) == k and form_margin(ortho) > CARTAN_TOL


def gauge_to_normal_form(conn):
    """Build the gauge H conjugating every A1_j into normal form.

    The commuting off-blocks B_j at the origin are simultaneously
    diagonalized through the SVD of a fixed generic combination
    C = sum_j w_j B_j (w_j = 1/(j + sqrt 2)); equal or vanishing singular
    values are an error rather than a silent branch choice.  One H serves
    every node, since xi_d, and with it A1_j = xi_d^{r_j}, is a first
    integral of every flow.  ``gauge_from_h`` certifies the normal form at
    each node, so an A1 that varies inside one Cartan subspace is still
    gauged exactly and one that leaves it fails at its first node in C order.

    A1 is first checked to be finite and in so(J) on the whole grid
    (``StructuralError``); the span test then walks the nodes in C order,
    raising at the first node that fails it, and at the origin, right after
    its span test, on a bad gap.
    """
    grid, spec = conn.grid, conn.spec
    n, n1, n2 = spec.dim, spec.n1, spec.n2
    if n1 < n2:
        raise StructuralError(
            "normal form expects the plane block to be at least as large as "
            "the complementary block"
        )
    if not spec.k_block_definite():
        raise StructuralError(
            "gauge normal form requires definite isotropy blocks; "
            "indefinite presets stop at connections and frames"
        )
    a1 = conn.a1
    _check_so_j(a1, spec.space)
    for index in np.ndindex(grid.nodes):  # C order, from the origin
        if not admissible_span(a1[index], spec):
            raise NonCartanError(
                f"tangent span fails the Cartan test at {index}", node=index
            )
        if not any(index):
            h = _normal_form_gauge(a1[index], index, spec)
    return gauge_from_h(conn, np.broadcast_to(h, grid.nodes + (n, n)).copy())


def _normal_form_gauge(a1, index, spec):
    """The gauge H in K putting the (k, n, n) span ``a1`` of node ``index``
    into normal form, from one SVD of C = sum_j w_j B_j.  Kernel columns and
    (u_i, v_i) pairs are signed so each right vector's largest entry is
    positive."""
    n1, m = spec.n1, spec.n2
    weights = [1.0 / (j + np.sqrt(2.0)) for j in range(1, len(a1) + 1)]
    c = sum(w * a1[j, n1:, :n1] for j, w in enumerate(weights))
    u, s, vt = np.linalg.svd(c, full_matrices=True)
    if s[-1] < SINGULAR_SEP_TOL or np.any(-np.diff(s) < SINGULAR_SEP_TOL):
        raise DegenerateSpectrumError(
            f"singular values {s} too close or too small at node {index}",
            node=index,
        )
    v_ker, v_sing = vt[m:].T, vt[:m].T
    signs = _canonical_signs(v_sing)
    right = np.concatenate([v_ker * _canonical_signs(v_ker), v_sing * signs], axis=1)
    h = np.zeros((spec.dim, spec.dim))
    h[:n1, :n1], h[n1:, n1:] = right.T, (u * signs).T
    return h


def _check_so_j(a1, space):
    """Raise StructuralError at the first (node, flow) in C order whose A1 is
    non-finite or off so(J) beyond CARTAN_TOL at its own scale, over the
    whole field in one pass: the so(J) membership test at the span test's
    tolerance CARTAN_TOL (1e-9), not EPS_ALGEBRA (1e-12)."""
    j = space.j_diag
    res = np.max(np.abs(np.swapaxes(a1, -1, -2) * j + j[:, None] * a1), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(a1), axis=(-2, -1)))
    # A NaN or inf entry of A1 makes res non-finite.
    failing = np.argwhere(~(np.isfinite(res) & (res <= CARTAN_TOL * scale)))
    if failing.size:
        *index, flow = (int(i) for i in failing[0])
        raise StructuralError(
            f"A1 of flow {flow} at node {tuple(index)} is not a finite element "
            f"of so(J): residual {res[tuple(failing[0])]:.3e}",
            node=tuple(index),
        )


def gauge_from_h(conn, h_field):
    """Gauged connection from a given gauge field H.

    A1 conjugates exactly; A0 picks up the -dH H^-1 term, assembled with
    order-2 grid derivatives and projected back onto so(J).  Deterministic
    given H, so stored gauges reproduce identical residuals on reverify.
    Raises ``NumericalError`` at the first node in C order whose gauged
    p-part leaves the reference Cartan span by more than ``GAUGE_SPAN_TOL``.
    """
    grid, spec = conn.grid, conn.spec
    n1, n2 = spec.n1, spec.n2
    diag = (np.arange(n2), n1 - n2 + np.arange(n2))
    h_t = np.swapaxes(h_field, -1, -2)
    dh = np.stack([grid_derivative(h_field, axis, step) @ h_t
                   for axis, step in enumerate(grid.steps)], axis=-3)
    h, h_inv = h_field[..., None, :, :], h_t[..., None, :, :]  # over directions
    dh = skew_project(dh, spec.space)
    a0_t = h @ conn.a0 @ h_inv - dh
    a1_t = h @ conn.a1 @ h_inv
    off = a1_t[..., n1:, :n1].copy()
    betas = off[(...,) + diag]
    off[(...,) + diag] = 0.0
    off_node = np.max(np.abs(off), axis=(-3, -2, -1))
    failing = np.argwhere(~(off_node <= GAUGE_SPAN_TOL))  # a NaN fails too
    if failing.size:
        node = tuple(int(i) for i in failing[0])
        raise NumericalError(
            f"gauged p-part leaves the Cartan span by {off_node[node]:.3e} at "
            f"node {node}",
            node=node,
        )
    max_off = float(np.max(off_node))
    return GaugeField(h_field, a0_t, a1_t, betas, grid, spec, max_off)


def developing_map(gf, closedness_tol):
    """Integrate d psi = A1~ (trapezoid along the tree) and report the
    closedness defect of the gauged p-part.

    Each slab of ``gf.grid.slabs(range(k))`` gathers its betas through its
    ids and sums its trapezoid increments with one ``np.cumsum`` down its
    rows from the psi the earlier slabs left in row 0: the same additions,
    in the same order, as a node-by-node walk of the tree.

    A defect far above tolerance indicates a sign/order branch flip of the
    gauge between neighboring nodes rather than discretization error.
    """
    grid = gf.grid
    k = grid.dims
    m = gf.betas.shape[-1]
    steps = grid.steps
    psi = np.zeros(grid.nodes + (m,))
    flat, betas = psi.reshape(-1, m), gf.betas.reshape(-1, k, m)
    for axis, ids in grid.slabs(range(k)):
        b = betas[ids, axis]  # (N_axis, slab width, m)
        increments = steps[axis] * (0.5 * (b[:-1] + b[1:]))
        flat[ids] = np.cumsum(np.concatenate([flat[ids[:1]], increments]), axis=0)

    closedness = 0.0
    if k >= 2:
        for i in range(k):
            bi = gf.betas[..., i, :]
            for j in range(i + 1, k):
                bj = gf.betas[..., j, :]
                res = (
                    central_difference(bj, k, i, steps[i])
                    - central_difference(bi, k, j, steps[j])
                )
                closedness = float(np.maximum(closedness, np.max(np.abs(res))))
        if closedness > 100.0 * closedness_tol:
            raise GaugeContinuityError(
                f"closedness residual {closedness:.3e} suggests a gauge branch flip"
            )

    # Nodewise isometry: the Gram matrix of d psi in the diagonal basis must
    # reproduce the invariant-form Gram of the gauged p-part.
    gram_psi = np.einsum("...ia,...ja->...ij", gf.betas, gf.betas)
    gram_alg = _algebra_gram(gf.a1)
    isometry = float(np.max(np.abs(gram_psi - gram_alg)))
    return DevelopingMap(psi, closedness, isometry)


def _algebra_gram(a1):
    """-1/2 tr(A1_i A1_j) over a (..., k, n, n) field: only the a = c
    diagonal of each product A1_i A1_j is formed, and its sum is the trace
    of the full product, byte for byte."""
    return -0.5 * np.einsum("...iab,...jba->...ija", a1, a1).sum(-1)


def _in_psi_coordinates(w, second):
    """W^T II_a W per node, for (N, 2, 2) inverse Jacobians W and (N, n2, 2,
    2) second fundamental forms II_a: the terms (W_ra II_rs) W_sb summed in
    (r, s) order from 0, the bytes of the three-operand einsum
    "...ia,...nij,...jb->...nab".  A matmul chain would sum them in
    another order and move the bytes of ``ii_offdiag_ratio``."""
    out = 0.0
    for r in range(2):
        for s in range(2):
            out = out + (
                w[:, None, r, :, None] * second[:, :, r, s, None, None]
            ) * w[:, None, s, None, :]
    return out


def reconstruct_immersion(gf, frames, mu):
    """Reconstruct phi as the first column of the gauged frame F~ = F H^-1,
    from the frames (*nodes, n, n) of the spectral sample ``mu``.

    Verifies that phi stays on the unit quadric and that the gauged p-part
    annihilates e0, then measures the induced metric by order-2 finite
    differences and flags nodes where it degenerates.
    """
    if mu == 0.0:
        raise StructuralError(
            "geometry extraction needs a nonzero spectral value"
        )
    grid, spec = gf.grid, gf.spec
    j = spec.space.j_diag
    f_tilde = frames @ np.swapaxes(gf.h, -1, -2)
    phi = f_tilde[..., :, 0]
    unit = float(np.max(np.abs(np.einsum("...i,i,...i->...", phi, j, phi) - j[0])))
    k = grid.dims
    steps = grid.steps
    dphi = [grid_derivative(phi, axis, steps[axis]) for axis in range(k)]
    metric = np.empty(grid.nodes + (k, k))
    for i in range(k):
        for l in range(i, k):
            g = np.einsum("...a,a,...a->...", dphi[i], j, dphi[l])
            metric[..., i, l] = g
            metric[..., l, i] = g
    eig = np.linalg.eigvalsh(metric)
    largest = np.max(np.abs(eig), axis=-1)
    smallest = np.min(eig, axis=-1)
    degenerate = (smallest < DEGENERACY_RATIO * np.maximum(largest, 1e-300)) | (
        largest <= 0.0
    )
    if bool(np.all(degenerate)):
        raise NonImmersiveError("reconstructed map is degenerate at every node")
    return ImmersionData(
        phi, metric, degenerate, unit, gf.kernel_residual, f_tilde, gf, mu
    )


def gauss_curvature_field(metric, grid):
    """Gauss curvature of a 2D metric field by the Brioschi formula with
    order-2 grid derivatives.  Valid on interior nodes."""
    if grid.dims != 2:
        raise StructuralError("Gauss curvature needs a 2-dimensional grid")
    h0, h1 = grid.steps
    e = metric[..., 0, 0]
    f = metric[..., 0, 1]
    g = metric[..., 1, 1]
    e_u, e_v = grid_derivative(e, 0, h0), grid_derivative(e, 1, h1)
    g_u, g_v = grid_derivative(g, 0, h0), grid_derivative(g, 1, h1)
    f_u, f_v = grid_derivative(f, 0, h0), grid_derivative(f, 1, h1)
    e_vv = grid_derivative(e_v, 1, h1)
    g_uu = grid_derivative(g_u, 0, h0)
    f_uv = grid_derivative(f_u, 1, h1)

    def det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
        return (
            a11 * (a22 * a33 - a23 * a32)
            - a12 * (a21 * a33 - a23 * a31)
            + a13 * (a21 * a32 - a22 * a31)
        )

    m1 = det3(
        -0.5 * e_vv + f_uv - 0.5 * g_uu, 0.5 * e_u, f_u - 0.5 * e_v,
        f_v - 0.5 * g_u, e, f,
        0.5 * g_v, f, g,
    )
    m2 = det3(
        np.zeros_like(e), 0.5 * e_v, 0.5 * g_u,
        0.5 * e_v, e, f,
        0.5 * g_u, f, g,
    )
    denom = (e * g - f * f) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (m1 - m2) / denom
    return kappa


def verify_space_form_geometry(im):
    """Space-form checks for a 2-dimensional reconstruction on the grid of
    ``im.gauge``.

    Reports (a) the deviation of the induced Gauss curvature from the
    curvature 1 of M^2(1), the surface a plane block n1 = 3 wide
    reconstructs, (b) the flatness defect of the normal connection, and (c)
    the off-diagonality of the second fundamental form in the developing-map
    coordinates (the principal-coordinate property).  All three shrink at
    second order under grid refinement.
    """
    grid, spec = im.gauge.grid, im.gauge.spec
    if grid.dims != 2:
        raise StructuralError("space-form verification is defined for m = 2")
    if spec.n2 != 2:
        raise StructuralError("space-form verification needs n2 = 2: the "
                              f"Jacobian of psi is {spec.n2} x 2")
    if spec.n1 != 3:
        raise StructuralError("space-form verification needs n1 = 3: the Gauss "
                              "curvature is compared with K = 1 of M^2(1), and "
                              f"the plane block is {spec.n1} wide")
    if any(nn < 5 for nn in grid.nodes):
        raise StructuralError("need at least 5 nodes per axis for curvature stats")
    n1, n2 = spec.n1, spec.n2
    j = spec.space.j_diag
    h0, h1 = grid.steps
    interior = (slice(1, -1), slice(1, -1))
    # Curvature stencils differentiate once more, so statistics are taken two
    # rings in, where every input is a pure central difference.
    core = (slice(2, -2), slice(2, -2))
    valid = ~im.degenerate[interior]
    core_valid = ~im.degenerate[core]
    if not np.any(valid) or not np.any(core_valid):
        raise NonImmersiveError("no non-degenerate interior nodes to verify")

    kappa = gauss_curvature_field(im.metric, grid)[core]
    curv_err = np.abs(kappa - 1.0)[core_valid]

    r_normal = im.gauge.normal_curvature_defect
    normal_residual = float(np.max(np.abs(r_normal[core_valid])))

    phi = im.phi
    d2_00 = (phi[2:, 1:-1] - 2.0 * phi[1:-1, 1:-1] + phi[:-2, 1:-1]) / h0**2
    d2_11 = (phi[1:-1, 2:] - 2.0 * phi[1:-1, 1:-1] + phi[1:-1, :-2]) / h1**2
    d2_01 = (
        phi[2:, 2:] - phi[2:, :-2] - phi[:-2, 2:] + phi[:-2, :-2]
    ) / (4.0 * h0 * h1)
    normals = im.f_tilde[interior][..., :, n1:]
    second = np.empty(d2_00.shape[:-1] + (n2, 2, 2))
    for a in range(n2):
        nu = normals[..., :, a]
        ii00 = np.einsum("...i,i,...i->...", d2_00, j, nu)
        ii11 = np.einsum("...i,i,...i->...", d2_11, j, nu)
        ii01 = np.einsum("...i,i,...i->...", d2_01, j, nu)
        second[..., a, 0, 0] = ii00
        second[..., a, 1, 1] = ii11
        second[..., a, 0, 1] = ii01
        second[..., a, 1, 0] = ii01

    invertible, w = im.gauge.psi_jacobian_inverse
    ok = valid & invertible
    if not np.any(ok):
        raise NonImmersiveError(
            "no non-degenerate interior node has an invertible psi Jacobian"
        )
    ii_psi = _in_psi_coordinates(w[valid[invertible]], second[ok])
    off = float(np.max(np.abs(ii_psi[..., 0, 1])))
    diag = float(
        np.max(np.maximum(np.abs(ii_psi[..., 0, 0]), np.abs(ii_psi[..., 1, 1])))
    )
    report = {
        "ambient_curvature": 1.0,
        "gauss_curvature_max_error": float(np.max(curv_err)),
        "gauss_curvature_mean_error": float(np.mean(curv_err)),
        "normal_curvature_residual": normal_residual,
        "ii_offdiag_ratio": off / diag if diag > 0 else 0.0,
    }
    return report


def spectral_reparam(lam, c):
    """Conversion from the immersion family parameter to the loop parameter:
    mu = -sqrt(c)/(2 sqrt(1-c)) * (lam - 1/lam); odd under lam -> 1/lam."""
    if not 0.0 < c < 1.0:
        raise StructuralError(f"curvature ratio c must lie in (0, 1), got {c}")
    if lam == 0.0:
        raise StructuralError("lambda must be nonzero")
    return -np.sqrt(c) / (2.0 * np.sqrt(1.0 - c)) * (lam - 1.0 / lam)


def curve_diagnostics(frames, mu, conn):
    """Speed and geodesic curvature of the normal-line curve on the 2-sphere
    traced by a rank-1 run in the 3-dimensional definite setting, for the
    frames (*nodes, 3, 3) of the sample ``mu`` on the grid of ``conn``.

    Derivatives use the structural identity d(F e) = F A^mu e, so the speed
    is exact up to frame drift; the second derivative needs one grid
    derivative of the connection.
    """
    spec, grid = conn.spec, conn.grid
    if grid.dims != 1 or spec.dim != 3 or not spec.space.is_definite:
        raise StructuralError("curve diagnostics need a rank-1 run on so(3)")
    col = spec.n1  # single normal direction
    a = conn.a_mu(mu)[..., 0, :, :]
    e = np.zeros(3)
    e[col] = 1.0
    gamma = frames @ e
    av = a @ e
    gamma_dot = np.einsum("...ij,...j->...i", frames, av)
    h = grid.steps[0]
    a_dot = grid_derivative(a, 0, h)
    acc = np.einsum("...ij,...j->...i", a, av) + a_dot @ e
    gamma_ddot = np.einsum("...ij,...j->...i", frames, acc)
    speed = np.linalg.norm(gamma_dot, axis=-1)
    cross = np.cross(gamma, gamma_dot)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.einsum("...i,...i->...", gamma_ddot, cross) / speed**3
    return {"curve": gamma, "speed": speed, "geodesic_curvature": kappa}
