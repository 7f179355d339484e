"""Configuration-driven pipeline: seed -> Lax grid -> connection -> frames
-> geometry -> report and mesh export.

Exit codes: 0 all residuals within tolerance, 1 tolerance failure,
2 structural/config error, 3 numerical blow-up or degeneracy.
"""

import argparse
import contextlib
import hashlib
import json
import math
import numbers
import sys
import traceback
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, BilinearSpace, SymmetricSpaceSpec, in_group_residual
from .errors import (
    ConfigError,
    CurvedFlatsError,
    MissingArtifactError,
    NonImmersiveError,
    NumericalError,
    SeedingError,
    StructuralError,
)
from .frame import (
    FrameField,
    abelian_residual,
    connection_from_state,
    integrate_frame,
    mc_residual,
)
from .geometry import (
    CARTAN_TOL,
    admissible_span,
    curve_diagnostics,
    developing_map,
    gauge_from_h,
    gauge_to_normal_form,
    reconstruct_immersion,
    verify_space_form_geometry,
)
from .lax import GridSolution, GridSpec, commutativity_check, conservation_report, integrate_grid
from .loops import FlowFamily, LaxState, top_powers
from .presets import describe, make_preset, preset_names
from . import algebra

SEED_COEFF_NORM = 0.75
MAX_SEED_ATTEMPTS = 1000
# Largest piece of an array's bytes that save_arrays hands to the compressor.
NPZ_CHUNK = 1 << 20
# Nodes whose phi text write_phi_text formats and writes at a time.
TEXT_ROWS = 256

DEFAULT_TOLERANCES = {
    "twist": 1e-9,
    "mc": 1e-4,
    "abelian": 1e-9,
    "conservation": 1e-8,
    "commutativity": 1e-8,
    "group_drift": 1e-8,
    "closedness": 1e-3,
    "isometry": 1e-10,
    "kernel": 1e-8,
    "unit_quadric": 1e-7,
    "gauss_curvature": 0.05,
    "normal_curvature": 0.05,
    "ii_offdiag": 0.05,
}

_KNOWN_KEYS = {
    "preset", "m", "n", "signature", "split", "rank", "d", "powers", "seed",
    "xi0", "extents", "nodes", "substeps", "mu_samples", "outputs",
    "tolerances", "obj_coords", "commutativity_steps",
}

_KNOWN_OUTPUTS = {"report", "csv", "obj"}


def default_config():
    """The default rank-2 configuration: Grassmannian of 3-planes in R^5."""
    return {
        "preset": "sphere-grassmannian",
        "d": 3,
        "powers": [1, 3],
        "seed": 7,
        "extents": [0.4, 0.4],
        "nodes": [33, 33],
        "substeps": 4,
        "mu_samples": [0.6, 1.0, 1.6],
        "outputs": {"report": True, "csv": True, "obj": True},
        "tolerances": {},
        "commutativity_steps": 32,
    }


def mu_key(mu):
    """The key of spectral sample ``mu`` in every per-mu table of the report."""
    return f"{mu:g}"


def _integral(key, value, least):
    """``value`` as an int >= ``least``; ConfigError for anything else."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or isinstance(value, float) and value.is_integer()
    ) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return int(value)


def _integers(key, value, count, least):
    """``value`` as a list of ``count`` ints >= ``least``."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ConfigError(f"{key} must be a list of {count} integers, got {value!r}")
    return [_integral(key, v, least) for v in value]


def _real(key, value):
    """``value`` as a float; ConfigError for a non-number or NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or np.isnan(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


class RunConfig:
    """Validated run configuration (strict keys, see default_config)."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = default_config()
        merged.update(raw)
        self.raw = dict(merged)
        for key in ("powers", "extents", "nodes", "mu_samples"):
            if not isinstance(merged[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {merged[key]!r}")
        for key in ("outputs", "tolerances"):
            if not isinstance(merged.get(key) or {}, dict):
                raise ConfigError(f"{key} must be an object, got {merged[key]!r}")

        self.preset = merged.get("preset")
        other = ("m", "n") if self.preset is None else ("signature", "split", "rank")
        ignored = [key for key in other if merged.get(key) is not None]
        if ignored:
            raise ConfigError(
                f"{ignored} cannot be used with preset {self.preset!r}: m/n size "
                "a named preset, signature/split/rank define the space when it is null"
            )
        if self.preset is not None:
            sizes = {k: _integral(k, merged[k], 0)
                     for k in ("m", "n") if merged.get(k) is not None}
            self.spec = make_preset(self.preset, **sizes)
        else:
            for key in ("signature", "split", "rank"):
                if key not in merged or merged[key] is None:
                    raise ConfigError(f"explicit spec requires {key!r}")
            pos, neg = _integers("signature", merged["signature"], 2, 0)
            self.spec = SymmetricSpaceSpec(
                BilinearSpace(pos, neg),
                _integers("split", merged["split"], 2, 1),
                _integral("rank", merged["rank"], 1),
            )

        self.d = _integral("d", merged["d"], 1)
        self.powers = [_integral("powers", r, 1) for r in merged["powers"]]
        self.family = FlowFamily(self.powers, self.d)

        extents = [_real("extents", v) for v in merged["extents"]]
        nodes = [_integral("nodes", v, 2) for v in merged["nodes"]]
        if len(extents) != len(self.powers) or len(nodes) != len(self.powers):
            raise ConfigError("extents/nodes length must match the number of flows")
        self.grid = GridSpec(extents, nodes)
        # Curvature residuals differentiate every axis of a 2D grid, and the
        # gauge differentiates H along every axis whenever it runs.
        if (self.grid.dims >= 2 or self.spec.k_block_definite()) and min(nodes) < 3:
            raise ConfigError(f"differentiated axes need >= 3 nodes: {nodes}")
        # The space-form checks of a 2D immersion take curvature statistics
        # two rings in from the boundary.
        if self.grid.dims == 2 and self.spec.k_block_definite() and min(nodes) < 5:
            raise ConfigError(f"2D geometry needs >= 5 nodes per axis: {nodes}")

        self.substeps = _integral("substeps", merged["substeps"], 1)

        self.mu_samples = [_real("mu_samples", v) for v in merged["mu_samples"]]
        if not self.mu_samples or any(v == 0.0 for v in self.mu_samples):
            raise ConfigError("mu_samples must be nonempty and nonzero")
        if not np.all(np.isfinite(self.mu_samples)):
            raise ConfigError(f"mu_samples must be finite, got {self.mu_samples}")
        keys = [mu_key(mu) for mu in self.mu_samples]
        if len(set(keys)) != len(keys):
            raise ConfigError(
                f"mu_samples {self.mu_samples} share report keys {keys}; "
                "samples must differ in their first 6 significant digits"
            )

        self.seed = merged.get("seed")
        if self.seed is not None:
            self.seed = _integral("seed", self.seed, 0)
        self.xi0 = merged.get("xi0")
        if self.xi0 is None and self.seed is None:
            raise ConfigError("either a seed or explicit xi0 coefficients required")

        outputs = merged.get("outputs") or {}
        bad = set(outputs) - _KNOWN_OUTPUTS
        if bad:
            raise ConfigError(f"unknown output flags: {sorted(bad)}")
        if not all(isinstance(v, bool) for v in outputs.values()):
            raise ConfigError(f"output flags must be true or false: {outputs}")
        self.outputs = {k: outputs.get(k, True) for k in _KNOWN_OUTPUTS}

        tol = dict(DEFAULT_TOLERANCES)
        overrides = merged.get("tolerances") or {}
        bad = set(overrides) - set(DEFAULT_TOLERANCES)
        if bad:
            raise ConfigError(f"unknown tolerance keys: {sorted(bad)}")
        tol.update({k: _real(f"tolerances.{k}", v) for k, v in overrides.items()})
        # An infinite tolerance has no strict-JSON form in report.json.
        bad = sorted(k for k in overrides if not 0 <= tol[k] < np.inf)
        if bad:
            raise ConfigError(f"tolerances must be finite and >= 0: {bad}")
        self.tolerances = tol

        self.obj_coords = tuple(
            _integers("obj_coords", merged.get("obj_coords") or [0, 1, 2], 3, 0)
        )
        if any(c >= self.spec.dim for c in self.obj_coords):
            raise ConfigError(f"obj_coords out of range: {self.obj_coords}")
        self.commutativity_steps = _integral(
            "commutativity_steps", merged["commutativity_steps"], 1
        )

    def hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def seed_initial_state(config):
    """Draw an admissible seed state (or validate an explicit one).

    Rejection sampling accepts a candidate when the p-parts of its
    connection at the origin pass the gauge's ``admissible_span`` test; with
    generic seeds the first draw almost always passes.  Returns
    (state, attempts).
    """
    spec = config.spec
    n, d = spec.dim, config.d
    if config.xi0 is not None:
        try:
            stack = np.asarray(config.xi0, dtype=float)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"xi0 must be an array of numbers: {err}") from err
        if stack.shape != (d + 1, n, n):
            raise ConfigError(
                f"xi0 must have shape ({d + 1}, {n}, {n}), got {stack.shape}"
            )
        if not np.all(np.isfinite(stack)):
            raise ConfigError("xi0 must have finite entries")
        state = LaxState(stack, spec)  # validates the twist condition
        return state, 0

    rng = np.random.default_rng(config.seed)
    for attempt in range(1, MAX_SEED_ATTEMPTS + 1):
        stack = np.empty((d + 1, n, n))
        for k in range(d + 1):
            raw = rng.standard_normal((n, n))
            elem = algebra.skew_project(raw, spec.space)
            part = spec.k_project(elem) if k % 2 == 0 else spec.p_project(elem)
            norm = np.linalg.norm(part)
            if norm < 1e-12:
                break
            stack[k] = part * (SEED_COEFF_NORM / norm)
        else:
            state = LaxState(stack, spec)
            try:
                tops = top_powers(stack[d], config.powers[-1])
                span = np.stack([
                    AlgebraElement(tops[r - 1], spec.space).matrix
                    for r in config.powers
                ])
                if admissible_span(span, spec, CARTAN_TOL):
                    return state, attempt
            except StructuralError:
                pass
    raise SeedingError(
        f"no Cartan seed found in {MAX_SEED_ATTEMPTS} attempts "
        "(signature/rank mismatch likely)"
    )


def build_report(states, frames_by_mu, h_field, config):
    """Compute every residual from the canonical arrays.

    Shared by run and verify so that verification reproduces the original
    residual values exactly.  The grid derivatives and the curvature
    formulas run without numpy's floating-point warnings: on an extreme grid
    (extents near the float64 range) they overflow, and a residual left
    non-finite raises a ``NumericalError`` that names it and its mu, so
    report.json never holds a NaN or an infinity.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = _residual_report(states, frames_by_mu, h_field, config)
    _require_finite(report)
    return report


def _require_finite(report):
    """Raise ``NumericalError`` at the first non-finite residual of a report.

    The per-mu tables are scanned first, so the error names the mu of a
    non-finite value that a maximum over the samples carries into a scalar.
    """
    residuals, geometry = report["residuals"], report["geometry"]
    leaves = []
    for name, value in residuals.items():
        if isinstance(value, dict):  # mc, conservation, group_drift
            for mu, per_mu in value.items():
                for leaf in per_mu.values() if isinstance(per_mu, dict) else (per_mu,):
                    leaves.append((name, mu, leaf))
    for mu, entry in geometry["per_mu"].items():
        leaves += [(name, mu, value) for name, value in entry.items()]
    leaves += [(n, None, v) for n, v in residuals.items() if not isinstance(v, dict)]
    leaves += [(n, None, v) for n, v in geometry.get("curve", {}).items()]
    for name, mu, value in leaves:
        if not math.isfinite(value):
            at = "" if mu is None else f" at mu={mu}"
            raise NumericalError(f"non-finite residual {name}{at}: {value}")


def _residual_report(states, frames_by_mu, h_field, config):
    """The report of ``build_report``, before its finiteness check."""
    spec, family, grid = config.spec, config.family, config.grid
    tol = config.tolerances
    sol = GridSolution(states, grid, family, spec)
    conn = connection_from_state(sol)

    residuals = {}
    checks = {}

    def gate(name, value, tol_key):
        residuals[name] = value
        checks[name] = {
            "value": value,
            "tolerance": tol[tol_key],
            "pass": bool(value <= tol[tol_key]),
        }

    gate("lax_twist", sol.max_twist_residual(), "twist")

    if grid.dims >= 2:
        mc_values = {
            mu_key(mu): mc_residual(conn, mu, grid)
            for mu in [0.0] + config.mu_samples
        }
        residuals["mc"] = mc_values
        gate("mc_max", max(mc_values.values()), "mc")
    gate("abelian", abelian_residual(conn), "abelian")

    cons = conservation_report(sol, config.mu_samples, max_power=4)
    residuals["conservation"] = {
        mu_key(mu): {str(p): v for p, v in table.items()}
        for mu, table in cons["table"].items()
    }
    gate("conservation_max", cons["max"], "conservation")

    if grid.dims >= 2:
        comm = commutativity_check(
            sol.state_at((0,) * grid.dims), family, grid.extents,
            config.commutativity_steps,
        )
        gate("commutativity", comm, "commutativity")

    drift = {mu_key(mu): frames_by_mu[mu].max_drift for mu in config.mu_samples}
    residuals["group_drift"] = drift
    gate("group_drift_max", max(drift.values()), "group_drift")
    h_drift = in_group_residual(h_field, spec.space)
    gate("gauge_drift", h_drift, "group_drift")

    geometry = {"status": "ok", "per_mu": {}}
    flags = []
    if not spec.k_block_definite():
        geometry["status"] = "skipped-indefinite"
        flags.append("indefinite-isotropy")
    elif h_drift > tol["group_drift"]:
        geometry["status"] = "invalid-gauge"
        flags.append("invalid-gauge")
    else:
        gauge = gauge_from_h(conn, h_field, spec)
        dev = developing_map(gauge, grid, closedness_tol=tol["closedness"])
        gate("closedness", dev.closedness_residual, "closedness")
        gate("isometry", dev.isometry_residual, "isometry")
        try:
            unit_worst = 0.0
            kernel_worst = 0.0
            for mu in config.mu_samples:
                im = reconstruct_immersion(gauge, frames_by_mu[mu], spec)
                unit_worst = max(unit_worst, im.unit_residual)
                kernel_worst = max(kernel_worst, im.kernel_residual)
                entry = {"degenerate_fraction": im.degenerate_fraction}
                if im.degenerate_fraction > 0:
                    flags.append(f"degenerate-nodes-mu-{mu_key(mu)}")
                if grid.dims == 2:
                    entry.update(verify_space_form_geometry(im, grid))
                geometry["per_mu"][mu_key(mu)] = entry
            gate("unit_quadric", unit_worst, "unit_quadric")
            gate("kernel", kernel_worst, "kernel")
            if grid.dims == 2:
                gate(
                    "gauss_curvature",
                    max(
                        e["gauss_curvature_max_error"]
                        for e in geometry["per_mu"].values()
                    ),
                    "gauss_curvature",
                )
                gate(
                    "normal_curvature",
                    max(
                        e["normal_curvature_residual"]
                        for e in geometry["per_mu"].values()
                    ),
                    "normal_curvature",
                )
                gate(
                    "ii_offdiag",
                    max(e["ii_offdiag_ratio"] for e in geometry["per_mu"].values()),
                    "ii_offdiag",
                )
        except NonImmersiveError:
            geometry["status"] = "non-immersive"
            geometry["per_mu"] = {}
            flags.append("non-immersive")
        if grid.dims == 1 and spec.dim == 3 and spec.space.is_definite:
            diag = curve_diagnostics(
                frames_by_mu[config.mu_samples[0]], conn, grid,
                config.mu_samples[0],
            )
            geometry["curve"] = {
                "speed_mean": float(np.mean(diag["speed"])),
                "speed_std": float(np.std(diag["speed"])),
                "kappa_mean": float(np.mean(diag["geodesic_curvature"])),
                "kappa_std": float(np.std(diag["geodesic_curvature"])),
            }

    report = {
        "schema": 1,
        "config_hash": config.hash(),
        "preset": config.preset,
        "signature": [spec.space.pos, spec.space.neg],
        "split": list(spec.split),
        "rank": spec.rank,
        "d": config.d,
        "powers": config.powers,
        "grid": {"extents": list(grid.extents), "nodes": list(grid.nodes)},
        "mu_samples": config.mu_samples,
        "residuals": residuals,
        "checks": checks,
        "geometry": geometry,
        "flags": sorted(set(flags)),
        "pass": all(c["pass"] for c in checks.values()),
    }
    return report


def write_json(path, obj):
    """Write ``obj`` as indented strict JSON: a NaN or an infinity raises
    ``ValueError`` instead of becoming a token that JSON parsers reject."""
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def _format_rows(fmt, table):
    """The text ``np.savetxt(fh, table, fmt=fmt)`` writes, as one ``%``
    format over the whole 2-D ``table``."""
    return ((fmt + "\n") * len(table)) % tuple(table.ravel().tolist())


def obj_faces(grid):
    """The ``f %d %d %d`` lines of a 2-D grid's mesh: two triangles per cell,
    1-based vertex ids in C order.  They are the same for every mu."""
    n0, n1 = grid.nodes
    vid = np.arange(n0 * n1).reshape(n0, n1) + 1
    a, b = vid[:-1, :-1].ravel(), vid[1:, :-1].ravel()
    c, d = vid[1:, 1:].ravel(), vid[:-1, 1:].ravel()
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return _format_rows("f %d %d %d", faces)


def write_phi_text(out_dir, config, phis_by_mu):
    """Write ``phi.csv`` and, on a 2-D grid, one ``mesh_XX.obj`` per mu, as
    ``config.outputs`` enables them.

    ``phi.csv`` has one row per (mu, node), nodes in C order: coordinates,
    mu, phi.  A mesh has the vertices phi[obj_coords] per node in C order and
    two triangles per cell.  Both are byte-identical to ``np.savetxt`` with
    ``%.17g`` (``,``-delimited for the CSV, ``v %.17g %.17g %.17g`` and
    ``f %d %d %d`` lines for a mesh).  Each phi value is formatted once, in
    the columns the enabled outputs write; the CSV rows and vertex lines are
    built from those strings with ``%s`` (formatted numbers hold no ``%`` or
    ``,``).  The text of at most TEXT_ROWS nodes is held at a time.
    """
    out_dir = Path(out_dir)
    grid, n = config.grid, config.spec.dim
    csv = config.outputs["csv"]
    obj = config.outputs["obj"] and grid.dims == 2
    if not (csv or obj):
        return
    columns = list(range(n)) if csv else list(config.obj_coords)
    picks = list(config.obj_coords) if csv else [0, 1, 2]
    with open(out_dir / "phi.csv", "w") if csv else contextlib.nullcontext() as fh:
        if csv:
            header = (
                [f"x{i + 1}" for i in range(grid.dims)]
                + ["mu"]
                + [f"phi_{i + 1}" for i in range(n)]
            )
            fh.write(",".join(header) + "\n")
            coords = np.indices(grid.nodes).reshape(grid.dims, -1).T * grid.steps
            prefixes = _format_rows("%.17g," * grid.dims, coords).splitlines()
            phi_fmt = ",".join(["%s"] * n) + "\n"
        if obj:
            faces = obj_faces(grid)
            config_hash = config.hash()
        for i, mu in enumerate(config.mu_samples):
            phi = phis_by_mu[mu].reshape(-1, n)[:, columns]
            if csv:
                tail = "%.17g," % mu + phi_fmt
            path = out_dir / f"mesh_{i:02d}.obj"
            with open(path, "w") if obj else contextlib.nullcontext() as mesh:
                if obj:
                    mesh.write("\n".join([
                        "# curved-flat reconstruction mesh",
                        f"# config sha256: {config_hash}",
                        f"# mu: {mu:.17g}",
                    ]) + "\n")
                for start in range(0, len(phi), TEXT_ROWS):
                    rows = phi[start:start + TEXT_ROWS]
                    values = tuple(rows.ravel().tolist())
                    cells = ("%.17g," * len(values) % values).split(",")
                    cells.pop()  # the empty string after the last ","
                    if csv:
                        lines = prefixes[start:start + len(rows)]
                        fh.write("".join([p + tail for p in lines]) % tuple(cells))
                    if obj:
                        vertices = [None] * (3 * len(rows))
                        for k, col in enumerate(picks):
                            vertices[k::3] = cells[col::len(columns)]
                        mesh.write("v %s %s %s\n" * len(rows) % tuple(vertices))
                if obj:
                    mesh.write(faces)


def save_arrays(path, arrays):
    """Write ``arrays`` (name -> array) to the npz archive ``path``.

    Member for member the same bytes as ``np.savez_compressed(path,
    **arrays)``: one deflated ``<name>.npy`` per array, forced zip64, with
    the header numpy writes.  The data go to the deflater as slices of at
    most NPZ_CHUNK bytes of the array's own buffer, so a C- or F-contiguous
    array is never copied; any other is made C-contiguous first.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for key, val in arrays.items():
            val = np.asarray(val)
            header = np.lib.format.header_data_from_array_1_0(val)
            # An F-order array's bytes are the C-order bytes of its transpose.
            val = val.T if header["fortran_order"] else np.ascontiguousarray(val)
            data = memoryview(val.reshape(-1).view(np.uint8))
            with archive.open(key + ".npy", "w", force_zip64=True) as fid:
                np.lib.format.write_array_header_1_0(fid, header)
                for start in range(0, data.nbytes, NPZ_CHUNK):
                    fid.write(data[start:start + NPZ_CHUNK])


def _frames_and_gauge(config, sol):
    """The frame field of every mu sample and the gauge H of a filled grid.

    The connection and the gauge object stay local, so they are freed
    before the report and the artifacts are built.
    """
    spec, grid = config.spec, config.grid
    conn = connection_from_state(sol)
    fields = integrate_frame(conn, config.mu_samples, grid)
    if spec.k_block_definite():
        h_field = gauge_to_normal_form(conn, spec).h
    else:
        h_field = np.broadcast_to(
            np.eye(spec.dim), grid.nodes + (spec.dim, spec.dim)
        ).copy()
    return fields, h_field


def run_pipeline(config, out_dir):
    """Run the full pipeline and write artifacts.  Returns (report, exit_code)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = config.grid

    xi0, attempts = seed_initial_state(config)
    sol = integrate_grid(xi0, config.family, grid, substeps=config.substeps)
    fields, h_field = _frames_and_gauge(config, sol)
    frames_by_mu = dict(zip(config.mu_samples, fields))

    report = build_report(sol.states, frames_by_mu, h_field, config)
    report["seed_attempts"] = attempts

    save_arrays(out_dir / "arrays.npz", {
        "states": sol.states,
        # Every field is a view into the one (len(mus), *nodes, n, n) array.
        "frames": fields[0].frames.base,
        "gauge_h": h_field,
        "mu_samples": np.asarray(config.mu_samples),
    })
    write_json(out_dir / "config.json", config.raw)
    if config.outputs["report"]:
        write_json(out_dir / "report.json", report)
    if config.outputs["csv"] or config.outputs["obj"]:
        h_inv = np.swapaxes(h_field, -1, -2)
        # Column 0 of each product is copied out, so the full product is
        # not held.
        phis = {
            mu: np.ascontiguousarray((frames_by_mu[mu].frames @ h_inv)[..., :, 0])
            for mu in config.mu_samples
        }
        # The text needs phi alone: the grid fields are freed before it.
        del sol, fields, frames_by_mu, h_field, h_inv
        write_phi_text(out_dir, config, phis)
    return report, 0 if report["pass"] else 1


def verify_command(out_dir):
    """Recompute all residuals from stored artifacts; idempotent.

    A run whose config says ``outputs.report: false`` wrote no report.json;
    its residuals are recomputed and gated with ``verified_against: null``.
    """
    def artifact(name):
        path = Path(out_dir) / name
        if not path.exists():
            raise MissingArtifactError(f"missing artifact: {path}")
        return path

    try:
        config = RunConfig(json.loads(artifact("config.json").read_text()))
        stored = None
        if config.outputs["report"]:
            stored = json.loads(artifact("report.json").read_text())
            if not isinstance(stored, dict):
                raise ValueError("report.json does not hold a JSON object")
        with np.load(artifact("arrays.npz")) as arrays:
            states = arrays["states"]
            frames = arrays["frames"]
            h_field = arrays["gauge_h"]
            mus = [float(v) for v in arrays["mu_samples"]]
    except (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile,
            zlib.error) as err:
        raise MissingArtifactError(f"corrupt artifacts: {err}") from err
    if mus != config.mu_samples:
        raise MissingArtifactError("stored mu samples disagree with config")
    nodes, n = config.grid.nodes, config.spec.dim
    for name, value, shape in (
        ("states", states, nodes + (config.d + 1, n, n)),
        ("frames", frames, (len(mus),) + nodes + (n, n)),
        ("gauge_h", h_field, nodes + (n, n)),
    ):
        if value.shape != shape:
            raise MissingArtifactError(
                f"stored {name} has shape {value.shape}, config implies {shape}"
            )

    frames_by_mu = {
        mu: FrameField(mu, f, config.grid, config.spec,
                       in_group_residual(f, config.spec.space))
        for mu, f in zip(config.mu_samples, frames)
    }
    report = build_report(states, frames_by_mu, h_field, config)
    report["verified_against"] = None if stored is None else stored.get("config_hash")
    matches = stored is None or report["verified_against"] == report["config_hash"]
    return report, 0 if report["pass"] and matches else 1


def _cmd_run(args):
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out = Path(args.out)
    config = None
    try:
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON in {path}: {err}") from err
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"unreadable config {path}: {err}") from err
        config = RunConfig(raw)
        report, code = run_pipeline(config, out)
    except Exception as err:
        out.mkdir(parents=True, exist_ok=True)
        error = {"category": type(err).__name__, "message": str(err)}
        node = getattr(err, "node", None)
        if node is not None:
            error["node"] = [int(i) for i in node]
        failure = {
            "schema": 1,
            "config_hash": None if config is None else config.hash(),
            "pass": False,
            "error": error,
        }
        write_json(out / "report.json", failure)
        raise
    print(json.dumps({k: report[k] for k in ("config_hash", "pass", "flags")}))
    return code


def _cmd_verify(args):
    report, code = verify_command(args.run_dir)
    failing = sorted(k for k, c in report["checks"].items() if not c["pass"])
    print(json.dumps({"pass": report["pass"], "failing": failing}))
    return code


def _cmd_presets(_args):
    for name in preset_names():
        spec = make_preset(name)
        print(
            f"{name:22s} signature=({spec.space.pos},{spec.space.neg}) "
            f"split={spec.split} rank={spec.rank}  {describe(name)}"
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="curvedflats",
        description="Construct and verify curved flats from commuting Lax flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the pipeline from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--out", default="run_out", help="output directory")
    p_run.set_defaults(func=_cmd_run)
    p_ver = sub.add_parser("verify", help="recheck a finished run directory")
    p_ver.add_argument("run_dir")
    p_ver.set_defaults(func=_cmd_verify)
    p_pre = sub.add_parser("presets", help="list named symmetric-space presets")
    p_pre.set_defaults(func=_cmd_presets)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StructuralError, MissingArtifactError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except CurvedFlatsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception:
        # A defect of the program, not of the input: exit 1 must keep meaning
        # "tolerance failure", so report it as a failed run.
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
