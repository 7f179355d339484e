"""Configuration-driven pipeline: seed -> Lax grid -> connection -> frames
-> geometry -> report and mesh export.

Exit codes: 0 all residuals within tolerance, 1 tolerance failure,
2 structural/config error, 3 numerical blow-up or degeneracy.
"""

import contextlib
import json
import math
import numbers
import re
import sys
import zipfile
import zlib
from functools import lru_cache
from pathlib import Path

import numpy as np

from .algebra import BilinearSpace, SymmetricSpaceSpec, in_group_residual
from .errors import (
    ConfigError,
    CurvedFlatsError,
    MissingArtifactError,
    NonImmersiveError,
    NumericalError,
    SeedingError,
    StructuralError,
)
from .frame import abelian_residual, connection_from_state, integrate_frame, mc_residual
from .geometry import (
    admissible_span,
    curve_diagnostics,
    developing_map,
    gauge_from_h,
    gauge_to_normal_form,
    reconstruct_immersion,
    verify_space_form_geometry,
)
from .lax import GridSpec, commutativity_check, conservation_report, integrate_grid
from .loops import FlowFamily, LaxState, top_powers, twist_residual
from .presets import describe, make_preset, preset_names
from . import algebra

SEED_COEFF_NORM = 0.75
MAX_SEED_ATTEMPTS = 1000
# Largest piece of an array's bytes that save_arrays hands to the compressor.
NPZ_CHUNK = 1 << 20
# The zlib level of every deflated member of arrays.npz (see save_arrays).
NPZ_LEVEL = 2
# The member of arrays.npz written uncompressed (see save_arrays).
STORED_MEMBER = "frames"
# Nodes whose phi text write_phi_text formats and writes at a time.
TEXT_ROWS = 256
# Distinct spaces whose spec RunConfigs share (see shared_spec).
SHARED_SPECS = 16
# verify's seed_origin anchor passes when the stored states at the origin are
# within this many eps * max(1, max|xi0|) of the recomputed seed: the seed's
# BLAS calls round differently on other kernels than the run's.
SEED_ORIGIN_ULPS = 16

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


@lru_cache(maxsize=SHARED_SPECS)
def shared_spec(preset, m, n, signature, split, rank):
    """The one spec of a space in this process: ``make_preset(preset, m, n)``
    for a named preset, else the explicit ``signature``/``split``/``rank``
    space.  Every RunConfig of one space shares it, and with it the Cartan
    verdicts ``is_cartan`` caches on it, so a ``verify`` after a ``run`` in
    one process answers the seed's span test from the run's verdict.  A
    verdict is the one the test gave for the same bytes, so sharing changes
    no result; an invalid space raises and is not kept."""
    if preset is not None:
        return make_preset(preset, m, n)
    return SymmetricSpaceSpec(BilinearSpace(*signature), split, rank)


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
        # Only an absent key or null takes the default; a falsy value is checked.
        given = {k: v for k, v in merged.items() if v is not None}
        for key in ("powers", "extents", "nodes", "mu_samples"):
            if not isinstance(merged[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {merged[key]!r}")
        for key in ("outputs", "tolerances"):
            if not isinstance(given.get(key, {}), dict):
                raise ConfigError(f"{key} must be an object, got {merged[key]!r}")

        self.preset = merged.get("preset")
        if self.preset is not None and not isinstance(self.preset, str):
            raise ConfigError(f"preset must be a name or null, got {self.preset!r}")
        other = ("m", "n") if self.preset is None else ("signature", "split", "rank")
        ignored = [key for key in other if key in given]
        if ignored:
            raise ConfigError(
                f"{ignored} cannot be used with preset {self.preset!r}: m/n size "
                "a named preset, signature/split/rank define the space when it is null"
            )
        if self.preset is not None:
            m, n = (_integral(k, merged[k], 0) if k in given else None
                    for k in ("m", "n"))
            self.spec = shared_spec(self.preset, m, n, None, None, None)
        else:
            for key in ("signature", "split", "rank"):
                if key not in given:
                    raise ConfigError(f"explicit spec requires {key!r}")
            self.spec = shared_spec(
                None, None, None,
                tuple(_integers("signature", merged["signature"], 2, 0)),
                tuple(_integers("split", merged["split"], 2, 1)),
                _integral("rank", merged["rank"], 1),
            )

        d = _integral("d", merged["d"], 1)
        powers = [_integral("powers", r, 1) for r in merged["powers"]]
        self.family = FlowFamily(powers, d)

        extents = [_real("extents", v) for v in merged["extents"]]
        nodes = [_integral("nodes", v, 2) for v in merged["nodes"]]
        if len(extents) != len(powers) or len(nodes) != len(powers):
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

        outputs = given.get("outputs", {})
        bad = set(outputs) - _KNOWN_OUTPUTS
        if bad:
            raise ConfigError(f"unknown output flags: {sorted(bad)}")
        if not all(isinstance(v, bool) for v in outputs.values()):
            raise ConfigError(f"output flags must be true or false: {outputs}")
        self.outputs = {k: outputs.get(k, True) for k in _KNOWN_OUTPUTS}

        tol = dict(DEFAULT_TOLERANCES)
        overrides = given.get("tolerances", {})
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
            _integers("obj_coords", given.get("obj_coords", [0, 1, 2]), 3, 0)
        )
        if any(c >= self.spec.dim for c in self.obj_coords):
            raise ConfigError(f"obj_coords out of range: {self.obj_coords}")
        self.commutativity_steps = _integral(
            "commutativity_steps", merged["commutativity_steps"], 1
        )

    def hash(self):
        import hashlib  # only the hash uses it: not paid at import

        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def seed_initial_state(config):
    """Draw an admissible seed state (or validate an explicit one).

    Rejection sampling accepts a candidate when the p-parts of its
    connection at the origin pass the gauge's ``admissible_span`` test; with
    generic seeds the first draw almost always passes.  Returns
    (state, attempts).
    """
    spec, powers = config.spec, config.family.powers
    n, d = spec.dim, config.family.d
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
            # Odd powers of the p-element xi_d have exact-zero k-blocks, so
            # the span test never finds an element outside p.
            tops = top_powers(stack[d], powers[-1])
            if admissible_span(np.stack([tops[r - 1] for r in powers]), spec):
                return state, attempt
    raise SeedingError(
        f"no Cartan seed found in {MAX_SEED_ATTEMPTS} attempts "
        "(signature/rank mismatch likely)"
    )


def build_report(states, frames, h_field, config):
    """Compute every residual from the canonical arrays: the Lax states, the
    frames (len(mu_samples), *nodes, n, n) and the gauge H.

    Shared by run and verify so that verification reproduces the original
    residual values exactly.  It runs without numpy's floating-point
    warnings: on extents near the float64 range the grid derivatives and
    the curvature formulas overflow.  Each value is tested where it is
    recorded, so the first non-finite one in computation order raises a
    ``NumericalError`` that names it and, in a per-mu table, its mu, and
    report.json never holds a NaN or an infinity.
    """
    spec, family, grid, tol = config.spec, config.family, config.grid, config.tolerances
    residuals, checks = {}, {}

    def finite(name, value, mu=None):
        if not math.isfinite(value):
            at = "" if mu is None else f" at mu={mu_key(mu)}"
            raise NumericalError(f"non-finite residual {name}{at}: {value}")
        return value

    def gate(name, value, tol_key):
        residuals[name] = finite(name, value)
        checks[name] = {
            "value": value,
            "tolerance": tol[tol_key],
            "pass": bool(value <= tol[tol_key]),
        }

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        conn = connection_from_state(states, family, grid, spec)
        gate("lax_twist", twist_residual(states, 0, spec), "twist")

        if grid.dims >= 2:
            residuals["mc"] = {
                mu_key(mu): finite("mc", mc_residual(conn, mu), mu)
                for mu in [0.0] + config.mu_samples
            }
            gate("mc_max", max(residuals["mc"].values()), "mc")
            # Only this table reads the coefficient fields: free them before
            # the geometry, which sets the report's peak memory.
            del conn.curvature_coefficients
        gate("abelian", abelian_residual(conn), "abelian")

        # tr xi^p for even p up to 2 floor(n/2) span the invariants of so(J)
        # (n = 7 adds tr xi^6); 4 stays the least, so no run loses a row.
        max_power = max(4, 2 * (spec.dim // 2))
        cons = conservation_report(states, config.mu_samples, max_power=max_power)
        residuals["conservation"] = {
            mu_key(mu): {str(p): finite("conservation", v, mu) for p, v in row.items()}
            for mu, row in cons["table"].items()
        }
        gate("conservation_max", cons["max"], "conservation")

        if grid.dims >= 2:
            origin = LaxState(states[(0,) * grid.dims], spec, check=False)
            comm = commutativity_check(
                origin, family, grid.extents, config.commutativity_steps
            )
            gate("commutativity", comm, "commutativity")

        residuals["group_drift"] = {
            mu_key(mu): finite("group_drift", in_group_residual(f, spec.space), mu)
            for mu, f in zip(config.mu_samples, frames)
        }
        gate("group_drift_max", max(residuals["group_drift"].values()), "group_drift")
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
            gauge = gauge_from_h(conn, h_field)
            dev = developing_map(gauge, closedness_tol=tol["closedness"])
            gate("closedness", dev.closedness_residual, "closedness")
            gate("isometry", dev.isometry_residual, "isometry")
            worst = {}  # immersion gate (and tolerance key) -> worst over mu
            try:
                for mu, f in zip(config.mu_samples, frames):
                    im = reconstruct_immersion(gauge, f, mu)
                    values = [("unit_quadric", im.unit_residual),
                              ("kernel", im.kernel_residual)]
                    entry = {"degenerate_fraction": im.degenerate_fraction}
                    if im.degenerate_fraction > 0:
                        flags.append(f"degenerate-nodes-mu-{mu_key(mu)}")
                    if grid.dims == 2:
                        entry.update(verify_space_form_geometry(im))
                        values += [
                            ("gauss_curvature", entry["gauss_curvature_max_error"]),
                            ("normal_curvature", entry["normal_curvature_residual"]),
                            ("ii_offdiag", entry["ii_offdiag_ratio"]),
                        ]
                    geometry["per_mu"][mu_key(mu)] = {
                        name: finite(name, v, mu) for name, v in entry.items()
                    }
                    for name, v in values:
                        worst[name] = max(worst.get(name, 0.0), finite(name, v, mu))
            except NonImmersiveError:
                geometry["status"] = "non-immersive"
                geometry["per_mu"] = {}
                flags.append("non-immersive")
            else:
                for name, v in worst.items():
                    gate(name, v, name)
            if grid.dims == 1 and spec.dim == 3 and spec.space.is_definite:
                mu = config.mu_samples[0]
                diag = curve_diagnostics(frames[0], mu, conn)
                curve = {
                    "speed_mean": float(np.mean(diag["speed"])),
                    "speed_std": float(np.std(diag["speed"])),
                    "kappa_mean": float(np.mean(diag["geodesic_curvature"])),
                    "kappa_std": float(np.std(diag["geodesic_curvature"])),
                }
                geometry["curve"] = {k: finite(k, v, mu) for k, v in curve.items()}

    return {
        "schema": 1,
        "config_hash": config.hash(),
        "preset": config.preset,
        "signature": [spec.space.pos, spec.space.neg],
        "split": list(spec.split),
        "rank": spec.rank,
        "d": family.d,
        "powers": list(family.powers),
        "grid": {"extents": list(grid.extents), "nodes": list(grid.nodes)},
        "mu_samples": config.mu_samples,
        "residuals": residuals,
        "checks": checks,
        "geometry": geometry,
        "flags": sorted(set(flags)),
        "pass": all(c["pass"] for c in checks.values()),
    }


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

    One ``<name>.npy`` per array, forced zip64, with the header numpy
    writes, so ``np.load`` reads what ``np.savez_compressed(path, **arrays)``
    would: every member has its name, CRC and decoded bytes.  The
    STORED_MEMBER is ``ZIP_STORED``: float64 frames hold almost no repeated
    byte strings, so deflate shrinks them by about 5% while ``verify`` would
    spend as long inflating them as it spends on all its other reading.
    Every other member is deflated at zlib level NPZ_LEVEL, not numpy's 6:
    on the states of a 33^2 run that halves the time for 3% more bytes.
    Its coded bytes are those of a raw deflate of the ``.npy`` bytes at that
    level, and any zip reader inflates it.  The data go to the archive as
    slices of at most NPZ_CHUNK bytes of the array's own buffer, so a C- or
    F-contiguous array is never copied; any other is made C-contiguous
    first.
    """
    with zipfile.ZipFile(
        path, "w", zipfile.ZIP_DEFLATED, compresslevel=NPZ_LEVEL
    ) as archive:
        for key, val in arrays.items():
            val = np.asarray(val)
            header = np.lib.format.header_data_from_array_1_0(val)
            # An F-order array's bytes are the C-order bytes of its transpose.
            val = val.T if header["fortran_order"] else np.ascontiguousarray(val)
            data = memoryview(val.reshape(-1).view(np.uint8))
            member = key + ".npy"
            if key == STORED_MEMBER:
                member = zipfile.ZipInfo(member)
                member.compress_type = zipfile.ZIP_STORED
            with archive.open(member, "w", force_zip64=True) as fid:
                np.lib.format.write_array_header_1_0(fid, header)
                for start in range(0, data.nbytes, NPZ_CHUNK):
                    fid.write(data[start:start + NPZ_CHUNK])


def _frames_and_gauge(config, states):
    """The frames (len(mu_samples), *nodes, n, n) and the gauge H of the
    Lax states of a filled grid.

    The connection and the gauge object stay local, so they are freed
    before the report and the artifacts are built.
    """
    spec, grid = config.spec, config.grid
    conn = connection_from_state(states, config.family, grid, spec)
    frames = integrate_frame(conn, config.mu_samples)
    if spec.k_block_definite():
        h_field = gauge_to_normal_form(conn).h
    else:
        h_field = np.broadcast_to(
            np.eye(spec.dim), grid.nodes + (spec.dim, spec.dim)
        ).copy()
    return frames, h_field


def _remove_stale_outputs(out_dir, config=None):
    """Delete the files in ``out_dir`` that an earlier run wrote and this
    run will not overwrite: ``report.json`` and ``phi.csv`` when their output
    is off, and every ``mesh_NN.obj`` past this run's meshes.  A failed run
    (``config`` None) writes only its error report, so ``arrays.npz``,
    ``config.json``, ``phi.csv`` and every mesh go.  Only names this program
    writes are touched."""
    if config is None:
        stale, meshes = ["arrays.npz", "config.json", "phi.csv"], 0
    else:
        outputs = config.outputs
        meshes = len(config.mu_samples) if outputs["obj"] and config.grid.dims == 2 else 0
        stale = [name for name, keep in (("report.json", outputs["report"]),
                                         ("phi.csv", outputs["csv"])) if not keep]
    for path in out_dir.glob("mesh_*.obj"):
        # The names f"mesh_{i:02d}.obj" gives: not "mesh_1.obj", "mesh_003.obj".
        match = re.fullmatch(r"mesh_(\d\d|[1-9]\d\d+)\.obj", path.name)
        if match and int(match[1]) >= meshes:
            stale.append(path.name)
    for name in stale:
        (out_dir / name).unlink(missing_ok=True)


def run_pipeline(config, out_dir):
    """Run the full pipeline and write artifacts.  Returns (report, exit_code).

    Outputs an earlier run left in ``out_dir`` that this run does not write
    are removed first, so the directory holds one run's files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_stale_outputs(out_dir, config)
    grid = config.grid

    xi0, attempts = seed_initial_state(config)
    states = integrate_grid(xi0, config.family, grid, substeps=config.substeps)
    frames, h_field = _frames_and_gauge(config, states)

    report = build_report(states, frames, h_field, config)
    report["seed_attempts"] = attempts

    save_arrays(out_dir / "arrays.npz", {
        "states": states,
        "frames": frames,
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
            mu: np.ascontiguousarray((f @ h_inv)[..., :, 0])
            for mu, f in zip(config.mu_samples, frames)
        }
        # The text needs phi alone: the grid fields are freed before it.
        del states, frames, h_field, h_inv
        write_phi_text(out_dir, config, phis)
    return report, 0 if report["pass"] else 1


def _leaves(tree, path=()):
    """{path: value} of the values in nested dicts, each path the keys down
    to the value joined by "/"; a value that is not a dict is one leaf."""
    if not isinstance(tree, dict):
        return {"/".join(path): tree}
    leaves = {}
    for key, value in tree.items():
        leaves.update(_leaves(value, path + (str(key),)))
    return leaves


def verify_command(out_dir):
    """Recompute all residuals from stored artifacts; idempotent.

    A run whose config says ``outputs.report: false`` wrote no report.json;
    its residuals are recomputed and gated with ``verified_against: null``.
    A report.json with an ``error`` block is a MissingArtifactError, checked
    before any other artifact: the failed run left nothing else to verify.
    ``changed_residuals`` lists the path ("mc/0.6", say) of each residual
    whose recomputed value differs from report.json's, or that only one of
    them holds (null without a report.json).  It names what changed and
    leaves the exit code alone.  ``anchors`` holds the checks that tie the
    stored files to each other and to what a run sets: ``frames_origin``,
    that every ``frames[mu]`` at the origin is exactly I, with the keys of
    the samples where it is not; ``seed_origin``, that the stored states at
    the origin are the config's seed (``seed_initial_state``, the explicit
    ``xi0`` when one is given) to within SEED_ORIGIN_ULPS, with their
    ``max_abs_diff``; and ``stored_report``, that report.json's config hash
    and geometry status are the recomputed ones (it passes without a
    report.json).  A broken anchor exits 1.
    """
    def artifact(name):
        path = Path(out_dir) / name
        if not path.exists():
            raise MissingArtifactError(f"missing artifact: {path}")
        return path

    try:
        stored = None
        # A failed run writes report.json whatever its outputs say, and
        # removes every other file of an earlier run: check it first.
        if (Path(out_dir) / "report.json").exists():
            stored = json.loads(artifact("report.json").read_text())
            if not isinstance(stored, dict):
                raise ValueError("report.json does not hold a JSON object")
            if "error" in stored:
                error = stored["error"]
                category = error.get("category") if isinstance(error, dict) else error
                raise MissingArtifactError(
                    f"report.json records a failed run ({category})"
                )
        config = RunConfig(json.loads(artifact("config.json").read_text()))
        if not config.outputs["report"]:
            stored = None
        elif stored is None:
            artifact("report.json")  # the config says it was written
        with np.load(artifact("arrays.npz")) as arrays:
            states = arrays["states"]
            frames = arrays["frames"]
            h_field = arrays["gauge_h"]
            stored_mus = arrays["mu_samples"]
    except (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile,
            zlib.error) as err:
        raise MissingArtifactError(f"corrupt artifacts: {err}") from err
    nodes, n, mus = config.grid.nodes, config.spec.dim, config.mu_samples
    for name, value, shape in (
        ("mu_samples", stored_mus, (len(mus),)),
        ("states", states, nodes + (config.family.d + 1, n, n)),
        ("frames", frames, (len(mus),) + nodes + (n, n)),
        ("gauge_h", h_field, nodes + (n, n)),
    ):
        if value.shape != shape:
            raise MissingArtifactError(
                f"stored {name} has shape {value.shape}, config implies {shape}"
            )
        # A run writes float64; another dtype would be cast on the way in.
        if value.dtype != np.float64:
            raise MissingArtifactError(
                f"stored {name} has dtype {value.dtype}, a run writes float64"
            )
    if stored_mus.tolist() != mus:
        raise MissingArtifactError("stored mu samples disagree with config")

    report = build_report(states, frames, h_field, config)
    report["verified_against"] = None if stored is None else stored.get("config_hash")
    report["changed_residuals"] = None
    matches = True
    if stored is not None:
        theirs = stored.get("residuals")
        theirs = _leaves(theirs if isinstance(theirs, dict) else {})
        mine = _leaves(report["residuals"])
        report["changed_residuals"] = sorted(
            path for path in mine.keys() | theirs.keys()
            if path not in mine or path not in theirs or mine[path] != theirs[path]
        )
        # The geometry status is not a check, so a changed one (arrays that
        # no longer reconstruct an immersion, say) fails here.
        geometry = stored.get("geometry")
        status = geometry.get("status") if isinstance(geometry, dict) else None
        matches = (report["verified_against"] == report["config_hash"]
                   and report["geometry"]["status"] == status)
    # integrate_frame sets each frame at the origin to I, not computes it.
    origin = frames[(slice(None),) + (0,) * config.grid.dims]
    off = [mu_key(mu) for mu, f in zip(mus, origin) if not np.array_equal(f, np.eye(n))]
    # A run stores its seed as the states at the origin.
    seed = seed_initial_state(config)[0].stack
    diff = float(np.max(np.abs(states[(0,) * config.grid.dims] - seed)))
    scale = max(1.0, float(np.max(np.abs(seed))))
    bound = SEED_ORIGIN_ULPS * sys.float_info.epsilon * scale
    report["anchors"] = {
        "frames_origin": {"pass": not off, "mu": off},
        "seed_origin": {"pass": diff <= bound, "max_abs_diff": diff},
        "stored_report": {"pass": matches},
    }
    anchored = all(anchor["pass"] for anchor in report["anchors"].values())
    return report, 0 if report["pass"] and anchored else 1


def _cmd_run(args):
    path = Path(args.config)
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
        # Files an earlier run left here would pass as this run's outputs.
        _remove_stale_outputs(out)
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
    anchors = report["anchors"]
    broken = sorted(name for name, anchor in anchors.items() if not anchor["pass"])
    print(json.dumps({"pass": code == 0, "failing": failing, "broken_anchors": broken}))
    if not anchors["frames_origin"]["pass"]:
        print("verify: broken anchor frames_origin: the stored frames at the"
              " origin are not the identity at"
              f" mu={', '.join(anchors['frames_origin']['mu'])}", file=sys.stderr)
    if not anchors["seed_origin"]["pass"]:
        print("verify: broken anchor seed_origin: the stored states at the origin"
              " differ from the config's seed by"
              f" {anchors['seed_origin']['max_abs_diff']:.3g}", file=sys.stderr)
    if not anchors["stored_report"]["pass"]:
        print("verify: broken anchor stored_report: the recomputed config hash"
              " or geometry status differs from report.json's", file=sys.stderr)
    if report["changed_residuals"]:
        print("verify: recomputed residuals differ from report.json's: "
              + ", ".join(report["changed_residuals"]), file=sys.stderr)
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
    # Only the command line uses these: a library import does not pay them.
    import argparse
    import traceback

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
