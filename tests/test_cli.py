import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import zipfile
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import curvedflats.algebra as algebra
import curvedflats.cli as cli
import curvedflats.frame as frame
import curvedflats.geometry as geometry
from curvedflats.algebra import expm, in_group_residual
from curvedflats.cli import (
    RunConfig,
    default_config,
    NPZ_CHUNK,
    main,
    run_pipeline,
    save_arrays,
    seed_initial_state,
    verify_command,
)
from curvedflats.errors import ConfigError, MissingArtifactError, NonImmersiveError
from curvedflats.frame import ConnectionForm, connection_from_state
from curvedflats.geometry import gauge_to_normal_form
from curvedflats.lax import integrate_grid

from helpers import (
    from_offblock,
    greedy_gauge_h,
    kernel_case,
    savetxt_obj,
    savetxt_phi_csv,
    so3_spec,
)


EXPLICIT_SPEC = {"preset": None, "signature": [5, 0], "split": [3, 2], "rank": 2}


def small_config(**overrides):
    cfg = default_config()
    cfg.update(
        {
            "extents": [0.3, 0.3],
            "nodes": [9, 9],
            "mu_samples": [0.6, 1.0],
            "commutativity_steps": 8,
        }
    )
    cfg.update(overrides)
    return cfg


def vacuum_config():
    spec3 = so3_spec()
    x = from_offblock([[0.7, 0.0]], spec3).matrix
    return {
        "preset": "sphere",
        "m": 1,
        "n": 1,
        "d": 1,
        "powers": [1],
        "xi0": [np.zeros((3, 3)).tolist(), x.tolist()],
        "extents": [0.6],
        "nodes": [9],
        "substeps": 2,
        "mu_samples": [1.0],
        "seed": 1,
    }


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig({"bogus_key": 1})
    with pytest.raises(ConfigError):
        RunConfig(small_config(mu_samples=[0.0, 1.0]))
    with pytest.raises(ConfigError):
        RunConfig(small_config(mu_samples=[]))
    with pytest.raises(Exception):
        RunConfig(small_config(d=2))
    with pytest.raises(Exception):
        RunConfig(small_config(powers=[1, 2]))
    with pytest.raises(ConfigError):
        RunConfig(small_config(extents=[0.3]))
    with pytest.raises(ConfigError):
        RunConfig(small_config(tolerances={"nope": 1.0}))
    with pytest.raises(ConfigError):
        RunConfig(small_config(outputs={"widgets": True}))


# A JSON number literal beyond float range; the malformed-value test writes
# it unquoted, so json.loads reads it as inf.
OVERFLOW = "1e400"


@pytest.mark.parametrize(
    "override",
    [
        {"d": "x"},
        {"nodes": [33, 2.9]},
        {"nodes": [9, 2]},
        {"powers": [1, 3.5]},
        {"powers": 3},
        {"substeps": "4"},
        {"seed": 1.5},
        {"seed": -1},
        {"commutativity_steps": 0},
        {"extents": [0.3, "x"]},
        {"mu_samples": ["x"]},
        {"tolerances": {"mc": "x"}},
        {"tolerances": {"mc": float("nan")}},
        {"tolerances": ["mc"]},
        {"outputs": {"report": "no"}},
        {"m": "x"},
        {"obj_coords": [0, 1, "x"]},
        {"obj_coords": 5},
        {"xi0": "x"},
        dict(EXPLICIT_SPEC, signature=[5, "x"]),
        dict(EXPLICIT_SPEC, signature=5),
        dict(EXPLICIT_SPEC, split=3),
        dict(EXPLICIT_SPEC, split=["a", 2]),
        dict(EXPLICIT_SPEC, rank="x"),
        # Two samples with one report key: the second's residuals would
        # overwrite the first's and never be gated.
        {"mu_samples": [1.0, 1.0000001]},
        {"mu_samples": [1.0, 1.0]},
        # Keys of the other spec branch would be silently ignored.
        dict(EXPLICIT_SPEC, m=2),
        {"preset": "sphere-grassmannian", "signature": [5, 0]},
        {"split": [3, 2], "rank": 2},
        # The space-form checks of a 2D immersion need 5 nodes per axis.
        {"nodes": [4, 4]},
        {"nodes": [9, 4]},
        # Non-finite samples: json.loads reads Infinity, -Infinity and the
        # overflowing literal 1e400 as +-inf.
        {"mu_samples": [float("inf")]},
        {"mu_samples": [float("-inf")]},
        {"mu_samples": [1.0, OVERFLOW]},
        # A negative tolerance fails every gate: a config error, not exit 1.
        {"tolerances": {"mc": -1}},
        # An infinite tolerance and a NaN seed have no strict-JSON form.
        {"tolerances": {"mc": OVERFLOW}},
        {"xi0": np.full((4, 5, 5), np.nan).tolist()},
        # Only an absent key or null takes the default: a falsy value of the
        # wrong type is rejected like any other.
        {"outputs": False},
        {"outputs": []},
        {"tolerances": 0},
        {"tolerances": []},
        {"obj_coords": []},
        {"obj_coords": 0},
        {"obj_coords": False},
        # A preset is a name: a list or an object is not one.
        {"preset": ["sphere"]},
        {"preset": {"a": 1}},
    ],
)
def test_main_rejects_malformed_config_values(tmp_path, override):
    cfg_path = tmp_path / "bad.json"
    text = json.dumps(small_config(**override))
    cfg_path.write_text(text.replace(f'"{OVERFLOW}"', OVERFLOW))
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "o")]) == 2
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["error"]["category"] == "ConfigError"


@pytest.mark.parametrize(
    "powers,nodes,flags",
    [([1], [33], []), ([1, 3, 5], [5, 5, 5], ["non-immersive"])],
)
def test_seeded_run_with_flow_count_other_than_rank(tmp_path, powers, nodes, flags):
    # Seeding accepts the gauge's span test: one flow on a rank-2 space
    # traces a curve; three flows span the Cartan subspace but cannot
    # immerse a 3-dimensional grid into the 2-dimensional flat.
    cfg = {"preset": "sphere-grassmannian", "seed": 7, "powers": powers,
           "extents": [0.4] * len(nodes), "nodes": nodes,
           "commutativity_steps": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["flags"] == flags


def test_gauge_span_test_runs_once_per_distinct_span(tmp_path, monkeypatch):
    # A1 is a first integral, so the gauge asks is_cartan about one span (up
    # to signed zeros) at every node: the calls stay at gauge nodes + seed,
    # and only the seed's span and the distinct gauge spans run the test.
    calls = {"is_cartan": 0, "uncached": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(geometry, "is_cartan", counting(geometry.is_cartan, "is_cartan"))
    monkeypatch.setattr(
        algebra, "_cartan_verdict", counting(algebra._cartan_verdict, "uncached")
    )
    raw = dict(default_config(), nodes=[9, 9], mu_samples=[1.0],
               commutativity_steps=4)
    _, code = run_pipeline(RunConfig(raw), tmp_path / "o")
    assert code == 0
    assert calls["is_cartan"] == 9 * 9 + 1
    assert 1 <= calls["uncached"] <= 3


def test_report_computes_gauge_only_parts_once(monkeypatch):
    # The kernel residual, the normal-curvature defect and the inverse
    # psi-Jacobian read the gauge alone: with 3 mu samples each kernel runs
    # once per build_report, while the immersion and its checks run per mu.
    config, states, conn, frames = kernel_case("definite")
    h_field = gauge_to_normal_form(conn).h
    calls = Counter()

    def count(owner, name, key):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    count(geometry, "curvature_defect", "curvature_defect")
    for name in ("norm", "det", "inv"):
        count(np.linalg, name, name)
    for name in ("gauge_from_h", "reconstruct_immersion", "verify_space_form_geometry"):
        count(cli, name, name)
    report = cli.build_report(states, frames, h_field, config)
    assert report["pass"] and len(report["geometry"]["per_mu"]) == 3
    # Each mu's group drift is one scan of its frames.
    assert report["residuals"]["group_drift"] == {
        cli.mu_key(mu): in_group_residual(f, config.spec.space)
        for mu, f in zip(config.mu_samples, frames)
    }
    assert calls == {
        "gauge_from_h": 1, "curvature_defect": 1, "norm": 1, "det": 1, "inv": 1,
        "reconstruct_immersion": 3, "verify_space_form_geometry": 3,
    }
    # so(5) has two invariants, tr xi^2 and tr xi^4.
    assert all(list(row) == ["2", "4"]
               for row in report["residuals"]["conservation"].values())


def test_report_frees_the_curvature_coefficients(monkeypatch):
    # Every mu row of the mc table shares one build of the coefficient
    # fields (one frame.curvature_defect call per axis pair), and the report
    # drops them once the table is done.
    config, states, conn, frames = kernel_case("definite")
    h_field = gauge_to_normal_form(conn).h
    conns, builds = [], []
    defect = frame.curvature_defect

    def counted(*args, **kwargs):
        builds.append(args[1:3])
        return defect(*args, **kwargs)

    def kept(*args):
        conns.append(connection_from_state(*args))
        return conns[-1]

    monkeypatch.setattr(frame, "curvature_defect", counted)
    monkeypatch.setattr(cli, "connection_from_state", kept)
    report = cli.build_report(states, frames, h_field, config)
    assert len(report["residuals"]["mc"]) == 4
    assert builds == [(0, 1)] and len(conns) == 1
    assert "curvature_coefficients" not in vars(conns[0])


def test_so7_run_conserves_tr_xi6(tmp_path):
    # On so(7) the spectral curve has a third invariant, tr xi^6: each
    # conservation row gains a "6" entry, gated with the others, and verify
    # recomputes it exactly.
    cfg = {"preset": "sphere", "m": 3, "n": 5, "d": 5, "powers": [1, 3, 5],
           "extents": [0.4] * 3, "nodes": [5, 5, 5], "commutativity_steps": 4}
    cfg_path = tmp_path / "so7.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["split"] == [4, 3]
    table = report["residuals"]["conservation"]
    assert len(table) == 3
    for row in table.values():
        assert list(row) == ["2", "4", "6"]
        assert max(row.values()) <= 1e-8
    assert report["checks"]["conservation_max"]["value"] == max(
        max(row.values()) for row in table.values()
    )
    assert verify_command(out)[0]["residuals"] == report["residuals"]


@pytest.mark.parametrize("overrides", [
    {},
    {"powers": [1], "extents": [0.4], "nodes": [33], "seed": 7},
    {"powers": [1, 3, 5], "extents": [0.4] * 3, "nodes": [5, 5, 5], "seed": 7},
    {"preset": "sphere", "seed": 4},
], ids=["small", "one-flow", "three-flows", "sphere"])
def test_gauge_matches_greedy_oracle_on_run_configs(overrides):
    # Exact continuation reproduces the former greedy gauge byte for byte on
    # the definite-isotropy configs these tests run.
    for raw in (small_config(**overrides), vacuum_config()):
        config = RunConfig(raw)
        xi0, _ = seed_initial_state(config)
        states = integrate_grid(xi0, config.family, config.grid,
                                substeps=config.substeps)
        conn = connection_from_state(states, config.family, config.grid, config.spec)
        gauge = gauge_to_normal_form(conn)
        assert np.array_equal(gauge.h, greedy_gauge_h(conn, config.spec))


def test_main_gauge_failure_names_node(tmp_path, monkeypatch):
    # Colliding singular values of C at node (2, 3): the origin's gauge leaves
    # that span off the reference Cartan span, and the error block names it.
    w1, w2 = 1.0 / (1.0 + np.sqrt(2.0)), 1.0 / (2.0 + np.sqrt(2.0))

    def colliding_gauge(conn):
        spec = conn.spec
        a1 = conn.a1.copy()
        a1[2, 3, 0] = from_offblock([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0]], spec).matrix
        a1[2, 3, 1] = from_offblock(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5 * w1 / w2]], spec
        ).matrix
        return gauge_to_normal_form(ConnectionForm(conn.a0, a1, conn.grid, spec))

    monkeypatch.setattr(cli, "gauge_to_normal_form", colliding_gauge)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 3
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["category"] == "NumericalError"
    assert error["node"] == [2, 3]
    assert error["message"].endswith("at node (2, 3)")


def test_config_null_takes_the_default():
    rc = RunConfig(small_config(outputs=None, tolerances=None, obj_coords=None))
    assert rc.outputs == {"report": True, "csv": True, "obj": True}
    assert rc.tolerances == cli.DEFAULT_TOLERANCES
    assert rc.obj_coords == (0, 1, 2)


def test_config_explicit_spec():
    cfg = small_config()
    cfg.update({"preset": None, "signature": [5, 0], "split": [3, 2], "rank": 2})
    rc = RunConfig(cfg)
    assert rc.spec.split == (3, 2)


def test_seed_determinism_and_acceptance_attempts():
    rc = RunConfig(small_config())
    xi_a, attempts_a = seed_initial_state(rc)
    xi_b, attempts_b = seed_initial_state(rc)
    assert attempts_a == attempts_b
    assert attempts_a <= 10  # regression: the default seed is accepted quickly
    assert np.array_equal(xi_a.stack, xi_b.stack)


def test_seed_explicit_coefficients_used_verbatim():
    rc = RunConfig(vacuum_config())
    xi, attempts = seed_initial_state(rc)
    assert attempts == 0
    assert np.array_equal(xi.stack[1], np.asarray(vacuum_config()["xi0"][1]))


def test_vacuum_run_flags_non_immersive(tmp_path):
    rc = RunConfig(vacuum_config())
    report, code = run_pipeline(rc, tmp_path / "vac")
    assert code == 0
    assert report["pass"]
    # The explicit xi0, not a draw from the config's seed, is the origin.
    verified, code = verify_command(tmp_path / "vac")
    assert code == 0
    assert verified["anchors"]["seed_origin"] == {"pass": True, "max_abs_diff": 0.0}
    assert "non-immersive" in report["flags"]
    assert report["geometry"]["status"] == "non-immersive"
    assert report["residuals"]["conservation"]["1"]["2"] < 1e-13
    # Curve diagnostics still report the great circle.
    assert report["geometry"]["curve"]["kappa_mean"] == pytest.approx(0.0, abs=1e-8)


def test_run_writes_artifacts_and_verify_roundtrip(tmp_path):
    rc = RunConfig(small_config())
    out = tmp_path / "run"
    report, code = run_pipeline(rc, out)
    assert code == 0
    for name in ("arrays.npz", "config.json", "report.json", "phi.csv"):
        assert (out / name).exists()
    assert (out / "mesh_00.obj").exists()
    verified, vcode = verify_command(out)
    assert vcode == 0
    # Idempotent: identical residual values, not merely the same verdict.
    stored = json.loads((out / "report.json").read_text())
    assert verified["residuals"] == stored["residuals"]
    assert verified["checks"] == stored["checks"]


def test_verify_detects_frame_tampering(tmp_path):
    rc = RunConfig(small_config())
    out = tmp_path / "run"
    run_pipeline(rc, out)
    data = dict(np.load(out / "arrays.npz"))
    data["frames"][0][4, 4, 0, 0] += 1e-3
    np.savez_compressed(out / "arrays.npz", **data)
    report, code = verify_command(out)
    assert code == 1
    assert not report["checks"]["group_drift_max"]["pass"]


def test_verify_detects_gauge_tampering(tmp_path):
    rc = RunConfig(small_config())
    out = tmp_path / "run"
    run_pipeline(rc, out)
    data = dict(np.load(out / "arrays.npz"))
    data["gauge_h"][2, 2, 0, 0] += 1e-3
    np.savez_compressed(out / "arrays.npz", **data)
    report, code = verify_command(out)
    assert code == 1
    assert not report["checks"]["gauge_drift"]["pass"]


def test_verify_missing_artifacts(tmp_path):
    with pytest.raises(MissingArtifactError):
        verify_command(tmp_path / "nowhere")
    # A report.json the config says was written must be there.
    out = tmp_path / "run"
    run_pipeline(RunConfig(small_config()), out)
    (out / "report.json").unlink()
    with pytest.raises(MissingArtifactError):
        verify_command(out)


def test_verify_run_without_report(tmp_path):
    cfg = small_config(outputs={"report": False, "csv": False, "obj": False})
    out = tmp_path / "run"
    report, code = run_pipeline(RunConfig(cfg), out)
    assert code == 0 and not (out / "report.json").exists()
    verified, vcode = verify_command(out)
    assert vcode == 0
    assert verified["verified_against"] is None
    assert verified["residuals"] == report["residuals"]


def test_csv_schema_and_determinism(tmp_path):
    rc = RunConfig(small_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(rc, out_a)
    run_pipeline(RunConfig(small_config()), out_b)
    csv_a = (out_a / "phi.csv").read_bytes()
    csv_b = (out_b / "phi.csv").read_bytes()
    assert csv_a == csv_b
    lines = csv_a.decode().strip().split("\n")
    assert lines[0] == "x1,x2,mu,phi_1,phi_2,phi_3,phi_4,phi_5"
    assert len(lines) == 1 + 2 * 9 * 9  # two mu samples, 9x9 nodes
    # 17-significant-digit round trip.
    first = lines[1].split(",")
    assert float(first[2]) == 0.6


def test_obj_export_contents(tmp_path):
    rc = RunConfig(small_config())
    out = tmp_path / "run"
    run_pipeline(rc, out)
    obj = (out / "mesh_00.obj").read_text().strip().split("\n")
    assert obj[0].startswith("#")
    assert any(rc.hash() in line for line in obj[:3])
    vs = [l for l in obj if l.startswith("v ")]
    fs = [l for l in obj if l.startswith("f ")]
    assert len(vs) == 81
    assert len(fs) == 2 * 8 * 8


def _awkward_values(rng, shape):
    """Normal draws spread over 600 decades, with signed zeros, subnormals
    and integers mixed in."""
    vals = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    flat = vals.reshape(-1)
    flat[:8] = [0.0, -0.0, 5e-324, -2.5e-310, 1.0, -3.0, 1.0 / 3.0, -1e-17]
    return vals


@pytest.mark.parametrize(
    "powers,nodes",
    [([1], [7]), ([1, 3], [6, 5]), ([1, 3, 5], [3, 4, 5])],
)
def test_writers_match_savetxt_byte_for_byte(tmp_path, powers, nodes):
    cfg = small_config(
        powers=powers, nodes=nodes, extents=[0.3, 0.7, 1e-3][: len(nodes)],
        mu_samples=[-1e-7, 0.6, 1.0 / 3.0], obj_coords=[4, 0, 2],
    )
    config = RunConfig(cfg)
    rng = np.random.default_rng(len(nodes))
    phis = {mu: _awkward_values(rng, tuple(nodes) + (5,)) for mu in config.mu_samples}
    cli.write_phi_text(tmp_path, config, phis)
    savetxt_phi_csv(tmp_path / "old.csv", config, phis)
    assert (tmp_path / "phi.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # Without the CSV only the obj_coords columns are formatted; the meshes
    # are still savetxt's bytes (with that config's hash in the header).
    meshes_only = RunConfig({**cfg, "outputs": {"csv": False}})
    shared = tmp_path / "shared"
    shared.mkdir()
    cli.write_phi_text(shared, meshes_only, phis)
    assert not (shared / "phi.csv").exists()
    if len(nodes) == 2:
        for i, mu in enumerate(config.mu_samples):
            savetxt_obj(tmp_path / "old.obj", config, phis[mu], mu)
            new = (tmp_path / f"mesh_{i:02d}.obj").read_bytes()
            assert new == (tmp_path / "old.obj").read_bytes()
            savetxt_obj(tmp_path / "old.obj", meshes_only, phis[mu], mu)
            shared_obj = (shared / f"mesh_{i:02d}.obj").read_bytes()
            assert shared_obj == (tmp_path / "old.obj").read_bytes()
            assert shared_obj.splitlines()[2:] == new.splitlines()[2:]
    else:
        assert not list(tmp_path.glob("*.obj"))
        assert not list(shared.iterdir())


@pytest.mark.parametrize("rows", [1, 7])
def test_phi_text_does_not_depend_on_its_chunk(monkeypatch, tmp_path, rows):
    # One node per chunk, and chunks that do not divide the 6 x 5 grid,
    # write the bytes of one chunk for the whole grid.
    config = RunConfig(small_config(nodes=[6, 5], mu_samples=[-1e-7, 0.6]))
    rng = np.random.default_rng(3)
    phis = {mu: _awkward_values(rng, (6, 5, 5)) for mu in config.mu_samples}
    whole, chunked = tmp_path / "whole", tmp_path / "chunked"
    whole.mkdir()
    chunked.mkdir()
    cli.write_phi_text(whole, config, phis)
    monkeypatch.setattr(cli, "TEXT_ROWS", rows)
    cli.write_phi_text(chunked, config, phis)
    names = sorted(p.name for p in whole.iterdir())
    assert names == ["mesh_00.obj", "mesh_01.obj", "phi.csv"]
    assert sorted(p.name for p in chunked.iterdir()) == names
    for name in names:
        assert (chunked / name).read_bytes() == (whole / name).read_bytes()


def test_main_rejected_config_writes_error_block(tmp_path, capsys):
    # Rejected before any array exists: the error block has no config hash.
    # A directory, bytes that are not UTF-8 and an absent file cannot be
    # read as a config.
    (tmp_path / "dir.json").mkdir()
    for name, data in (("small", json.dumps({"nodes": [3, 3]}).encode()),
                       ("json", b"{not json"), ("bytes", b"\xff{}"), ("dir", None),
                       ("missing", None)):
        cfg_path = tmp_path / f"{name}.json"
        if data is not None:
            cfg_path.write_bytes(data)
        out = tmp_path / name
        capsys.readouterr()
        assert main(["run", str(cfg_path), "-o", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        failure = json.loads((out / "report.json").read_text())
        assert failure["pass"] is False
        assert failure["config_hash"] is None
        assert failure["error"]["category"] == "ConfigError"
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]


def test_main_unallocatable_grid_exits_2(tmp_path, capsys):
    # 1e12 x 9 nodes of 4 x 5 x 5 doubles take 7.2e15 bytes, past the
    # 2^48-byte address space, so the allocation fails at once: a
    # ConfigError naming the shape and byte count, not a traceback (exit 3).
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps({"nodes": [1e12, 9], "commutativity_steps": 4}))
    out = tmp_path / "huge"
    capsys.readouterr()
    assert main(["run", str(cfg_path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "7200000000000000 bytes" in err
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["category"] == "ConfigError"
    assert "shape (1000000000000, 9, 4, 5, 5), 7200000000000000 bytes" in error["message"]
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


def test_main_space_form_needs_two_normal_directions(tmp_path, capsys):
    # A 2-D definite run verifies the space form through the Jacobian of psi,
    # which is n2 x 2: any n2 != 2 is a structural error, not a numpy crash.
    # Its Gauss curvature gate compares with K = 1 of M^2(1), which needs a
    # plane block n1 = 3 wide: the flat surface in S^3 (m = 1, n = 2) and the
    # m = 3 block are structural errors too, not tolerance failures.
    for i, (cfg, fragment) in enumerate((
        ({"preset": "sphere", "m": 3, "nodes": [5, 5]}, "1 x 2"),
        ({"preset": "sphere", "n": 4, "nodes": [5, 5]}, "3 x 2"),
        ({"preset": "sphere", "m": 3, "n": 5, "nodes": [5, 5]}, "3 x 2"),
        ({"preset": "sphere", "m": 1, "n": 2, "nodes": [5, 5]}, "block is 2 wide"),
        ({"preset": "sphere", "m": 3, "n": 4, "nodes": [5, 5]}, "block is 4 wide"),
    )):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert main(["run", str(cfg_path), "-o", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["category"] == "StructuralError"
        assert fragment in error["message"]
    # n2 = 1 with m = 1 never reaches the check: its immersion is degenerate.
    cfg_path = tmp_path / "flat.json"
    cfg_path.write_text(json.dumps({"preset": "sphere", "m": 1, "n": 1}))
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "flat")]) == 0
    report = json.loads((tmp_path / "flat" / "report.json").read_text())
    assert report["flags"] == ["non-immersive"]


def test_main_run_verify_and_presets(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert main(["presets"]) == 0
    captured = capsys.readouterr()
    assert "sphere-grassmannian" in captured.out
    assert main(["verify", str(tmp_path / "missing")]) == 2


def test_main_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(small_config(mu_samples=[0.0])))
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "o")]) == 2
    assert main(["run", str(tmp_path / "absent.json"), "-o", str(tmp_path / "x")]) == 2


def test_indefinite_preset_runs_without_geometry(tmp_path):
    cfg = small_config(preset="isothermic", nodes=[7, 7], mu_samples=[1.0])
    report, code = run_pipeline(RunConfig(cfg), tmp_path / "iso")
    assert code == 0
    assert report["geometry"]["status"] == "skipped-indefinite"
    assert "indefinite-isotropy" in report["flags"]
    assert report["checks"]["group_drift_max"]["pass"]


def test_main_blow_up_exit_code_and_error_report(tmp_path):
    cfg_path = tmp_path / "boom.json"
    cfg_path.write_text(
        json.dumps(small_config(extents=[50.0, 50.0], nodes=[5, 5], substeps=1))
    )
    out = tmp_path / "boom_out"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 3
    failure = json.loads((out / "report.json").read_text())
    assert failure["pass"] is False
    assert failure["error"]["category"] == "BlowUpError"
    # The fill runs the x2 line (r = 3) from the seed first, then one row of
    # x1 steps (r = 1) per x1 index; the third node of the first row is the
    # first to blow up.
    assert failure["error"]["node"] == [1, 2]


@pytest.mark.parametrize(
    "seed,value",
    [(12, "0.123"), (19, "2.69"), (21, "72.4"), (26, "0.0567"), (38, "11.1")],
)
def test_default_config_seeds_failing_only_gauss_curvature(tmp_path, seed, value):
    # A standing defect, recorded so that a change of it shows: on these
    # config seeds of the shipped config, the finite-difference Brioschi
    # curvature of phi misses the 0.05 gate (stencil error at nodes of an
    # ill-conditioned metric); every other check passes.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": seed}))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 1
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert [k for k, c in checks.items() if not c["pass"]] == ["gauss_curvature"]
    assert f"{checks['gauss_curvature']['value']:.3g}" == value


@pytest.mark.filterwarnings("error")
def test_main_blow_up_of_overflowing_edge_prints_no_warning(tmp_path):
    # The first x2 edge overflows inside its RK4 stages; the blow-up check
    # rejects the non-finite state, and numpy does not warn on the way.
    cfg_path = tmp_path / "boom.json"
    cfg_path.write_text(json.dumps({"nodes": [5, 5], "extents": [0.4, 1e308]}))
    out = tmp_path / "boom_out"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 3
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["category"] == "BlowUpError"
    assert error["node"] == [0, 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [1e30, 1e300])
def test_main_expm_out_of_range_names_node_and_mu(tmp_path, mu):
    # exp(h * Abar) at such mu needs more squarings than float64 resolves;
    # the run stops at the first edge, the first x1 step of the frame walk,
    # instead of collapsing its frame.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nodes": [5, 5], "mu_samples": [mu]}))
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 3
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["category"] == "NumericalError"
    assert error["node"] == [1, 0]
    assert "squarings, which leave no correct digit in slice (0,)" in error["message"]
    assert f"node (1, 0), mu={mu!r}" in error["message"]


def _strict_json(path):
    """Parse a JSON file, rejecting the NaN and Infinity tokens that
    ``json.loads`` accepts by default."""
    def reject(token):
        raise ValueError(f"non-JSON token {token} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.filterwarnings("error")
def test_main_non_finite_residual_is_a_numerical_error(tmp_path):
    # On extents near the float64 range the report's grid derivatives
    # overflow and the curvature of phi is NaN: the run stops with an error
    # that names the residual and its mu, numpy does not warn on the way,
    # and report.json stays strict JSON.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nodes": [5, 5], "extents": [1e-200, 1e-200]}))
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 3
    error = _strict_json(out / "report.json")["error"]
    assert error["category"] == "NumericalError"
    assert re.fullmatch(r"non-finite residual \w+ at mu=0\.6: nan", error["message"])


def test_run_writes_strict_json(tmp_path):
    out = tmp_path / "o"
    run_pipeline(RunConfig(small_config(nodes=[5, 5], commutativity_steps=2)), out)
    for name in ("config.json", "report.json"):
        _strict_json(out / name)
    with pytest.raises(ValueError):
        cli.write_json(tmp_path / "bad.json", {"residual": float("nan")})


def test_main_degenerate_frame_names_node_and_mu(tmp_path, monkeypatch):
    # Zero one sample's step exponential on the fifth edge of the frame
    # walk, the fifth x1 step of its first slab: that sample's frame
    # collapses at the node the edge fills.
    calls = []

    def collapsing_expm(m):
        calls.append(m)
        out = expm(m)
        if len(calls) == 5:
            out[1] = 0.0
        return out

    monkeypatch.setattr(frame, "expm", collapsing_expm)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(mu_samples=[0.6, 1.25, 1.6])))
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 3
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["category"] == "DegenerateFrameError"
    assert error["node"] == [5, 0]
    assert "slice (1,)" in error["message"]
    assert "node (5, 0), mu=1.25" in error["message"]


def test_main_internal_error_exits_3_with_error_block(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("defect outside the error taxonomy")

    monkeypatch.setattr(cli, "integrate_grid", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "-o", str(out)]) == 3
    failure = json.loads((out / "report.json").read_text())
    assert failure["pass"] is False
    assert failure["error"] == {
        "category": "ZeroDivisionError",
        "message": "defect outside the error taxonomy",
    }
    assert "ZeroDivisionError" in capsys.readouterr().err


def npz_members(path):
    """(name, CRC, compressed size, compression, decompressed bytes) of
    every member of the zip archive ``path``, in archive order."""
    with zipfile.ZipFile(path) as archive:
        return [
            (info.filename, info.CRC, info.compress_size, info.compress_type,
             archive.read(info.filename))
            for info in archive.infolist()
        ]


def data_offset(path, info):
    """Where the coded bytes of member ``info`` of the zip archive ``path``
    start: after its local header, 30 bytes, the name and the local extra,
    whose zip64 field the central directory's info.extra lacks."""
    with open(path, "rb") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
    return info.header_offset + 30 + name_len + extra_len


def level_2_deflate(data):
    """The raw deflate stream of ``data`` at zlib level 2: the coded bytes
    of every deflated member that save_arrays writes."""
    coder = zlib.compressobj(2, zlib.DEFLATED, -15)
    return coder.compress(data) + coder.flush()


def assert_level_2_members(path):
    raw = Path(path).read_bytes()
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            if info.compress_type == zipfile.ZIP_DEFLATED:
                start = data_offset(path, info)
                coded = raw[start:start + info.compress_size]
                assert coded == level_2_deflate(archive.read(info)), info.filename


def writer_cases():
    rng = np.random.default_rng(3)
    per_chunk = NPZ_CHUNK // 8
    return {
        "empty": np.zeros((0, 5)),
        "under_one_chunk": rng.standard_normal((33, 33, 5, 5)),
        "one_chunk": rng.standard_normal(per_chunk),
        "chunks_and_a_tail": rng.standard_normal((3 * per_chunk + 17,)),
        "scalar": np.asarray(2.5),
        "ints": np.arange(7, dtype=np.int32),
        "fortran": np.asfortranarray(rng.standard_normal((40, 30))),
        # The gauge's H: one matrix broadcast to every node (zero strides).
        "broadcast_h": np.broadcast_to(rng.standard_normal((5, 5)), (33, 33, 5, 5)),
        "strided": rng.standard_normal((40, 6, 5))[::3, :, 1:],
    }


@pytest.mark.parametrize("name", sorted(writer_cases()))
def test_save_arrays_members_match_savez_compressed(tmp_path, name):
    val = writer_cases()[name]
    arrays = {name: val, "mu_samples": np.asarray([0.6, 1.0])}
    save_arrays(tmp_path / "chunked.npz", arrays)
    np.savez_compressed(tmp_path / "numpy.npz", **arrays)
    # numpy's name, CRC, method and decoded bytes; the coded bytes (and so
    # their size) are the level-2 deflate's, not numpy's level 6.
    ours = npz_members(tmp_path / "chunked.npz")
    theirs = npz_members(tmp_path / "numpy.npz")
    assert [m[:2] + m[3:] for m in ours] == [m[:2] + m[3:] for m in theirs]
    assert_level_2_members(tmp_path / "chunked.npz")
    with np.load(tmp_path / "chunked.npz", allow_pickle=False) as loaded:
        assert list(loaded.keys()) == [name, "mu_samples"]
        for key, value in arrays.items():
            assert loaded[key].dtype == value.dtype
            np.testing.assert_array_equal(loaded[key], value, strict=True)


@pytest.mark.parametrize("writer, bounded", [
    (lambda path, arrays: save_arrays(path, arrays), True),
    (lambda path, arrays: np.savez_compressed(path, **arrays), False),
], ids=["save_arrays", "savez_compressed"])
def test_save_arrays_peak_memory_is_a_few_chunks(tmp_path, writer, bounded):
    # A 16 MB incompressible array: the chunked writer holds a few chunks,
    # numpy's holds copies of the whole array, so the bound tells them apart.
    big = np.random.default_rng(0).standard_normal(2 * 1024 * 1024)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        writer(tmp_path / "big.npz", {"frames": big})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (peak <= 4e6) is bounded, peak


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("finished") / "run"
    run_pipeline(RunConfig(small_config()), out)
    return out


def verify_stderr(run_dir, capsys):
    """main(["verify", run_dir]) must exit 2 without a traceback; returns
    its stderr."""
    capsys.readouterr()
    assert main(["verify", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_main_verify_truncated_npz_exits_2(tmp_path, finished_run, capsys):
    run = shutil.copytree(finished_run, tmp_path / "run")
    data = (run / "arrays.npz").read_bytes()
    (run / "arrays.npz").write_bytes(data[: len(data) // 2])
    assert "corrupt artifacts" in verify_stderr(run, capsys)


@pytest.mark.parametrize("member", ["states.npy", "frames.npy"])
def test_main_verify_flipped_byte_exits_2(tmp_path, finished_run, capsys, member):
    # states is deflated; frames is stored, so its CRC is the only guard.
    run = shutil.copytree(finished_run, tmp_path / "run")
    with zipfile.ZipFile(run / "arrays.npz") as archive:
        info = archive.getinfo(member)
    data = bytearray((run / "arrays.npz").read_bytes())
    data[data_offset(run / "arrays.npz", info) + info.compress_size // 2] ^= 0xFF
    (run / "arrays.npz").write_bytes(bytes(data))
    assert "corrupt artifacts" in verify_stderr(run, capsys)


def test_main_verify_config_nodes_disagree_with_arrays(tmp_path, finished_run, capsys):
    run = shutil.copytree(finished_run, tmp_path / "run")
    config = json.loads((run / "config.json").read_text())
    config["nodes"] = [5, 5]
    (run / "config.json").write_text(json.dumps(config))
    err = verify_stderr(run, capsys)
    assert "states has shape (9, 9, 4, 5, 5), config implies (5, 5, 4, 5, 5)" in err


def test_main_verify_report_not_an_object_exits_2(tmp_path, finished_run, capsys):
    run = shutil.copytree(finished_run, tmp_path / "run")
    (run / "report.json").write_text("[]")
    assert "corrupt artifacts" in verify_stderr(run, capsys)


@pytest.mark.parametrize("name, index, message", [
    ("frames", (0, 4, 4, 0, 0), "non-finite residual group_drift at mu="),
    ("gauge_h", (4, 4, 0, 0), "non-finite residual gauge_drift: nan"),
    # xi_0 does not reach the r=1 coefficients, but the node's limit is NaN.
    ("states", (4, 4, 0, 0, 1),
     "at node (4, 4), flow r=1: residual 0.000e+00, limit nan"),
])
def test_main_verify_nan_artifact_exits_3(tmp_path, finished_run, capsys, name,
                                          index, message):
    # One NaN in a stored array is a numerical failure named at its cause.
    run = shutil.copytree(finished_run, tmp_path / "run")
    with np.load(run / "arrays.npz") as loaded:
        arrays = dict(loaded)
    arrays[name][index] = np.nan
    save_arrays(run / "arrays.npz", arrays)
    capsys.readouterr()
    assert main(["verify", str(run)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("name", ["states", "frames", "gauge_h"])
def test_verify_names_array_with_wrong_shape(tmp_path, finished_run, name):
    run = shutil.copytree(finished_run, tmp_path / "run")
    with np.load(run / "arrays.npz") as loaded:
        arrays = dict(loaded)
    good = arrays[name].shape
    arrays[name] = arrays[name][..., :-1, :, :]
    save_arrays(run / "arrays.npz", arrays)
    message = rf"stored {name} has shape .*{re.escape(str(good))}"
    with pytest.raises(MissingArtifactError, match=message):
        verify_command(run)


@pytest.mark.parametrize("shape", [(), (1, 2), (2, 1), (1,)],
                         ids=["0-d", "row", "column", "short"])
def test_main_verify_names_mu_samples_with_wrong_shape(tmp_path, finished_run,
                                                       capsys, shape):
    # One value per configured mu: a 0-d member made the read raise a
    # TypeError, a 2-D one too, each a traceback and exit 3.
    run = shutil.copytree(finished_run, tmp_path / "run")
    with np.load(run / "arrays.npz") as loaded:
        arrays = dict(loaded)
    arrays["mu_samples"] = np.resize(arrays["mu_samples"], shape)
    save_arrays(run / "arrays.npz", arrays)
    message = f"stored mu_samples has shape {shape}, config implies (2,)"
    assert message in verify_stderr(run, capsys)


@pytest.mark.parametrize("dtype", [np.complex128, np.int64, np.float32])
@pytest.mark.parametrize("name", ["states", "frames", "gauge_h", "mu_samples"])
def test_main_verify_names_array_with_wrong_dtype(tmp_path, finished_run, capsys,
                                                  name, dtype):
    # numpy would cast each of them to float64 on the way in: complex128
    # with a ComplexWarning and a pass, int64 truncated to zeros; a float32
    # mu_samples would be read as samples that disagree with the config.
    run = shutil.copytree(finished_run, tmp_path / "run")
    with np.load(run / "arrays.npz") as loaded:
        arrays = dict(loaded)
    arrays[name] = arrays[name].astype(dtype)
    save_arrays(run / "arrays.npz", arrays)
    message = f"stored {name} has dtype {np.dtype(dtype)}, a run writes float64"
    assert message in verify_stderr(run, capsys)


def zeroed_states(run):
    with np.load(run / "arrays.npz") as loaded:
        arrays = dict(loaded)
    arrays["states"] = np.zeros_like(arrays["states"])
    save_arrays(run / "arrays.npz", arrays)
    return arrays


def test_space_form_geometry_without_invertible_psi_is_non_immersive(
        tmp_path, finished_run):
    # Zero states give a zero A1, so no node has an invertible psi Jacobian,
    # while the stored frames still leave non-degenerate interior nodes.
    run = shutil.copytree(finished_run, tmp_path / "run")
    arrays = zeroed_states(run)
    config = RunConfig(json.loads((run / "config.json").read_text()))
    conn = connection_from_state(arrays["states"], config.family, config.grid,
                                 config.spec)
    gauge = geometry.gauge_from_h(conn, arrays["gauge_h"])
    mu = config.mu_samples[0]
    im = geometry.reconstruct_immersion(gauge, arrays["frames"][0], mu)
    assert not np.all(im.degenerate[1:-1, 1:-1])
    with pytest.raises(NonImmersiveError, match="invertible psi Jacobian"):
        geometry.verify_space_form_geometry(im)


def test_main_verify_fails_when_geometry_status_changes(tmp_path, finished_run,
                                                        capsys):
    # The tampered arrays pass every gate, but they no longer reconstruct
    # the immersion the stored report describes: exit 1, no traceback.
    run = shutil.copytree(finished_run, tmp_path / "run")
    zeroed_states(run)
    report, code = verify_command(run)
    assert code == 1 and report["pass"]
    assert report["anchors"]["stored_report"] == {"pass": False}
    assert report["geometry"]["status"] == "non-immersive"
    stored = json.loads((run / "report.json").read_text())
    assert stored["geometry"]["status"] == "ok"
    capsys.readouterr()
    assert main(["verify", str(run)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "geometry status differs" in err


def test_verify_names_the_residuals_that_changed(tmp_path, finished_run, capsys):
    # One stored residual tampered and one dropped: verify names both, in a
    # key outside residuals and checks, and the gates alone set the exit.
    run = shutil.copytree(finished_run, tmp_path / "run")
    assert verify_command(run)[0]["changed_residuals"] == []
    stored = json.loads((run / "report.json").read_text())
    stored["residuals"]["mc"]["0.6"] *= 2.0
    del stored["residuals"]["abelian"]
    (run / "report.json").write_text(json.dumps(stored))
    report, code = verify_command(run)
    assert code == 0 and report["pass"]
    assert report["changed_residuals"] == ["abelian", "mc/0.6"]
    assert "changed_residuals" not in report["residuals"]
    assert "changed_residuals" not in report["checks"]
    capsys.readouterr()
    assert main(["verify", str(run)]) == 0
    assert capsys.readouterr().err == (
        "verify: recomputed residuals differ from report.json's: abelian, mc/0.6\n"
    )
    # A run that wrote no report.json has nothing to compare.
    config = json.loads((run / "config.json").read_text())
    config["outputs"] = {"report": False}
    (run / "config.json").write_text(json.dumps(config))
    assert verify_command(run)[0]["changed_residuals"] is None


@pytest.fixture(scope="module", params=["sphere-grassmannian", "anti-de-sitter",
                                        "isothermic"])
def preset_run(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param) / "run"
    config = {"preset": request.param, "nodes": [9, 9], "mu_samples": [0.6, 1.0],
              "commutativity_steps": 4}
    assert run_pipeline(RunConfig(config), out)[1] == 0
    return out


@pytest.mark.parametrize("tamper, broken", [("negated", ["0.6", "1"]),
                                            ("flipped", ["1"])])
def test_main_verify_fails_on_frames_off_the_origin_anchor(
        tmp_path, preset_run, capsys, tamper, broken):
    # -F is still in O(J) and every residual passes it, as a frame with one
    # flipped entry at the origin passes the group test; but a run sets each
    # frame at the origin to I.  The broken anchor exits 1 and is named, in
    # a key outside residuals and checks, and on stderr.
    run = shutil.copytree(preset_run, tmp_path / "run")
    report, code = verify_command(run)
    assert code == 0
    assert report["anchors"] == {"frames_origin": {"pass": True, "mu": []},
                                 "seed_origin": {"pass": True, "max_abs_diff": 0.0},
                                 "stored_report": {"pass": True}}
    with np.load(run / "arrays.npz") as loaded:
        arrays = dict(loaded)
    if tamper == "negated":
        arrays["frames"] = -arrays["frames"]
    else:
        arrays["frames"][-1, 0, 0, 0, 0] = -1.0
    save_arrays(run / "arrays.npz", arrays)
    report, code = verify_command(run)
    assert code == 1 and (report["pass"] or tamper == "flipped")
    assert report["anchors"]["frames_origin"] == {"pass": False, "mu": broken}
    assert "anchors" not in report["residuals"]
    assert "anchors" not in report["checks"]
    capsys.readouterr()
    assert main(["verify", str(run)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert ("verify: broken anchor frames_origin: the stored frames at the"
            f" origin are not the identity at mu={', '.join(broken)}\n") in captured.err
    # stdout's pass is the exit code's, whatever the checks say.
    printed = json.loads(captured.out)
    assert printed["pass"] is False
    assert printed["broken_anchors"] == ["frames_origin"]


def test_seed_origin_anchor_passes_roundoff_only(tmp_path, finished_run):
    # Another BLAS kernel rounds the seed by an ulp or so: the anchor passes
    # that and exits 0, but not a change far above roundoff.
    run = shutil.copytree(finished_run, tmp_path / "run")
    with np.load(run / "arrays.npz") as loaded:
        arrays = dict(loaded)
    origin = arrays["states"][0, 0]
    for step, code in ((np.nextafter(origin, np.inf) - origin, 0), (1e-12, 1)):
        moved = dict(arrays, states=arrays["states"].copy())
        moved["states"][0, 0] += step
        save_arrays(run / "arrays.npz", moved)
        report, got = verify_command(run)
        anchor = report["anchors"]["seed_origin"]
        assert got == code and anchor["pass"] is (code == 0)
        assert 0.0 < anchor["max_abs_diff"] <= np.max(step) * 1.5


@pytest.fixture(scope="module")
def seed8_arrays(tmp_path_factory, preset_run):
    """arrays.npz of ``preset_run``'s config drawn with seed 8, not 7."""
    config = json.loads((preset_run / "config.json").read_text())
    assert config["seed"] == 7
    out = tmp_path_factory.mktemp("seed8") / "run"
    assert run_pipeline(RunConfig(dict(config, seed=8)), out)[1] == 0
    return out / "arrays.npz"


@pytest.mark.parametrize("tamper", ["seed8", "zeroed"])
def test_main_verify_fails_on_states_of_another_seed(
        tmp_path, preset_run, seed8_arrays, capsys, tamper):
    # Another seed's arrays, or all-zero states, can pass every gate (the
    # indefinite presets skip the geometry, and every residual of xi = 0 is
    # 0), but a run stores the config's seed as the states at the origin.
    run = shutil.copytree(preset_run, tmp_path / "run")
    if tamper == "seed8":
        shutil.copyfile(seed8_arrays, run / "arrays.npz")
    else:
        zeroed_states(run)
    report, code = verify_command(run)
    assert code == 1
    anchor = report["anchors"]["seed_origin"]
    assert anchor["pass"] is False and anchor["max_abs_diff"] > 1e-3
    assert "anchors" not in report["residuals"]
    assert "anchors" not in report["checks"]
    capsys.readouterr()
    assert main(["verify", str(run)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "verify: broken anchor seed_origin" in captured.err
    printed = json.loads(captured.out)
    assert printed["pass"] is False
    assert "seed_origin" in printed["broken_anchors"]


def test_cli_import_leaves_argparse_traceback_and_hashlib_unloaded():
    # A library import of the CLI module pays only for what a run uses.
    names = ("argparse", "traceback", "hashlib")
    code = (
        "import sys, numpy; before = set(sys.modules); import curvedflats.cli; "
        f"print(sorted(set({names!r}) & (set(sys.modules) - before)))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def run_over(run, bad, code):
    """Run the config text ``bad`` into the finished run copied to ``run``,
    beside two files this program never writes; it must exit ``code`` and
    leave only its error block and those two files."""
    foreign = ["mesh_1.obj", "notes.txt"]
    for name in foreign:
        (run / name).write_text("kept\n")
    (run.parent / "bad.json").write_text(bad)
    assert main(["run", str(run.parent / "bad.json"), "-o", str(run)]) == code
    assert sorted(p.name for p in run.iterdir()) == sorted(["report.json"] + foreign)


def test_main_verify_failed_run_over_good_run_exits_2(tmp_path, finished_run, capsys):
    # A rejected config written over a good run removes that run's outputs,
    # so its error block is all that is left, and verify exits 2 naming it.
    run = shutil.copytree(finished_run, tmp_path / "run")
    run_over(run, '{"nodes": [9, 9], "mu_samples": [1e400]}', 2)
    message = "report.json records a failed run (ConfigError)"
    assert message in verify_stderr(run, capsys)
    # So does one beside a config that wrote no report.json of its own.
    config = json.loads((finished_run / "config.json").read_text())
    config["outputs"] = {"report": False}
    (run / "config.json").write_text(json.dumps(config))
    assert message in verify_stderr(run, capsys)


def test_main_run_failing_in_pipeline_removes_earlier_outputs(tmp_path, finished_run,
                                                              capsys):
    # This config parses and fails in the frame walk, before any write.
    run = shutil.copytree(finished_run, tmp_path / "run")
    run_over(run, '{"nodes": [5, 5], "mu_samples": [1e30]}', 3)
    assert "report.json records a failed run (NumericalError)" in verify_stderr(run, capsys)


def test_rerun_removes_outputs_it_does_not_write(tmp_path):
    out = tmp_path / "run"
    run_pipeline(RunConfig(small_config(mu_samples=[0.5, 0.7, 0.9, 1.1])), out)
    # Files this program never writes stay, whatever their name looks like.
    foreign = ["mesh_1.obj", "mesh_003.obj", "mesh_xx.obj", "notes.txt"]
    for name in foreign:
        (out / name).write_text("kept\n")
    config = RunConfig(small_config())
    run_pipeline(config, out)
    meshes = sorted(p.name for p in out.glob("mesh_[0-9][0-9].obj"))
    assert meshes == ["mesh_00.obj", "mesh_01.obj"]
    assert "# mu: 1\n" in (out / "mesh_01.obj").read_text()
    assert verify_command(out)[1] == 0
    # With the CSV, the meshes and the report off, none of them is left.
    quiet = small_config(outputs={"report": False, "csv": False, "obj": False})
    run_pipeline(RunConfig(quiet), out)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["arrays.npz", "config.json"] + foreign
    )
    # A 1-D grid writes no mesh either.
    run_pipeline(config, out)
    one_d = small_config(powers=[1], extents=[0.3], nodes=[9])
    run_pipeline(RunConfig(one_d), out)
    assert not list(out.glob("mesh_[0-9][0-9].obj"))
    assert (out / "phi.csv").exists() and (out / "report.json").exists()


def test_save_arrays_frames_member_is_stored(tmp_path):
    # Frames-like data: float64 entries with almost no repeated byte strings.
    frames = np.random.default_rng(5).standard_normal((3, 33, 33, 5, 5))
    save_arrays(tmp_path / "chunked.npz", {"frames": frames})
    np.savez_compressed(tmp_path / "numpy.npz", frames=frames)
    (name, crc, size, kind, data), = npz_members(tmp_path / "chunked.npz")
    (np_name, np_crc, _, np_kind, np_data), = npz_members(tmp_path / "numpy.npz")
    assert (name, crc, data) == (np_name, np_crc, np_data)
    assert (kind, np_kind) == (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)
    assert size == len(data)
    # The member's data follow its local header (30 bytes, the name and a
    # zip64 extra) and are the .npy file np.save writes, byte for byte.
    raw = (tmp_path / "chunked.npz").read_bytes()
    name_len, extra_len = struct.unpack("<HH", raw[26:30])
    start = 30 + name_len + extra_len
    assert raw[30 + name_len:32 + name_len] == b"\x01\x00"  # the zip64 field's id
    npy = io.BytesIO()
    np.save(npy, frames)
    assert raw[start:start + size] == npy.getvalue()
    with np.load(tmp_path / "chunked.npz", allow_pickle=False) as loaded:
        np.testing.assert_array_equal(loaded["frames"], frames, strict=True)


def test_run_arrays_differ_from_savez_compressed_only_in_frames_bytes(tmp_path, finished_run):
    with np.load(finished_run / "arrays.npz") as loaded:
        arrays = dict(loaded)
    np.savez_compressed(tmp_path / "numpy.npz", **arrays)
    ours = npz_members(finished_run / "arrays.npz")
    theirs = npz_members(tmp_path / "numpy.npz")
    assert [m[0] for m in ours] == ["states.npy", "frames.npy", "gauge_h.npy",
                                    "mu_samples.npy"]
    for mine, numpy_member in zip(ours, theirs):
        if mine[0] == "frames.npy":
            # Same name, CRC and data; only the method, size and coded bytes.
            assert mine[:2] + mine[4:] == numpy_member[:2] + numpy_member[4:]
            assert mine[2:4] == (len(mine[4]), zipfile.ZIP_STORED)
        else:
            # Same name, CRC, method and data; the coded bytes are checked
            # against the level-2 deflate below.
            assert mine[:2] + mine[3:] == numpy_member[:2] + numpy_member[3:]
    assert_level_2_members(finished_run / "arrays.npz")
