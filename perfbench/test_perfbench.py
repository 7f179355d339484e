"""Tests of the benchmark's own tracer and workload definitions.

Run with ``python3 -m pytest -q perfbench`` from the root of the repository.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import curvedflats.cli as cli  # noqa: E402
import curvedflats.lax as lax  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import SEED_POOL, WORKLOADS, config_seed, make_config  # noqa: E402

SMALL = {"nodes": [9, 9], "mu_samples": [1.0], "commutativity_steps": 4}


def _traced_counts(tmp_path, number):
    raw = dict(make_config("default", 0), **SMALL)
    tracer = tr.Tracer()
    tracer.install()
    try:
        out = tmp_path / f"run-{number}"
        tracer.call(tr.RUN_ROOT, "run", cli.run_pipeline, cli.RunConfig(raw), out)
        tracer.call(tr.VERIFY_ROOT, "verify", cli.verify_command, out)
    finally:
        tracer.uninstall()
    return (
        tr.layer_totals(tracer.spans, "run")[1],
        tr.layer_totals(tracer.spans, "verify")[1],
    )


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = _traced_counts(tmp_path, 0)
    second = _traced_counts(tmp_path, 1)
    assert first == second
    run_calls, verify_calls = first
    nodes, substeps, steps = 9 * 9, 4, 4
    # RK4: four evaluations per substep on every grid edge, plus both
    # orders of both axes in the commutativity check.
    assert run_calls["loops.flow_rhs"] == 4 * (
        (nodes - 1) * substeps + 2 * 2 * steps
    )
    assert verify_calls["loops.flow_rhs"] == 4 * 2 * 2 * steps
    assert run_calls["frame.connection_from_state"] == 2
    assert verify_calls["frame.connection_from_state"] == 1
    assert run_calls["frame.j_orthonormalize"] == nodes - 1
    assert run_calls["algebra.expm"] == nodes - 1
    assert run_calls["algebra.is_cartan"] == nodes + 1  # gauge nodes + seed
    assert run_calls["geometry.gauge_from_h"] == 2


def test_uninstall_restores_every_binding():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tr.BINDINGS}
    tracer = tr.Tracer()
    tracer.install()
    assert lax.flow_rhs is not before[("curvedflats.lax", "flow_rhs")]
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    after = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tr.BINDINGS}
    assert after == before


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["b", 2.0, 3.0, 1, "r"],
        ["a", 5.0, 6.0, 0, "r"],
        ["a", 0.0, 99.0, None, "other"],
    ]
    self_s, calls = tr.layer_totals(spans, "r")
    assert self_s == {"root": 6.0, "a": 3.0, "b": 1.0}
    assert calls == {"root": 1, "a": 2, "b": 1}
    assert tr.inclusive_time(spans, "r", "a") == 4.0


def test_workload_configs_are_valid_and_seeded():
    for name in WORKLOADS:
        raw = make_config(name, 3)
        assert raw == make_config(name, 3)
        assert raw["seed"] == config_seed(3) == SEED_POOL[3]
        cli.RunConfig(raw)
    mus = make_config("spectral-indefinite", 0)["mu_samples"]
    assert len(mus) == 16
    assert mus[0] == 0.25 and mus[-1] == pytest.approx(4.0, rel=1e-15)
