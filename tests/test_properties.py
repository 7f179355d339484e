"""Property test of the command line over small JSON configs: every input
either runs, exiting 0 or 1 as its checks decide, or fails with an ``error``
block in report.json and exit 2 or 3."""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from curvedflats import errors
from curvedflats.cli import main
from curvedflats.presets import preset_names

# Increasing odd flow powers per number of axes.
POWERS = {1: [[1], [3]], 2: [[1, 3], [1, 5], [3, 5]], 3: [[1, 3, 5]]}
# (key, value) pairs that make a run fail, one of which may replace a key.
BROKEN = [
    ("extents", [1e308, 0.3]), ("extents", [-0.3, 0.3]), ("extents", [0.0]),
    ("mu_samples", [0.0]), ("mu_samples", [1e30]), ("mu_samples", [float("inf")]),
    ("mu_samples", [float("nan")]), ("mu_samples", []),
    ("mu_samples", [0.6, 0.6000001]),
    ("nodes", [2, 9]), ("nodes", [True, 9]), ("nodes", ["5", 5]), ("nodes", [9]),
    ("preset", "cube"), ("preset", 3), ("d", 2), ("d", 0), ("powers", [2]),
    ("powers", [3, 1]), ("tolerances", {"mc": -1.0}), ("tolerances", {"size": 1.0}),
    ("substeps", 0), ("substeps", 2.5), ("outputs", {"csv": 1}), ("outputs", False),
    ("seed", -1), ("xi0", [[0.0]]), ("extra", 1),
]


@st.composite
def configs(draw):
    """A config of at most 9^2 nodes (at most 4^3 on three axes) that runs
    more often than not: one key in three is replaced from BROKEN."""
    dims = draw(st.integers(1, 3))
    lowest = 5 if dims == 2 else 3  # 2-D geometry needs 5 nodes per axis
    preset = draw(st.sampled_from(preset_names()))
    raw = {
        "preset": preset,
        "d": draw(st.sampled_from([1, 3, 5])),
        "powers": draw(st.sampled_from(POWERS[dims])),
        "nodes": draw(st.lists(st.integers(lowest, 9 if dims < 3 else 4),
                               min_size=dims, max_size=dims)),
        "extents": draw(st.lists(st.floats(0.05, 0.6), min_size=dims, max_size=dims)),
        "mu_samples": draw(st.lists(st.sampled_from([-1.0, 0.5, 0.8, 1.0, 1.6]),
                                    min_size=1, max_size=3, unique=True)),
        "substeps": draw(st.integers(1, 4)),
        "commutativity_steps": draw(st.integers(1, 8)),
        "seed": draw(st.integers(0, 50)),
        "outputs": {"csv": draw(st.booleans()), "obj": draw(st.booleans())},
        # A tolerance of 0 or 1e-12 fails its check: exit 1.
        "tolerances": draw(st.dictionaries(st.sampled_from(["mc", "twist", "kernel"]),
                                           st.sampled_from([0.0, 1e-12, 1.0]),
                                           max_size=1)),
    }
    if draw(st.integers(0, 3)) == 0:  # an explicit space instead of a preset
        pos, neg = draw(st.sampled_from([(3, 0), (5, 0), (4, 1), (3, 2), (6, 0)]))
        first = draw(st.integers(1, pos + neg - 1))
        raw.update(preset=None, signature=[pos, neg], split=[first, pos + neg - first],
                   rank=draw(st.integers(1, 3)))
    elif preset != "isothermic" and draw(st.booleans()):
        raw["m"], raw["n"] = draw(st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 5)]))
    if draw(st.integers(0, 2)) == 0:
        key, value = draw(st.sampled_from(BROKEN))
        raw[key] = value
    return raw


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_exits_0_to_3_with_its_evidence(raw):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "run"
        config.write_text(json.dumps(raw))
        code = main(["run", str(config), "-o", str(out)])
        assert code in (0, 1, 2, 3)
        report = json.loads((out / "report.json").read_text())
        failed = [k for k, c in report.get("checks", {}).items() if not c["pass"]]
        if code in (0, 1):
            assert "error" not in report
            assert report["pass"] is (code == 0)
            assert bool(failed) is (code == 1)
        else:
            # A CurvedFlatsError, not a defect that main reports as exit 3.
            category = getattr(errors, report["error"]["category"], None)
            assert isinstance(category, type)
            assert issubclass(category, errors.CurvedFlatsError)
