"""Measurement process for one workload.

Runs attempts of ``run_pipeline`` followed by ``verify_command`` on the run
directory until the next attempt would overrun ``--seconds``, then prints one
JSON object with the samples.  With ``--trace 1`` attempts alternate between
untraced and traced, and the traced ones also yield per-layer self times and
exact call counts.  The launcher, ``run.py``, starts this in a fresh
interpreter so that its peak resident memory belongs to this workload only.
"""

import argparse
import gzip
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from curvedflats.cli import RunConfig, run_pipeline, verify_command  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import make_config  # noqa: E402

FINGERPRINT_ARRAYS = ("states", "frames", "gauge_h")

# A fixed reference kernel with the pipeline's mix of interpreter work and
# 5x5 numpy operations.  It does not depend on the program, so a workload's
# time divided by the kernel's time in the same window cancels much of the
# host's slow speed drift (other tenants, turbo).  It is timed at least
# CAL_REPS times before every unit of work, and before an attempt for about
# CAL_SHARE of the previous attempt's time, so long attempts get as dense a
# reference as short ones.
CAL_REPS = 2
CAL_SHARE = 0.05
_CAL_MATS = np.random.default_rng(0).standard_normal((4, 5, 5)) * 0.3
_EYE5 = np.eye(5)


def calibrate(iterations=4000):
    t0 = time.perf_counter()
    x = _EYE5
    for _ in range(iterations):
        y = _CAL_MATS @ x
        x = (y[0] + 0.5 * float(np.abs(y[1]).max()) * _EYE5) / (
            1.0 + float(np.abs(y).max())
        )
        sum(float(v) for v in x[0])
    return time.perf_counter() - t0


# Layers that verify_command reaches through build_report.
VERIFY_LAYERS = tuple(
    name for name in tr.LAYERS
    if name not in {
        "cli.seed_initial_state", "lax.integrate_grid",
        "frame.integrate_frame", "frame.j_orthonormalize", "algebra.expm",
        "algebra.is_cartan", "geometry.gauge_to_normal_form",
    }
)


def fingerprint(npz_path):
    """sha256 over the name, dtype, shape and bytes of the pinned arrays."""
    digest = hashlib.sha256()
    with np.load(npz_path) as arrays:
        for name in FINGERPRINT_ARRAYS:
            arr = np.ascontiguousarray(arrays[name])
            digest.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def _timed(tracer, root, run_id, fn, *args):
    t0 = time.perf_counter()
    if tracer is None:
        result = fn(*args)
    else:
        result = tracer.call(root, run_id, fn, *args)
    return result, time.perf_counter() - t0


def verify_once(out_dir, tracer=None, number=0):
    """verify_command on a finished run directory.  Returns an outcome."""
    try:
        (vreport, vcode), seconds = _timed(
            tracer, tr.VERIFY_ROOT, f"verify-{number}", verify_command, out_dir
        )
    except Exception as err:  # any failure of the program fails the attempt
        return {"pass": False, "error": f"verify: {type(err).__name__}: {err}"}
    stored = json.loads((out_dir / "report.json").read_text())
    recomputed = json.loads(json.dumps(vreport["residuals"]))
    problems = []
    if vcode != 0:
        problems.append(f"verify exit {vcode}")
    if recomputed != stored["residuals"]:
        problems.append("verify residuals differ from stored ones")
    return {
        "pass": not problems,
        "error": "; ".join(problems) or None,
        "verify_s": seconds,
    }


def attempt(raw, out_dir, tracer=None, number=0):
    """run_pipeline, then verify_command on its directory.  Returns an outcome."""
    config = RunConfig(raw)
    try:
        (report, code), seconds = _timed(
            tracer, tr.RUN_ROOT, f"run-{number}", run_pipeline, config, out_dir
        )
    except Exception as err:  # any failure of the program fails the attempt
        return {"pass": False, "error": f"run: {type(err).__name__}: {err}"}
    outcome = verify_once(out_dir, tracer, number)
    if code != 0:
        outcome["pass"] = False
        outcome["error"] = "; ".join(filter(None, [f"run exit {code}", outcome["error"]]))
    outcome.update(
        run_s=seconds,
        artifact_bytes=sum(
            p.stat().st_size for p in out_dir.iterdir() if p.is_file()
        ),
        fingerprint=fingerprint(out_dir / "arrays.npz"),
        seed_attempts=report.get("seed_attempts"),
        flags=report.get("flags"),
    )
    return outcome


def traced_metrics(tracer, numbers, traced_run_s, untraced_run_s):
    """Per-layer metrics from the traced attempts ``numbers``.

    Returns (metrics, problems); counts that differ between attempts are a
    problem, since the counts are meant to repeat exactly.
    """
    run_rows, verify_rows, incl = [], [], []
    for k in numbers:
        run_rows.append(tr.layer_totals(tracer.spans, f"run-{k}"))
        verify_rows.append(tr.layer_totals(tracer.spans, f"verify-{k}"))
        incl.append(
            tr.inclusive_time(tracer.spans, f"run-{k}", "frame.integrate_frame")
        )
    problems = []
    for label, rows in (("run", run_rows), ("verify", verify_rows)):
        if any(calls != rows[0][1] for _, calls in rows):
            problems.append(f"{label} call counts differ between traced attempts")

    def med(rows, name):
        return statistics.median(self_s.get(name, 0.0) for self_s, _ in rows)

    metrics = {}
    for name in tr.LAYERS:
        metrics[f"{name}_s"] = (med(run_rows, name), "s")
        metrics[f"{name}_calls"] = (run_rows[0][1].get(name, 0), "count")
    metrics["cli.run_pipeline_self_s"] = (med(run_rows, tr.RUN_ROOT), "s")
    metrics["cli.verify_command_self_s"] = (med(verify_rows, tr.VERIFY_ROOT), "s")
    for name in VERIFY_LAYERS:
        metrics[f"verify.{name}_s"] = (med(verify_rows, name), "s")
        metrics[f"verify.{name}_calls"] = (verify_rows[0][1].get(name, 0), "count")
    metrics["frame.integrate_frame_incl_s"] = (statistics.median(incl), "s")
    traced = statistics.median(traced_run_s)
    untraced = statistics.median(untraced_run_s)
    metrics["trace.run_s"] = (traced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "fraction")
    return metrics, problems


def blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("name")
    except (KeyError, TypeError, ValueError):
        return None


def measure(workload, seed, seconds, trace, work_dir):
    raw = make_config(workload, seed)
    tracer = tr.Tracer() if trace else None
    outcomes = []
    traced_numbers = []
    start = time.perf_counter()
    deadline = start + seconds
    durations = []
    kept = None  # directory of the last passing untraced attempt
    cal_s = []
    number = 0
    while True:
        use_tracer = tracer is not None and number % 2 == 1
        t = time.perf_counter()
        reps = CAL_REPS
        if durations:
            reps = max(reps, round(CAL_SHARE * durations[-1] / statistics.median(cal_s)))
        cal_s.extend(calibrate() for _ in range(reps))
        if use_tracer:
            tracer.install()
        out_dir = work_dir / f"attempt-{number}"
        try:
            outcome = attempt(raw, out_dir, tracer if use_tracer else None, number)
        finally:
            if use_tracer:
                tracer.uninstall()
        durations.append(time.perf_counter() - t)
        outcome["traced"] = use_tracer
        outcomes.append(outcome)
        if outcome["pass"] and not use_tracer:
            if kept is not None:
                shutil.rmtree(kept)
            kept = out_dir
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        if use_tracer and outcome["pass"]:
            traced_numbers.append(number)
        number += 1
        # In trace mode, keep going until one untraced and one traced
        # attempt are done; otherwise stop before the next would overrun.
        need_more = tracer is not None and number < 2
        next_end = time.perf_counter() + statistics.median(durations)
        if not need_more and next_end + statistics.median(cal_s) * CAL_REPS > deadline:
            break
    # Spend what is left of the budget on more verify samples of the kept
    # directory; verify is idempotent, so each one is a full attempt of it.
    cal_time = statistics.median(cal_s) * CAL_REPS
    while kept is not None and not trace:
        verify_times = [o["verify_s"] for o in outcomes if "verify_s" in o]
        next_end = time.perf_counter() + statistics.median(verify_times)
        if next_end + 2 * cal_time > deadline:
            break
        cal_s.extend(calibrate() for _ in range(CAL_REPS))
        outcome = verify_once(kept)
        outcome["traced"] = False
        outcomes.append(outcome)
    cal_s.extend(calibrate() for _ in range(CAL_REPS))
    elapsed = time.perf_counter() - start

    ok = [o for o in outcomes if o["pass"]]
    untraced = [o for o in ok if not o["traced"]]
    problems = sorted({o["error"] for o in outcomes if o["error"]})
    runs = [o for o in ok if "run_s" in o]
    prints = sorted({o["fingerprint"] for o in runs})
    if len(prints) > 1:
        problems.append("result fingerprint differs between attempts")
    result = {
        "workload": workload,
        "seed": seed,
        "config_seed": raw["seed"],
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(ok),
        "measured_s": elapsed,
        "cal_s": cal_s,
        "run_s": [o["run_s"] for o in runs if not o["traced"]],
        "verify_s": [o["verify_s"] for o in untraced],
        "artifact_bytes": [o["artifact_bytes"] for o in runs],
        "fingerprint": prints[0] if len(prints) == 1 else prints,
        "seed_attempts": sorted({o["seed_attempts"] for o in runs}),
        "flags": sorted({f for o in runs for f in o["flags"]}),
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if tracer is not None:
        if not untraced or not traced_numbers:
            problems.append("trace run needs one passing untraced and traced attempt")
        else:
            metrics, trace_problems = traced_metrics(
                tracer,
                traced_numbers,
                [o["run_s"] for o in runs if o["traced"]],
                result["run_s"],
            )
            problems.extend(trace_problems)
            metrics["cli.seed_attempts"] = (
                max(result["seed_attempts"]), "count"
            )
            result["layers"] = metrics
        result["spans_file"] = write_spans(tracer.spans, workload, seed)
    result["problems"] = problems
    return result


def write_spans(spans, workload, seed):
    """Write every span as one JSON list per line, gzip-compressed."""
    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl.gz"
    out.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(out, "wt") as fh:
        fh.write('["name","start","end","parent","run_id"]\n')
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return str(out.relative_to(ROOT))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    work_dir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
