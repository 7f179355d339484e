"""Benchmark launcher for the curvedflats pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload default --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones (run_s, verify_s, setup_s, peak_rss_mb, artifact_mb,
pass_frac); with ``--trace 1`` they are the per-layer self times and call
counts.  The line before it records the machine, the sample counts and the
sha256 fingerprint of the result arrays.  See perfbench/README.md.

The launcher imports no numpy.  It starts every measuring process itself,
one at a time, with BLAS threads pinned to 1, and waits for each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_config  # noqa: E402

SETUP_PROBES = 15
# run_s and verify_s are given in seconds on a reference machine on which the
# worker's calibration kernel takes CAL_REF_S: wall time scaled by
# CAL_REF_S / (median kernel time in the same run).  Raw wall medians are in
# the info line.
CAL_REF_S = 0.05
DEADLINE_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, timeout):
    """Run a Python child to completion; return the JSON of its last line."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{argv[0]} timed out after {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def machine_record():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "loadavg": list(os.getloadavg()),
        "blas_threads": {var: child_env()[var] for var in THREAD_VARS[:3]},
    }


def measure_setup(raw, deadline):
    """Median of SETUP_PROBES fresh-interpreter set-ups, after one warm-up
    that also compiles bytecode, which users pay only once."""
    probe = str(HERE / "setup_probe.py")
    arg = json.dumps(raw)
    samples = []
    for i in range(SETUP_PROBES + 1):
        result = run_child([probe, arg], timeout=max(5.0, deadline - time.time()))
        if i:
            samples.append(result["setup_s"])
    return samples


def bench_workload(workload, seed, seconds, trace, deadline):
    raw = make_config(workload, seed)
    start_load = list(os.getloadavg())
    setup = [] if trace else measure_setup(raw, deadline)
    worker = run_child(
        [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        timeout=max(5.0, deadline - time.time()),
    )
    machine = machine_record()
    machine["loadavg_start"] = start_load
    machine["loadavg_end"] = machine.pop("loadavg")
    machine["numpy"] = worker["numpy"]
    machine["blas"] = worker["blas"]

    attempted, failed = worker["attempted"], worker["failed"]
    wall = {
        key: statistics.median(worker[key])
        for key in ("run_s", "verify_s", "cal_s") if worker[key]
    }
    problems = list(worker["problems"])
    if trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in worker.get("layers", {}).items()
        }
        if not metrics:
            problems.append("no per-layer metrics")
    else:
        if not worker["run_s"]:
            raise BenchError(f"no passing attempt: {problems}")
        scale = CAL_REF_S / statistics.median(worker["cal_s"])
        metrics = {
            "run_s": {"value": wall["run_s"] * scale, "unit": "s"},
            "verify_s": {"value": wall["verify_s"] * scale, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_bytes"] / 1e6, "unit": "MB"},
            "artifact_mb": {
                "value": statistics.median(worker["artifact_bytes"]) / 1e6,
                "unit": "MB",
            },
            "pass_frac": {
                "value": (attempted - failed) / attempted, "unit": "fraction"
            },
        }
    info = {
        "workload": workload,
        "seed": seed,
        "config_seed": worker["config_seed"],
        "fingerprint": worker["fingerprint"],
        "flags": worker["flags"],
        "wall_median_s": wall,
        "samples": {
            "run_s": len(worker["run_s"]),
            "verify_s": len(worker["verify_s"]),
            "cal_s": len(worker["cal_s"]),
            "setup_s": len(setup),
            "measured_s": worker["measured_s"],
        },
        "problems": problems,
        "spans_file": worker.get("spans_file"),
        "machine": machine,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "curvedflats" / "cli.py").is_file():
        print(f"error: no curvedflats sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.time() + DEADLINE_S * len(names)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            info, result = bench_workload(
                name, args.seed, args.seconds, bool(args.trace), deadline
            )
            print(json.dumps(info))
            if len(names) > 1:
                for metric, entry in result["metrics"].items():
                    print(f"{name:20s} {metric:40s} {entry['value']:.6g} "
                          f"{entry['unit']}")
                    combined["metrics"][f"{name}.{metric}"] = entry
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            else:
                combined = result
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
