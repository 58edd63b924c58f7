"""Run every workload over several seeds and append one trajectory point.

    python3 perfbench/record.py --label baseline --seeds 1-10 [--trace]

Each run is ``run.py`` in its own process, as the benchmark is meant to be
run.  For every end-to-end metric the point holds the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median.  With ``--trace`` one traced run per workload
(first seed) adds the per-layer metrics.  The point also records the
workloads' instance sizes and the host: ``nproc`` and the Python, numpy
and scipy versions.  Points go to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy
    import scipy

    from workloads import WORKLOADS

    point = {
        "label": args.label,
        "seeds": seeds,
        "run_seconds": bench["run_seconds"],
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "workloads": {},
    }
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for name in names:
        results = []
        for seed in seeds:
            results.append(run(name, seed, bench["run_seconds"], 0))
            print(name, seed, json.dumps(results[-1]["metrics"]), flush=True)
        entry = {
            "why": why[name],
            "instances": WORKLOADS[name].describe(),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m: summary([r["metrics"][m]["value"] for r in results])
                for m in results[0]["metrics"]
            },
        }
        if args.trace:
            traced = run(name, seeds[0], bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
        point["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:14} {metric:16} median {s['median']:.6g} spread {s['spread']:.4f}")

    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    points.append(point)
    TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
