"""Benchmark of the ``colorspan`` command line, run from a source checkout.

    python3 perfbench/run.py --workload many-points --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``many-points``
and ``certify-sweep``.  The load is closed-loop: one
client calling ``colorspan.cli.main`` in this process, one operation at a
time.  The program is imported from ``src/`` of the checkout.

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs two trace passes, each in its own
process (a warm-up, then rounds in which each operation runs untraced and
traced), checks that the deterministic counters repeat exactly and that
every wrapper the workload should reach fired, and reports the per-layer
metrics; ``--seconds`` does not apply to it.  Spans go to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the benchmark could not run at all (for example, no ``src/colorspan``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
TRACE_PASS_TIMEOUT_S = 85


def _fail(message: str):
    print(message, file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Import the checkout's program and the harness, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import colorspan
    except ImportError as exc:
        _fail(f"cannot import colorspan from {src}: {exc}")
    if not Path(colorspan.__file__).resolve().is_relative_to(src):
        _fail(f"colorspan was imported from {colorspan.__file__}, not from {src}")
    import harness
    import workloads

    return harness, workloads


def _trace_child(workload: str, seed: int, out: Path) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--trace-pass", str(out),
    ]
    subprocess.run(cmd, check=True, timeout=TRACE_PASS_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-pass", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    harness, workloads = _load_program()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace_pass is not None:
            report = harness.trace_pass(workload, args.seed, workdir)
            args.trace_pass.write_text(json.dumps(report))
            return 0
        if args.trace:
            passes = [
                _trace_child(args.workload, args.seed, workdir / f"pass{i}.json") for i in (1, 2)
            ]
            OUT.mkdir(exist_ok=True)
            for i, p in enumerate(passes, start=1):
                name = f"trace-{args.workload}-seed{args.seed}-pass{i}.json"
                (OUT / name).write_text(json.dumps(p))
            result, rows = harness.traced_report(passes)
        else:
            result, rows = harness.timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in harness.table(args.workload, rows):
        print(line)
    for note in result.pop("notes"):
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
