"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that clean code gives an error rate of 0 and repeating counters,
and that the error rate rises when a wrong answer is injected: a
``check --debug-perturb`` call, and corrupted records fed to the verifier.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from dataclasses import dataclass

import run

harness, workloads = run._load_program()
import verify  # noqa: E402  (importable once the program is on the path)

SEED = 3
TINY = (
    workloads.PointsWorkload("tiny-colors", n=300, t=8, distribution="uniform"),
    workloads.PointsWorkload("tiny-points", n=3000, t=4, distribution="clusters"),
    workloads.SweepWorkload("tiny-sweep", per_k=1),
)


@dataclass(frozen=True)
class PerturbedCheck(workloads.Op):
    @property
    def argv(self) -> list[str]:
        return super().argv + ["--debug-perturb", "1e-3"]


@dataclass(frozen=True)
class WrongAnswers(workloads.SweepWorkload):
    def setup(self, seed, workdir):
        files, ops = super().setup(seed, workdir)
        checks = [op for op in ops if op.kind == "check"]
        return files, ops + [PerturbedCheck("check", op.file, graph=op.graph) for op in checks]


def check_printed(lines: list[str], result: dict, declared: list[dict]) -> None:
    """Every declared metric appears in the table and the result line,
    with the declared unit."""
    assert set(result["metrics"]) == {m["name"] for m in declared}, sorted(result["metrics"])
    for m in declared:
        pattern = rf"\s{re.escape(m['name'])}\s+\S+\s{re.escape(m['unit'])}$"
        assert any(re.search(pattern, line) for line in lines), f"{m['name']} not printed"
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m


def corrupted_records_flagged(workdir) -> None:
    files, ops = TINY[1].setup(SEED, workdir)
    harness.write_files(files)
    points = verify.Points(ops[0].file.read_text())
    for op in ops:
        _, rc, out = harness.run_op(op)
        assert rc == 0 and not verify.solve_problems(out, points, op.objective), out
        rec = json.loads(out)
        a, b = rec["pairs"][0]
        same_color = [
            int(i) for i in points.classes[int(points.colors[a])] if i != a
        ]
        corruptions = {
            "value": {**rec, "value": rec["value"] * (1 + 1e-6)},
            "dropped pair": {**rec, "pairs": rec["pairs"][1:]},
            "moved endpoint": {**rec, "pairs": [[same_color[0], b]] + rec["pairs"][1:]},
        }
        for what, bad in corruptions.items():
            problems = verify.solve_problems(json.dumps(bad), points, op.objective)
            assert problems, f"{op.objective}: corrupted {what} not flagged"
    verifier = harness.Verifier()
    verifier.add(op, 0, out)
    verifier.add(op, 0, out.replace('"value": ', '"value": 1'))
    assert verifier.finish()[0] == 1, "repeat drift not flagged"


def corrupted_reports_flagged(workdir) -> None:
    """A perturbed check report fails even with exit code 0, and so does
    a certify report whose answers were flipped."""
    files, ops = TINY[2].setup(SEED, workdir)
    harness.write_files(files)
    check = next(op for op in ops if op.kind == "check" and not op.graph)
    _, rc, out = harness.run_op(PerturbedCheck("check", check.file))
    assert rc == 5 and verify.check_problems(out.replace("MISMATCH", "ok"), graph=False)
    certify = next(op for op in ops if op.kind == "certify")
    _, rc, out = harness.run_op(certify)
    graph = verify.Graph(certify.file.read_text())
    assert rc == 0 and not verify.certify_problems(out, graph, certify.k), out
    flipped = out.replace("=true", "=TMP").replace("=false", "=true").replace("=TMP", "=false")
    assert verify.certify_problems(flipped, graph, certify.k), "flipped certify not flagged"


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in TINY:
            result, rows = harness.timed_run(workload, SEED, 0.5, workdir)
            assert result["failed"] == 0 and rows["error_rate"][0] == 0, result["notes"]
            check_printed(harness.table(workload.name, rows), result, bench["end_to_end"])

            passes = [harness.trace_pass(workload, SEED, workdir) for _ in range(2)]
            result, rows = harness.traced_report(passes)
            assert result["correct"], result["notes"]
            check_printed(harness.table(workload.name, rows), result, bench["per_layer"])
            for p in passes:
                assert abs(p["self_sum_s"] - p["traced_wall_s"]) <= 0.01 * p["traced_wall_s"], p

        wrong = WrongAnswers("wrong-answers", per_k=1)
        result, rows = harness.timed_run(wrong, SEED, 0.5, workdir)
        assert result["failed"] > 0 and rows["error_rate"][0] > 0, rows["error_rate"]
        assert all("exit code 5" in note for note in result["notes"]), result["notes"]

        corrupted_records_flagged(workdir)
        corrupted_reports_flagged(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
