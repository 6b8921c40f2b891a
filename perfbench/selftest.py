"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload, on tiny inputs and a short run, it checks that:

* the untraced and the traced run both exit with code 0 and print, as their
  last line, every metric of their mode with its unit;
* no operation failed (``failed_share`` is 0);
* a run with one deliberately corrupted answer counts it as failed, so the
  output checks cannot pass silently.

It also checks that ``BENCHMARK.json`` lists exactly the metrics the
harness defines, and that the benchmark exits with an error, printing no
result, in a directory that holds only the benchmark and no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("repeat-queries", "live-append", "regression-diff")
SECONDS = "2"
TIMEOUT_S = 300


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def result_of(process: subprocess.CompletedProcess, what: str) -> dict:
    if process.returncode != 0:
        raise AssertionError(f"{what}: exit {process.returncode}\n{process.stderr[-3000:]}")
    document = json.loads(process.stdout.strip().splitlines()[-1])
    if set(document) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: unexpected result keys {sorted(document)}")
    return document


def check_metrics(document: dict, table: dict, what: str) -> None:
    metrics = document["metrics"]
    if set(metrics) != set(table):
        raise AssertionError(f"{what}: metrics {sorted(set(metrics) ^ set(table))} differ")
    for name, entry in metrics.items():
        if entry["unit"] != table[name][0] or not isinstance(entry["value"], float):
            raise AssertionError(f"{what}: bad entry for {name}: {entry}")


def check_workload(workload: str) -> None:
    base = ["--workload", workload, "--seed", "3", "--seconds", SECONDS, "--tiny"]
    for trace, table in (("0", END_TO_END), ("1", PER_LAYER)):
        what = f"{workload} --trace {trace}"
        document = result_of(run(ROOT, *base, "--trace", trace), what)
        check_metrics(document, table, what)
        if not document["correct"] or document["failed"] != 0 or document["attempted"] < 1:
            raise AssertionError(f"{what}: failed {document['failed']} of {document['attempted']}")
        if trace == "0":
            zero = [name for name, entry in document["metrics"].items() if entry["value"] == 0]
            if zero:
                raise AssertionError(f"{what}: end-to-end metrics read 0: {zero}")
    what = f"{workload} with a corrupted answer"
    document = result_of(run(ROOT, *base, "--corrupt-answer"), what)
    if document["correct"] or document["failed"] < 1:
        raise AssertionError(f"{what}: the corrupted answer was not counted as failed")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    if listed != END_TO_END:
        raise AssertionError("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if listed != {name: entry[:2] for name, entry in PER_LAYER.items()}:
        raise AssertionError("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from the harness")


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        process = run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
        if process.returncode == 0 or process.stdout.strip():
            raise AssertionError("the benchmark ran without a program to measure")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_benchmark_json()
    check_refuses_without_program()
    for workload in WORKLOADS:
        check_workload(workload)
        print(f"ok {workload}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
