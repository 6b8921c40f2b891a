"""End-to-end benchmark of the PerfXplain ``serve`` service and ``diff`` command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload repeat-queries --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``repeat-queries``, ``live-append`` and
``regression-diff`` (see ``workload_runs.WORKLOADS`` for why each exists and its
input sizes).  Inputs are generated from ``--seed``; the program is started
from the checkout's ``src/`` tree and reached only through its command line
and HTTP service.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced program, each
tagged with the end-to-end metric it should move.  Human-readable lines come
first; the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The exit code is 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("repeat-queries", "live-append", "regression-diff")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: tiny inputs, and one deliberately corrupted answer.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-answer", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Child processes inherit an ignored SIGINT from a background parent;
    # a handler here makes them start with the default, so ``serve`` shuts
    # down cleanly on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    import workload_runs
    from metrics import ALIASES, END_TO_END, PER_LAYER
    from program import Program

    workload = workload_runs.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    program = Program(ROOT, work)
    ctx = workload_runs.Context(
        program=program,
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        corrupt=args.corrupt_answer,
        clients=max(1, min(2, os.cpu_count() or 1)),
    )
    try:
        result = workload.run(ctx)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: workload {args.workload} could not run", file=sys.stderr)
        return 1
    finally:
        program.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    table = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(table) - set(result.metrics))
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"workload {workload.name}: {workload.sizes(args.tiny)}")
    print(f"  why: {workload.why}")
    for note in result.notes:
        print(f"  {note}")
    aliases = ALIASES[workload.name]
    for name in table:
        unit = table[name][0]
        label = f"{name} [{aliases[name]}]" if name in aliases else name
        line = f"  {label} = {result.metrics[name]:.6g} {unit}"
        if args.trace:
            moves = ", ".join(f"{metric} on {where}" for metric, where in PER_LAYER[name][2])
            line += f"  -> {moves}"
        print(line)
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"  failed_share = {share:.6g} ratio ({result.failed} of {result.attempted})")
    print(
        json.dumps(
            {
                "correct": result.failed == 0 and result.attempted > 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": float(result.metrics[name]), "unit": table[name][0]}
                    for name in table
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
