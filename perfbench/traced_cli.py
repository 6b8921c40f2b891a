"""Run the program's command line with the layer wrappers installed.

Usage::

    python perfbench/traced_cli.py SPANS.json <repro-perfxplain arguments>

The wrappers from ``layers.PROGRAM_TARGETS`` are installed before the
command runs; the recorded spans and the exit counters are written to
``SPANS.json`` when the process exits (for ``serve``, after SIGINT shuts
the server down).  Only the traced benchmark run starts the program this
way.
"""

from __future__ import annotations

import atexit
import sys


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    # Import every layer first so the wrappers can replace each imported
    # name, including the ones imported lazily inside function bodies.
    import repro.cli
    import repro.core.sampling  # noqa: F401
    import repro.detectors.base  # noqa: F401
    import repro.ml.matrix  # noqa: F401

    from layers import PROGRAM_TARGETS, exit_snapshot
    from spans import Recorder, install

    recorder = Recorder()
    missing, _ = install(recorder, PROGRAM_TARGETS)

    def write_spans() -> None:
        recorder.dump(spans_path, {"missing": missing, **exit_snapshot(recorder)})

    atexit.register(write_spans)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
