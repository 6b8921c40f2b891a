"""Start and stop the program's processes: the ``serve`` service and ``diff``.

Every process runs the checkout's ``src/`` tree through its command line
(``python -m repro.cli ...``), or through ``traced_cli.py`` in the traced
run.  The benchmark keeps track of each process it starts and stops and
reaps all of them, also when a workload fails half-way.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_SERVING = re.compile(r"Serving .* on (http://\S+)")


class ProgramError(RuntimeError):
    """The program could not be started or did not answer as expected."""


def _reap(process: subprocess.Popen, timeout: float) -> float | None:
    """Wait for ``process`` to exit; returns its peak RSS in MB.

    ``os.wait4`` gives the child's resource usage, which ``Popen.wait``
    discards.  Returns ``None`` if it did not exit within ``timeout``.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() >= deadline:
            return None
        time.sleep(0.002)


class Server:
    """One running ``serve`` process."""

    def __init__(self, process: subprocess.Popen, url: str) -> None:
        self.process = process
        self.url = url

    def stop(self) -> float:
        """Shut the server down with SIGINT (as a user would) and reap it.

        Returns its peak RSS in MB.  A server that does not exit in time is
        killed, and that is an error.
        """
        if self.process.returncode is not None:
            raise ProgramError("the server exited before it was stopped")
        self.process.send_signal(signal.SIGINT)
        peak = _reap(self.process, STOP_TIMEOUT_S)
        if peak is None:
            self.process.kill()
            _reap(self.process, STOP_TIMEOUT_S)
            raise ProgramError("the server did not shut down on SIGINT")
        return peak


class Program:
    """Launches the program from ``<root>/src`` with files under ``work``.

    With two or more CPUs, the benchmark process (the load generator) and
    ``serve`` share one CPU: the server inherits the benchmark's affinity.
    On a virtual machine an idle virtual CPU halts, and waking it goes
    through the host's scheduler; with client and server on two CPUs every
    request wakes the other CPU, so the latency measured the host's load.
    On a 2-vCPU VM, two sets of ten runs on two CPUs spread 0.18 and 0.47
    of their median query p50; in one set of runs interleaved between the
    two set-ups, served requests per second moved between 304 and 1054 on
    two CPUs and between 642 and 697 on one.  A ``diff`` process and its
    shard workers may use every CPU, since the benchmark only waits for
    them.
    """

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        path = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        self._live: list[subprocess.Popen] = []
        self._all_cpus = None
        if hasattr(os, "sched_setaffinity"):
            cpus = os.sched_getaffinity(0)
            if len(cpus) >= 2:
                self._all_cpus = cpus
                os.sched_setaffinity(0, {max(cpus)})

    def _argv(self, args: list[str], spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "repro.cli", *args]
        return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]

    def _spawn(self, argv: list[str], stdout, stderr, cpus: set[int] | None) -> subprocess.Popen:
        process = subprocess.Popen(
            argv, stdout=stdout, stderr=stderr, env=self.env, cwd=self.work
        )
        self._live.append(process)
        if cpus is not None:
            # Set before the interpreter starts any thread; threads inherit it.
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(process.pid, cpus)
        return process

    def serve(self, logs: dict[str, Path], spans: Path | None = None) -> Server:
        """Start ``serve`` over the named log files on a free port."""
        args = ["serve", "--port", "0"]
        for name, path in logs.items():
            args += ["--log", f"{name}={path}"]
        errors = self.work / f"serve-{len(self._live)}.err"
        with open(errors, "w", encoding="utf-8") as handle:
            process = self._spawn(
                self._argv(args, spans), subprocess.DEVNULL, handle, None
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _SERVING.search(errors.read_text(encoding="utf-8"))
            if match:
                return Server(process, match.group(1))
            if process.poll() is not None:
                break
            time.sleep(0.02)
        text = errors.read_text(encoding="utf-8")[-2000:]
        raise ProgramError(f"serve did not start:\n{text}")

    def diff(
        self, before: Path, after: Path, workers: int, width: int, spans: Path | None = None
    ) -> tuple[float, int, str, float]:
        """Run one local ``diff`` to completion.

        Returns ``(wall seconds, exit code, stdout, peak RSS in MB)``.  The
        wall time runs from process start to process exit, after the report
        is printed.
        """
        args = [
            "diff", "--before", str(before), "--after", str(after),
            "--workers", str(workers), "--width", str(width), "--format", "json",
        ]
        errors = self.work / "diff.err"
        start = time.perf_counter()
        with open(errors, "w", encoding="utf-8") as handle:
            process = self._spawn(
                self._argv(args, spans), subprocess.PIPE, handle, self._all_cpus
            )
            output = process.stdout.read().decode("utf-8")
            process.stdout.close()
            peak = _reap(process, STOP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if peak is None:
            raise ProgramError("diff did not exit after closing its output")
        return elapsed, process.returncode, output, peak

    def stop_all(self) -> None:
        """Kill and reap every process still running (error paths)."""
        for process in self._live:
            if process.returncode is None and process.poll() is None:
                process.kill()
                try:
                    process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        self._live.clear()
