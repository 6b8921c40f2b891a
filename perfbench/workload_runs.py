"""The three workloads: set-up, timed phase and output checks.

All three are closed loops, because every current caller waits for its
reply (``ServiceClient``, the CLI ``append`` tailer, CLI ``diff``).  Load
comes from this one process, with at most two client threads.

With tracing off a run sets up :data:`SETUPS` times (``setup_s`` is the
median), measures the last set-up for the whole run length and reports the
end-to-end metrics.  The traced run measures half the run length on an
untraced program and half on a traced one; the per-layer metrics come from
the traced half and ``trace.overhead_share`` compares the two halves'
headline latency.  Output checks always run outside the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import random
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import inputs
import layers
from metrics import PER_LAYER, mean, nearest_rank, ratio, tail, windowed_tail
from program import Program, ProgramError, Server
from spans import START, Recorder, install, restore, span_totals

from repro.core.api import PerfXplainSession
from repro.core.pairs import raw_feature_of
from repro.core.report import ReportEntry
from repro.diff.report import DiffReport
from repro.exceptions import ReproError, ServiceError
from repro.ingest import load_execution_log
from repro.service import AppendResponse, QueryResponse, ServiceClient

SETUPS = 3
#: repeat-queries reports the median of per-window tails over windows this long.
TAIL_WINDOW_S = 0.5
CLIENT_TIMEOUT_S = 120.0
#: Fresh answers per live-append run replayed in-process for the check.
REPLAYED_CYCLES = 2
#: Allowed distance of the diff's duration ratio from the injected factor.
RATIO_TOLERANCE = 0.1


@dataclasses.dataclass
class Context:
    program: Program
    work: Path
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    corrupt: bool
    clients: int


@dataclasses.dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Callable[[bool], str]
    run: Callable[[Context], Result]


def canonical(entry: ReportEntry) -> str:
    """An answer's bytes, without the time it took."""
    data = entry.to_dict()
    data.pop("elapsed_ms", None)
    return json.dumps(data, sort_keys=True)


def oracle_answer(session: PerfXplainSession, question: inputs.Question) -> str:
    """What a direct in-process session call answers for ``question``."""
    resolved = session.resolve(question.query)
    explanation = session.explain(
        resolved, width=question.width, technique=question.technique
    )
    return canonical(ReportEntry.for_query(resolved, explanation))


def ask(client: ServiceClient, question: inputs.Question) -> tuple[float, Any]:
    """One request; returns (seconds, response or the transport error)."""
    start = time.perf_counter()
    try:
        response = client.query(
            question.log, question.query, width=question.width, technique=question.technique
        )
    except ServiceError as error:
        response = error
    return time.perf_counter() - start, response


def explanation_quality(entries: list) -> tuple[float, float]:
    explained = [e for e in entries if e is not None and e.metrics is not None]
    return (
        mean([e.metrics.precision for e in explained]),
        mean([e.metrics.generality for e in explained]),
    )


def warm(client: ServiceClient, questions) -> None:
    for question in questions:
        _, response = ask(client, question)
        if not isinstance(response, QueryResponse) or not response.entry.ok:
            raise ProgramError(f"warm-up question {question.label} failed: {response}")


@contextlib.contextmanager
def client_gc_paused() -> Iterator[None]:
    """Keep the benchmark's own garbage collector out of the timed phase.

    The client keeps every response for the checks that follow; without
    this, collections over that growing heap would pause the client threads
    and show up as program latency.  The program's processes are unaffected.
    """
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def snapshot(client: ServiceClient) -> dict:
    return {"logs": client.logs(), "metrics": client.metrics()}


def timed_setups(ctx: Context, setup: Callable[[], Any], teardown: Callable[[Any], None]) -> tuple[Any, list[float]]:
    """Set up :data:`SETUPS` times (once when tracing); keep the last."""
    times = []
    rounds = 1 if ctx.trace else SETUPS
    for index in range(rounds):
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
        if index < rounds - 1:
            teardown(state)
    return state, times


# --------------------------------------------------------------------- #
# per-layer metrics of a traced phase
# --------------------------------------------------------------------- #


def _log_counters(stats: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for entry in stats["logs"].values():
        if not entry.get("loaded"):
            continue
        caches = entry["cache_stats"]
        for cache in ("explanations", "matrices", "record_blocks"):
            for key in ("hits", "misses"):
                name = f"{cache}.{key}"
                totals[name] = totals.get(name, 0) + caches[cache][key]
        counters = {
            "append_invalidations": entry["invalidations"]["append_invalidations"],
            "singleflight_waits": entry["concurrency"]["waits"],
            "block_extends": entry["versions"]["block_extends"],
        }
        for name, value in counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def layer_metrics(
    span_docs: list[dict],
    client: Recorder | None,
    before: dict | None,
    after: dict | None,
    window: tuple[int, int] | None = None,
) -> dict[str, float]:
    """Every per-layer metric that spans and counters give; 0 where unused.

    With ``window`` (``perf_counter_ns`` bounds; the clock is shared by the
    processes of one machine), only spans that start inside it count, so a
    server's set-up and warm-up stay out of the timed phase's totals.
    """
    out = {name: 0.0 for name in PER_LAYER}
    # Span ids are per process, so each dump is aggregated on its own.
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for doc in span_docs:
        spans = doc["spans"]
        if window is not None:
            spans = [span for span in spans if window[0] <= span[START] <= window[1]]
        doc_total, doc_self = span_totals(spans)
        for name, value in doc_total.items():
            total[name] = total.get(name, 0.0) + value
        for name, value in doc_self.items():
            self_time[name] = self_time.get(name, 0.0) + value
    counters: dict[str, float] = {}
    for doc in span_docs:
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    for metric, span in (
        ("catalog.read_wait_ms", "catalog.read_wait"),
        ("catalog.write_wait_ms", "catalog.write_wait"),
        ("pxql.parse_ms", "pxql.parse"),
        ("queries.find_pair_ms", "queries.find_pair"),
        ("store.extend_ms", "store.extend"),
        ("store.flush_appends_ms", "store.flush_appends"),
        ("store.record_block_ms", "store.record_block"),
        ("ingest.load_ms", "ingest.load"),
        ("pairkernel.enumerate_ms", "pairkernel.enumerate"),
        ("sampling.stratify_ms", "sampling.stratify"),
        ("ml.search_ms", "ml.search"),
        ("explanation.measure_ms", "explanation.measure"),
        ("detectors.skew_ms", "detectors.skew"),
        ("detectors.straggler_ms", "detectors.straggler"),
        ("detectors.misconfig_ms", "detectors.misconfig"),
        ("detectors.underuse_ms", "detectors.underuse"),
        ("diff.view_ms", "diff.view"),
        ("diff.cross_pair_ms", "diff.cross_pair"),
        ("diff.serialize_ms", "diff.serialize"),
    ):
        out[metric] = total.get(span, 0.0)
    out["pairshard.evaluate_ms"] = self_time.get("pairshard.evaluate", 0.0)
    out["examples.matrix_ms"] = self_time.get("examples.matrix", 0.0)
    out["explainer.grow_ms"] = self_time.get("explainer.grow", 0.0)

    candidates = counters.get("pairkernel.candidates", 0)
    within = counters.get("pairkernel.within_group_candidates", 0)
    out["pairkernel.candidates"] = candidates
    out["pairkernel.within_group_candidates"] = within
    out["pairkernel.kept_share"] = ratio(candidates, within)
    out["pairshard.related_share"] = ratio(counters.get("pairshard.related", 0), candidates)
    out["examples.matrix_rows"] = counters.get("examples.matrix_rows", 0)

    if client is not None:
        client_total, _ = span_totals(client.spans)
        out["protocol.decode_ms"] = client_total.get("protocol.decode", 0.0)

    if before is not None and after is not None:
        old, new = _log_counters(before["logs"]), _log_counters(after["logs"])
        delta = {key: new.get(key, 0) - old.get(key, 0) for key in new}
        hits, misses = delta["explanations.hits"], delta["explanations.misses"]
        out["session.explanation_lookups"] = hits + misses
        out["session.explanation_hit_ratio"] = ratio(hits, hits + misses)
        hits, misses = delta["matrices.hits"], delta["matrices.misses"]
        out["session.matrix_lookups"] = hits + misses
        out["session.matrix_hit_ratio"] = ratio(hits, hits + misses)
        out["session.append_invalidations"] = delta["append_invalidations"]
        out["session.singleflight_shared"] = delta["singleflight_waits"]
        # Blocks are built once at first load and then extended, so this
        # ratio is over the server's life, not the phase.
        out["store.block_builds"] = new["record_blocks.misses"]
        out["store.block_extends"] = new["block_extends"]
        executed = after["logs"]["executed"] - before["logs"]["executed"]
        deduplicated = after["logs"]["deduplicated"] - before["logs"]["deduplicated"]
        out["service.submissions"] = executed + deduplicated
        out["service.dedup_share"] = ratio(deduplicated, executed + deduplicated)
        ring = after["metrics"]["latency_ms"]["query"]
        out["service.query_ms_p50"] = ring["p50_ms"] or 0.0
        out["service.query_ms_p99"] = ring["p99_ms"] or 0.0
        for key in ("forks", "reuses"):
            out[f"pairshard.{key}"] = (
                after["metrics"]["shard_pool"][key] - before["metrics"]["shard_pool"][key]
            )
    else:
        # A diff process: its counters were snapshotted when it exited.
        for doc in span_docs:
            extra = doc["extra"]
            out["pairshard.forks"] += extra["shard_pool"]["forks"]
            out["pairshard.reuses"] += extra["shard_pool"]["reuses"]
            out["store.block_builds"] += extra["record_blocks"]["misses"]
            out["store.block_extends"] += extra["block_extends"]
    out["store.block_extends_per_build"] = ratio(
        out["store.block_extends"], out["store.block_builds"]
    )
    return out


def read_spans(path: Path) -> dict:
    if not path.is_file():
        raise ProgramError(f"the traced program wrote no spans to {path.name}")
    document = json.loads(path.read_text(encoding="utf-8"))
    for name in document["extra"]["missing"]:
        print(f"perfbench: layer function {name} not found; its metrics read 0", file=sys.stderr)
    return document


class ClientTrace:
    """The benchmark-side wrappers, installed only for the traced phase."""

    def __enter__(self) -> Recorder:
        self.recorder = Recorder()
        _, self.patches = install(self.recorder, layers.CLIENT_TARGETS)
        return self.recorder

    def __exit__(self, *exc_info: object) -> None:
        restore(self.patches)


# --------------------------------------------------------------------- #
# repeat-queries
# --------------------------------------------------------------------- #


def _repeat_loop(url: str, seed: int, clients: int, seconds: float) -> tuple[list, float]:
    """Closed loop: each client thread sends its seeded stream until time is up."""
    results: list[list] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def client_loop(index: int) -> None:
        try:
            client = ServiceClient(url, timeout=CLIENT_TIMEOUT_S)
            stream = inputs.question_stream(seed, index)
            out = results[index]
            barrier.wait()
            start = time.perf_counter()
            while (now := time.perf_counter()) - start < seconds:
                question = next(stream)
                latency, response = ask(client, question)
                out.append((question, latency, response, now + latency - start))
        except BaseException as error:  # reported by the main thread
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return [op for ops in results for op in ops], elapsed


def _check_answers(ops: list, oracle: dict[inputs.Question, str], corrupt: bool) -> int:
    """Count served answers that failed or differ from the in-process oracle."""
    if corrupt and ops:
        question, latency, response, done = ops[0]
        entry = dataclasses.replace(response.entry, first_id="corrupted")
        ops[0] = (question, latency, dataclasses.replace(response, entry=entry), done)
    return sum(
        not isinstance(response, QueryResponse)
        or not response.entry.ok
        or canonical(response.entry) != oracle[question]
        for question, _, response, _ in ops
    )


def repeat_queries(ctx: Context) -> Result:
    result = Result()

    def setup(spans: Path | None = None) -> Server:
        logs = inputs.repeat_logs(ctx.tiny)
        paths = {name: inputs.write_log(ctx.work / f"{name}.jsonl", log) for name, log in logs.items()}
        server = ctx.program.serve(paths, spans)
        warm(ServiceClient(server.url, timeout=CLIENT_TIMEOUT_S), inputs.REPEAT_QUESTIONS)
        return server

    def oracle() -> dict[inputs.Question, str]:
        sessions = {
            name: PerfXplainSession(load_execution_log(ctx.work / f"{name}.jsonl")[0], seed=0)
            for name in ("small", "tiny")
        }
        return {q: oracle_answer(sessions[q.log], q) for q in inputs.REPEAT_QUESTIONS}

    def measure(server: Server, seconds: float) -> tuple[list, float, float]:
        with client_gc_paused():
            ops, elapsed = _repeat_loop(server.url, ctx.seed, ctx.clients, seconds)
        return ops, elapsed, statistics.median(op[1] for op in ops) * 1000.0

    server, setup_times = timed_setups(ctx, setup, lambda s: s.stop())
    ops, elapsed, p50 = measure(server, ctx.seconds / 2 if ctx.trace else ctx.seconds)
    peak = server.stop()
    answers = oracle()
    result.attempted, result.failed = len(ops), _check_answers(ops, answers, ctx.corrupt)

    if not ctx.trace:
        tail_ms, tail_p, windows = windowed_tail(ctx.seconds, TAIL_WINDOW_S, [(op[3], op[1] * 1000.0) for op in ops])
        precision, generality = explanation_quality(
            [op[2].entry.explanation for op in ops if isinstance(op[2], QueryResponse)]
        )
        result.metrics.update(
            setup_s=statistics.median(setup_times),
            peak_rss_mb=peak,
            op_ms_p50=p50,
            ops_per_s=len(ops) / elapsed,
            precision_mean=precision,
            generality_mean=generality,
        )
        result.notes += [
            f"questions: {len(inputs.REPEAT_QUESTIONS)} distinct, {ctx.clients} clients, "
            f"{len(ops)} requests in {elapsed:.2f} s",
            f"query_ms_tail = {tail_ms:.4f} ms: median over {windows} windows of "
            f"{TAIL_WINDOW_S:g} s of each window's tail (p{tail_p:.4g})",
        ]
        return result

    traced_server = setup(ctx.work / "server.spans.json")
    client = ServiceClient(traced_server.url, timeout=CLIENT_TIMEOUT_S)
    before = snapshot(client)
    with ClientTrace() as client_trace:
        start = time.perf_counter_ns()
        traced_ops, _, traced_p50 = measure(traced_server, ctx.seconds / 2)
        window = (start, time.perf_counter_ns())
    after = snapshot(client)
    traced_server.stop()
    result.attempted += len(traced_ops)
    result.failed += _check_answers(traced_ops, answers, False)
    result.metrics.update(
        layer_metrics(
            [read_spans(ctx.work / "server.spans.json")], client_trace, before, after, window
        )
    )
    overheads = sorted(
        op[1] * 1000.0 - op[2].entry.elapsed_ms
        for op in traced_ops
        if isinstance(op[2], QueryResponse) and op[2].entry.elapsed_ms is not None
    )
    result.metrics["http.overhead_ms_p50"] = nearest_rank(overheads, 50) if overheads else 0.0
    result.metrics["trace.ops"] = len(traced_ops)
    result.metrics["trace.overhead_share"] = (traced_p50 - p50) / p50
    return result


# --------------------------------------------------------------------- #
# live-append
# --------------------------------------------------------------------- #


@dataclasses.dataclass
class Cycle:
    append_s: float
    acknowledged: bool
    fresh_s: float
    answers: list  # [(question, seconds, response)]


def _live_loop(client: ServiceClient, stream: list, base: tuple[int, int], seconds: float) -> list[Cycle]:
    """The tailer: append one job with its tasks, ask both questions, repeat."""
    jobs, tasks = base
    cycles = []
    deadline = time.perf_counter() + seconds
    for job, job_tasks in stream:
        if time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        try:
            ack = client.append("live", jobs=[job], tasks=job_tasks)
        except ServiceError as error:
            ack = error
        append_s = time.perf_counter() - start
        jobs, tasks = jobs + 1, tasks + len(job_tasks)
        acknowledged = (
            isinstance(ack, AppendResponse) and ack.num_jobs == jobs and ack.num_tasks == tasks
        )
        start = time.perf_counter()
        answers = [(q, *ask(client, q)) for q in inputs.FRESH_QUESTIONS]
        cycles.append(Cycle(append_s, acknowledged, time.perf_counter() - start, answers))
    return cycles


def _check_cycles(ctx: Context, cycles: list[Cycle], stream: list, log_path: Path) -> int:
    """Count failed appends and answers; replay a seeded sample in-process."""
    failed = sum(not cycle.acknowledged for cycle in cycles)
    for cycle in cycles:
        failed += sum(
            not isinstance(response, QueryResponse) or not response.entry.ok
            for _, _, response in cycle.answers
        )
    picks = sorted(
        random.Random(f"{ctx.seed}:replay").sample(range(len(cycles)), min(REPLAYED_CYCLES, len(cycles)))
    )
    if ctx.corrupt and picks:
        question, seconds, response = cycles[picks[0]].answers[0]
        entry = dataclasses.replace(response.entry, first_id="corrupted")
        cycles[picks[0]].answers[0] = (question, seconds, dataclasses.replace(response, entry=entry))
    log = load_execution_log(log_path)[0]
    session = PerfXplainSession(log, seed=0)
    applied = 0
    for index in picks:
        batch = stream[applied : index + 1]
        log.extend(jobs=[job for job, _ in batch], tasks=[t for _, tasks in batch for t in tasks])
        applied = index + 1
        for question, _, response in cycles[index].answers:
            if not isinstance(response, QueryResponse) or not response.entry.ok:
                continue  # already counted
            if canonical(response.entry) != oracle_answer(session, question):
                failed += 1
    return failed


def live_append(ctx: Context) -> Result:
    result = Result()
    log_path = ctx.work / "live.jsonl"

    def setup(spans: Path | None = None) -> tuple[Server, list, tuple[int, int]]:
        base = inputs.live_base_log(ctx.tiny)
        stream = inputs.append_stream(ctx.seed, ctx.tiny)
        inputs.write_log(log_path, base)
        server = ctx.program.serve({"live": log_path}, spans)
        warm(ServiceClient(server.url, timeout=CLIENT_TIMEOUT_S), inputs.FRESH_QUESTIONS)
        return server, stream, (base.num_jobs, base.num_tasks)

    def run_phase(state, seconds: float) -> tuple[list[Cycle], float]:
        server, stream, base = state
        client = ServiceClient(server.url, timeout=CLIENT_TIMEOUT_S)
        start = time.perf_counter()
        with client_gc_paused():
            cycles = _live_loop(client, stream, base, seconds)
        return cycles, time.perf_counter() - start

    def account(cycles: list[Cycle], stream: list) -> None:
        result.attempted += len(cycles) * (1 + len(inputs.FRESH_QUESTIONS))
        result.failed += _check_cycles(ctx, cycles, stream, log_path)

    state, setup_times = timed_setups(ctx, setup, lambda s: s[0].stop())
    cycles, elapsed = run_phase(state, ctx.seconds / 2 if ctx.trace else ctx.seconds)
    peak = state[0].stop()
    fresh = [cycle.fresh_s * 1000.0 for cycle in cycles]
    appends = [cycle.append_s * 1000.0 for cycle in cycles]
    account(cycles, state[1])

    if not ctx.trace:
        fresh_tail, fresh_p = tail(fresh)
        append_tail, append_p = tail(appends)
        precision, generality = explanation_quality(
            [
                response.entry.explanation
                for cycle in cycles
                for _, _, response in cycle.answers
                if isinstance(response, QueryResponse)
            ]
        )
        result.metrics.update(
            setup_s=statistics.median(setup_times),
            peak_rss_mb=peak,
            op_ms_p50=statistics.median(fresh),
            ops_per_s=len(cycles) / elapsed,
            precision_mean=precision,
            generality_mean=generality,
        )
        result.notes += [
            f"cycles: {len(cycles)} in {elapsed:.2f} s (one append, then "
            f"{len(inputs.FRESH_QUESTIONS)} questions)",
            f"fresh_ms_tail = {fresh_tail:.3f} ms (p{fresh_p:.4g} of {len(fresh)} samples)",
            f"append_ms_p50 = {statistics.median(appends):.3f} ms",
            f"append_ms_tail = {append_tail:.3f} ms (p{append_p:.4g} of {len(appends)} samples)",
        ]
        return result

    spans_path = ctx.work / "server.spans.json"
    traced_state = setup(spans_path)
    client = ServiceClient(traced_state[0].url, timeout=CLIENT_TIMEOUT_S)
    before = snapshot(client)
    with ClientTrace() as client_trace:
        start = time.perf_counter_ns()
        traced_cycles, _ = run_phase(traced_state, ctx.seconds / 2)
        window = (start, time.perf_counter_ns())
    after = snapshot(client)
    traced_state[0].stop()
    account(traced_cycles, traced_state[1])
    result.metrics.update(
        layer_metrics([read_spans(spans_path)], client_trace, before, after, window)
    )
    traced_appends = [cycle.append_s * 1000.0 for cycle in traced_cycles]
    overheads = sorted(
        seconds * 1000.0 - response.entry.elapsed_ms
        for cycle in traced_cycles
        for _, seconds, response in cycle.answers
        if isinstance(response, QueryResponse) and response.entry.elapsed_ms is not None
    )
    result.metrics["http.overhead_ms_p50"] = nearest_rank(overheads, 50) if overheads else 0.0
    result.metrics["client.append_ms_p50"] = statistics.median(traced_appends)
    result.metrics["client.append_ms_tail"] = tail(traced_appends)[0]
    result.metrics["trace.ops"] = len(traced_cycles)
    traced_p50 = statistics.median(cycle.fresh_s * 1000.0 for cycle in traced_cycles)
    base_p50 = statistics.median(fresh)
    result.metrics["trace.overhead_share"] = (traced_p50 - base_p50) / base_p50
    return result


# --------------------------------------------------------------------- #
# regression-diff
# --------------------------------------------------------------------- #


def diff_sizes(tiny: bool) -> tuple[int, int]:
    """(jobs per run, tasks per job)."""
    return (120, 4) if tiny else (700, 14)


def _check_diff(code: int, output: str, reference: str | None) -> tuple[bool, DiffReport | None]:
    if code != 0:
        return False, None
    try:
        report = DiffReport.from_json(output)
    except (ValueError, KeyError, ReproError):
        return False, None
    cited = {delta.feature for delta in report.deltas}
    if report.explanation is not None:
        cited |= {raw_feature_of(atom.feature) for atom in report.explanation.because.atoms}
    ok = (
        report.direction == "regression"
        and abs(report.duration_ratio / inputs.DIFF_SCALE - 1.0) <= RATIO_TOLERANCE
        and "inputsize" in cited
        and (reference is None or output == reference)
    )
    return ok, report


def regression_diff(ctx: Context) -> Result:
    result = Result()
    before_path, after_path = ctx.work / "before.jsonl", ctx.work / "after.jsonl"
    jobs, tasks_per_job = diff_sizes(ctx.tiny)

    def setup() -> None:
        inputs.write_log(before_path, inputs.diff_run(ctx.seed, "before", jobs, tasks_per_job))
        inputs.write_log(after_path, inputs.diff_run(ctx.seed, "after", jobs, tasks_per_job))

    def run_phase(seconds: float, spans: Callable[[int], Path | None]) -> tuple[list, float]:
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            runs.append(ctx.program.diff(before_path, after_path, ctx.clients, 2, spans(len(runs))))
        return runs, time.perf_counter() - start

    _, setup_times = timed_setups(ctx, setup, lambda _: None)
    runs, elapsed = run_phase(ctx.seconds / 2 if ctx.trace else ctx.seconds, lambda _: None)
    if ctx.corrupt:
        runs[0] = (*runs[0][:2], runs[0][2].replace('"regression"', '"improvement"'), runs[0][3])
    reference = None
    report = None
    for _, code, output, _ in runs:
        result.attempted += 1
        ok, checked = _check_diff(code, output, reference)
        if ok:
            reference = reference or output
            report = checked
        else:
            result.failed += 1
    wall_ms = [run[0] * 1000.0 for run in runs]

    if not ctx.trace:
        entries = []
        if report is not None:
            entries = [report.explanation] + [
                outcome.explanation for outcome in report.detectors if outcome.fired
            ]
        precision, generality = explanation_quality(entries)
        tail_ms, tail_p = tail(wall_ms)
        result.metrics.update(
            setup_s=statistics.median(setup_times),
            peak_rss_mb=statistics.median(run[3] for run in runs),
            op_ms_p50=statistics.median(wall_ms),
            ops_per_s=len(runs) / elapsed,
            precision_mean=precision,
            generality_mean=generality,
        )
        result.notes += [
            f"diffs: {len(runs)} in {elapsed:.2f} s, {jobs} jobs x {tasks_per_job} tasks per run, "
            f"--workers {ctx.clients}",
            f"diff_s = {statistics.median(wall_ms) / 1000.0:.3f} s; "
            f"diff_ms_tail = {tail_ms:.1f} ms (p{tail_p:.4g} of {len(wall_ms)} samples)",
        ]
        return result

    traced_runs, _ = run_phase(ctx.seconds / 2, lambda i: ctx.work / f"diff-{i}.spans.json")
    for _, code, output, _ in traced_runs:
        result.attempted += 1
        result.failed += not _check_diff(code, output, reference)[0]
    docs = [read_spans(ctx.work / f"diff-{i}.spans.json") for i in range(len(traced_runs))]
    result.metrics.update(layer_metrics(docs, None, None, None))
    result.metrics["trace.ops"] = len(traced_runs)
    traced_p50 = statistics.median(run[0] * 1000.0 for run in traced_runs)
    base_p50 = statistics.median(wall_ms)
    result.metrics["trace.overhead_share"] = (traced_p50 - base_p50) / base_p50
    return result


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "repeat-queries",
            "Most debugging traffic repeats questions. This is the one workload where "
            "the HTTP layer, protocol codec, executor, per-log read lock and cache "
            "probe do nearly all the work and the explain pipeline does almost none.",
            lambda tiny: (
                f"two grid logs ({'tiny' if tiny else 'small'} and tiny), "
                f"{len(inputs.REPEAT_QUESTIONS)} distinct questions warmed once, "
                "seeded streams from 2 client threads"
            ),
            repeat_queries,
        ),
        Workload(
            "live-append",
            "Puts writes beside reads. The append path is cheap; every answer that "
            "follows rebuilds the whole pipeline on a cold cache. A change that trades "
            "append cost for read cost shows up on one of the two metrics.",
            lambda tiny: (
                f"one {'tiny' if tiny else 'small'}-grid log; each cycle appends one "
                f"simulated job with its tasks and asks {len(inputs.FRESH_QUESTIONS)} "
                "questions (job- and task-level)"
            ),
            live_append,
        ),
        Workload(
            "regression-diff",
            "The only workload with large blocking groups, so candidate enumeration and "
            "kernel evaluation dominate; the only one that loads log files, runs "
            "CrossLogView, the four detectors and the process-sharded ShardPool path.",
            lambda tiny: "two runs of {} jobs x {} tasks; after = {}x input size".format(
                *diff_sizes(tiny), inputs.DIFF_SCALE
            ),
            regression_diff,
        ),
    )
}
