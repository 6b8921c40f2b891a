"""Which layer functions the traced run wraps, and what it counts there.

Each :class:`~spans.Target` names a function at the place callers look it
up.  ``PROGRAM_TARGETS`` are installed in the program's process (the
server or the ``diff`` process) by ``traced_cli.py``; ``CLIENT_TARGETS``
in the benchmark's own client during the traced phase.
"""

from __future__ import annotations

from spans import Recorder, Target


def _keep_log(recorder: Recorder, args: tuple, kwargs: dict, result: object) -> None:
    recorder.kept[id(args[0])] = args[0]


def _within_group(recorder: Recorder, args: tuple, kwargs: dict, result: object) -> None:
    groups = kwargs["groups"] if "groups" in kwargs else args[1]
    recorder.count(
        "pairkernel.within_group_candidates",
        sum(len(group) * (len(group) - 1) for group in groups),
    )


def _candidates(recorder: Recorder, batch: tuple) -> None:
    recorder.count("pairkernel.candidates", len(batch[0]))


def _related(recorder: Recorder, batch: tuple) -> None:
    recorder.count("pairshard.related", len(batch[0]))


def _matrix_rows(recorder: Recorder, args: tuple, kwargs: dict, result: object) -> None:
    recorder.count("examples.matrix_rows", len(result))


def _detector_span(args: tuple) -> str:
    return "detectors." + args[0].name.removeprefix("detect-")


PROGRAM_TARGETS = (
    # Request roots: one span per executed request in the worker thread,
    # so every span below it shares the request's id.
    Target("repro.service.service:PerfXplainService", "_execute_query", "service.query"),
    Target("repro.service.service:PerfXplainService", "_execute_append", "service.append"),
    Target("repro.service.service:PerfXplainService", "_execute_diff", "service.diff"),
    Target("repro.core.locks:RWLock", "acquire_read", "catalog.read_wait"),
    Target("repro.core.locks:RWLock", "acquire_write", "catalog.write_wait"),
    Target("repro.core.pxql.parser", "parse_query", "pxql.parse"),
    Target("repro.core.queries", "find_pair_of_interest", "queries.find_pair"),
    Target("repro.logs.store:ExecutionLog", "extend", "store.extend"),
    Target("repro.logs.store:ExecutionLog", "flush_appends", "store.flush_appends"),
    Target("repro.logs.store:ExecutionLog", "record_block", "store.record_block", hook=_keep_log),
    Target("repro.ingest.loader", "load_execution_log", "ingest.load"),
    Target(
        "repro.core.pairkernel",
        "iter_candidate_batches",
        "pairkernel.enumerate",
        generator=True,
        hook=_within_group,
        on_item=_candidates,
    ),
    Target(
        "repro.core.pairshard",
        "iter_evaluated_batches",
        "pairshard.evaluate",
        generator=True,
        on_item=_related,
    ),
    Target("repro.core.sampling", "stratified_keep_indices", "sampling.stratify"),
    Target("repro.core.examples", "construct_training_matrix", "examples.matrix", hook=_matrix_rows),
    Target("repro.ml.matrix:MatrixView", "best_predicate", "ml.search"),
    Target("repro.core.explainer:PerfXplainExplainer", "explain", "explainer.grow"),
    Target("repro.core.explanation", "evaluate_explanation", "explanation.measure"),
    Target("repro.detectors.base:RuleBasedDetector", "explain", _detector_span),
    Target("repro.diff.view:CrossLogView", "__init__", "diff.view"),
    Target("repro.diff.engine:DiffEngine", "find_cross_pair", "diff.cross_pair"),
    Target("repro.diff.report:DiffReport", "to_json", "diff.serialize"),
)

CLIENT_TARGETS = (
    Target("repro.service.protocol", "parse_response_json", "protocol.decode"),
)


def exit_snapshot(recorder: Recorder) -> dict:
    """Counters read when the program process exits.

    The shard pool's fork/reuse counters, and the block-cache and append
    counters summed over every log whose record blocks were built.
    """
    from repro.core.pairshard import default_shard_pool

    blocks = {"hits": 0, "misses": 0, "evictions": 0}
    extends = 0
    for log in recorder.kept.values():
        for key in blocks:
            blocks[key] += log.block_cache_stats()[key]
        extends += log.append_stats()["block_extends"]
    return {
        "shard_pool": default_shard_pool().stats(),
        "record_blocks": blocks,
        "block_extends": extends,
    }
