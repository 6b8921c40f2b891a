"""The benchmark's metrics: names, units, direction, and what they move.

End-to-end metrics are measured with tracing off and reported on every
workload.  Each workload has one headline operation, so the generic
``op_*`` names mean, per workload:

* ``repeat-queries``: a repeated question (``query_ms_*``; ``ops_per_s``
  is ``served_rps``);
* ``live-append``: the two questions asked right after an append
  (``fresh_ms_*``, summed over the pair, so the distribution is not split
  between cheap task-level and dearer job-level answers);
* ``regression-diff``: one ``diff`` process from start to exit (``diff_s``).

Per-layer metrics come from the traced run.  ``PER_LAYER`` records, for
each, the end-to-end metrics and workloads it should move, so a change can state
its prediction before it is written.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# name -> (unit, better, bound)
# Timing bounds are the widest allowed: on a shared 2-vCPU VM the speed of
# the whole machine moves by 10-25% between consecutive runs.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "op_ms_p50": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "precision_mean": ("ratio", "higher", 0.1),
    "generality_mean": ("ratio", "higher", 0.2),
}

# The workload-specific name of each headline metric, printed beside it.
ALIASES = {
    "repeat-queries": {
        "op_ms_p50": "query_ms_p50",
        "ops_per_s": "served_rps",
    },
    "live-append": {
        "op_ms_p50": "fresh_ms_p50",
        "ops_per_s": "cycles_per_s",
    },
    "regression-diff": {
        "op_ms_p50": "diff_ms (diff_s x 1000)",
        "ops_per_s": "diffs_per_s",
    },
}

RQ, LA, RD = "repeat-queries", "live-append", "regression-diff"

# name -> (unit, better, [(end-to-end metric, workload), ...])
PER_LAYER = {
    "http.overhead_ms_p50": ("ms", "lower", [("op_ms_p50", RQ), ("ops_per_s", RQ)]),
    "protocol.decode_ms": ("ms", "lower", [("op_ms_p50", RQ)]),
    "service.query_ms_p50": ("ms", "lower", [("query_ms_tail", RQ)]),
    "service.query_ms_p99": ("ms", "lower", [("query_ms_tail", RQ)]),
    "service.dedup_share": ("ratio", "higher", [("ops_per_s", RQ)]),
    "service.submissions": ("count", "higher", [("ops_per_s", RQ)]),
    "catalog.read_wait_ms": ("ms", "lower", [("query_ms_tail", RQ), ("op_ms_p50", LA)]),
    "catalog.write_wait_ms": ("ms", "lower", [("append_ms_tail", LA)]),
    "session.explanation_hit_ratio": ("ratio", "higher", [("op_ms_p50", RQ)]),
    "session.explanation_lookups": ("count", "higher", [("op_ms_p50", RQ)]),
    "session.matrix_hit_ratio": ("ratio", "higher", [("op_ms_p50", LA)]),
    "session.matrix_lookups": ("count", "higher", [("op_ms_p50", LA)]),
    "session.append_invalidations": ("count", "lower", [("op_ms_p50", LA)]),
    "session.singleflight_shared": ("count", "higher", [("ops_per_s", RQ)]),
    "pxql.parse_ms": ("ms", "lower", [("op_ms_p50", RQ)]),
    "queries.find_pair_ms": ("ms", "lower", [("op_ms_p50", LA), ("op_ms_p50", RD)]),
    "store.extend_ms": ("ms", "lower", [("append_ms_p50", LA)]),
    "store.flush_appends_ms": ("ms", "lower", [("append_ms_p50", LA)]),
    "store.record_block_ms": ("ms", "lower", [("op_ms_p50", LA), ("op_ms_p50", RD)]),
    "store.block_extends_per_build": ("ratio", "higher", [("append_ms_p50", LA)]),
    "store.block_builds": ("count", "lower", [("append_ms_p50", LA)]),
    "store.block_extends": ("count", "higher", [("append_ms_p50", LA)]),
    "ingest.load_ms": ("ms", "lower", [("op_ms_p50", RD), ("setup_s", RQ), ("setup_s", LA)]),
    "pairkernel.enumerate_ms": ("ms", "lower", [("op_ms_p50", RD), ("op_ms_p50", LA)]),
    "pairkernel.candidates": ("count", "lower", [("op_ms_p50", RD)]),
    "pairkernel.within_group_candidates": ("count", "lower", [("op_ms_p50", RD)]),
    "pairkernel.kept_share": ("ratio", "higher", [("op_ms_p50", RD)]),
    "pairshard.evaluate_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "pairshard.related_share": ("ratio", "higher", [("op_ms_p50", RD)]),
    "pairshard.forks": ("count", "lower", [("op_ms_p50", RD)]),
    "pairshard.reuses": ("count", "higher", [("op_ms_p50", RD)]),
    "sampling.stratify_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "examples.matrix_ms": ("ms", "lower", [("op_ms_p50", LA), ("op_ms_p50", RD)]),
    "examples.matrix_rows": ("count", "lower", [("op_ms_p50", LA), ("op_ms_p50", RD)]),
    "ml.search_ms": ("ms", "lower", [("op_ms_p50", LA)]),
    "explainer.grow_ms": ("ms", "lower", [("op_ms_p50", LA)]),
    "explanation.measure_ms": ("ms", "lower", [("op_ms_p50", LA)]),
    "detectors.skew_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "detectors.straggler_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "detectors.misconfig_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "detectors.underuse_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "diff.view_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "diff.cross_pair_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "diff.serialize_ms": ("ms", "lower", [("op_ms_p50", RD)]),
    "client.append_ms_p50": ("ms", "lower", [("append_ms_p50", LA)]),
    "client.append_ms_tail": ("ms", "lower", [("append_ms_tail", LA)]),
    "trace.ops": ("count", "higher", [("ops_per_s", RQ), ("ops_per_s", LA), ("ops_per_s", RD)]),
    "trace.overhead_share": ("ratio", "lower", [("op_ms_p50", RQ), ("op_ms_p50", LA), ("op_ms_p50", RD)]),
}

def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest nearest-rank percentile that
    has at least 10 samples beyond it.  With 21 samples or fewer that would
    not lie above the median, so the median is returned instead."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank <= math.ceil(len(ordered) / 2):
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def windowed_tail(
    seconds: float, window_s: float, timed: Sequence[tuple[float, float]]
) -> tuple[float, float, int]:
    """The median over equal windows of a ``seconds``-long phase of each
    window's :func:`tail`.

    ``timed`` holds ``(completion offset in seconds, sample)`` pairs; the
    phase is cut into ``round(seconds / window_s)`` windows (at least one),
    and samples completing after the phase fall into the last.  A single
    far tail sample moves one window's tail, not the result.  Returns
    ``(value, median percentile, windows)``.
    """
    count = max(1, round(seconds / window_s))
    windows: dict[int, list[float]] = {}
    for offset, sample in timed:
        index = min(int(offset * count / seconds), count - 1)
        windows.setdefault(index, []).append(sample)
    tails = [tail(samples) for samples in windows.values()]
    return (
        statistics.median(value for value, _ in tails),
        statistics.median(percentile for _, percentile in tails),
        len(tails),
    )


def ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0
