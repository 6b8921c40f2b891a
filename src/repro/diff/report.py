"""The structured result of a cross-log diff: what changed, and why.

A :class:`DiffReport` is the wire- and CLI-facing artifact of
:class:`repro.diff.engine.DiffEngine`.  It is a plain frozen dataclass tree
on the declarative codec of :mod:`repro.wire` (the same one every service
message and :class:`repro.core.explanation.Explanation` use), so its
``to_dict``/``from_dict``/``to_json``/``from_json`` round-trip exactly and
decoding rejects any wrong JSON type with a
:class:`~repro.exceptions.ProtocolError`.  A report produced by a direct
engine call, the service executor, the HTTP endpoint and the CLI
serializes to byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.explanation import Explanation
from repro.core.pairs import raw_feature_of
from repro.wire import ANY, BOOL, FLOAT, INT, TEXT, Wire, array, nested, one_of, wire

#: Report directions (by the ratio of median job durations, after/before).
REGRESSION = "regression"
IMPROVEMENT = "improvement"
SIMILAR = "similar"

_DIRECTIONS = (REGRESSION, IMPROVEMENT, SIMILAR)


@dataclass(frozen=True)
class RunSummary(Wire):
    """Size and central tendency of one side of the diff."""

    WHAT = "a run summary"

    run: str = wire(TEXT)
    num_jobs: int = wire(INT)
    num_tasks: int = wire(INT)
    median_job_duration: float = wire(FLOAT)


@dataclass(frozen=True)
class FeatureDelta(Wire):
    """One feature whose distribution moved between the runs.

    For numeric features ``before``/``after`` are per-run medians over
    non-missing values (``None`` when the feature is absent on that side)
    and ``relative_change`` is the signed relative move.  For nominal
    features they are the sorted per-run value sets and
    ``relative_change`` is ``1.0`` (changed) by construction.
    """

    WHAT = "a feature delta"

    feature: str = wire(TEXT)
    kind: str = wire(one_of("numeric", "nominal"))
    before: Any = wire(ANY)
    after: Any = wire(ANY)
    relative_change: float = wire(FLOAT)

    def format(self) -> str:
        """One human-readable line."""
        if self.kind == "numeric":
            before = "absent" if self.before is None else f"{self.before:g}"
            after = "absent" if self.after is None else f"{self.after:g}"
            return (
                f"{self.feature}: {before} -> {after} "
                f"({self.relative_change:+.1%})"
            )
        return f"{self.feature}: {self.before!r} -> {self.after!r}"


@dataclass(frozen=True)
class DetectorOutcome(Wire):
    """One deterministic detector's verdict on one side of the diff."""

    WHAT = "a detector outcome"

    technique: str = wire(TEXT)
    run: str = wire(TEXT)
    fired: bool = wire(BOOL)
    explanation: Explanation | None = wire(nested(Explanation).or_null(), default=None)
    reason: str | None = wire(TEXT.or_null(), default=None)
    code: str | None = wire(TEXT.or_null(), default=None)


@dataclass(frozen=True)
class DiffReport(Wire):
    """What changed between two runs, and why.

    :param before: summary of the baseline run.
    :param after: summary of the run under suspicion.
    :param direction: ``"regression"``, ``"improvement"`` or ``"similar"``.
    :param duration_ratio: median job duration, after over before.
    :param query: the auto-generated cross-run PXQL comparison (text).
    :param first_id: namespaced id of the slower half of the pair of
        interest (``None`` when no cross-run pair satisfied the query).
    :param second_id: namespaced id of the faster half.
    :param explanation: the learned explanation for the pair of interest.
    :param explanation_error: why no learned explanation exists, when so.
    :param detectors: every deterministic detector's verdict on each run.
    :param deltas: config/metric features whose distributions moved.
    """

    TAG = "diff_report"
    WHAT = "a diff report"

    before: RunSummary = wire(nested(RunSummary))
    after: RunSummary = wire(nested(RunSummary))
    direction: str = wire(one_of(*_DIRECTIONS))
    duration_ratio: float = wire(FLOAT)
    query: str = wire(TEXT)
    first_id: str | None = wire(TEXT.or_null(), default=None)
    second_id: str | None = wire(TEXT.or_null(), default=None)
    explanation: Explanation | None = wire(nested(Explanation).or_null(), default=None)
    explanation_error: str | None = wire(TEXT.or_null(), default=None)
    detectors: tuple[DetectorOutcome, ...] = wire(
        array(nested(DetectorOutcome), "an array of detector outcomes"), default=()
    )
    deltas: tuple[FeatureDelta, ...] = wire(
        array(nested(FeatureDelta), "an array of feature deltas"), default=()
    )

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown diff direction {self.direction!r}")

    def cited_features(self) -> frozenset[str]:
        """Raw features the report blames, across all evidence kinds.

        The union of the learned explanation's because-atoms, every fired
        detector's because-atoms, and the delta table — the surface the
        scenario-catalog tests check ground-truth features against.
        """
        cited: set[str] = set()
        if self.explanation is not None:
            cited.update(
                raw_feature_of(atom.feature) for atom in self.explanation.because.atoms
            )
        for outcome in self.detectors:
            if outcome.fired and outcome.explanation is not None:
                cited.update(
                    raw_feature_of(atom.feature)
                    for atom in outcome.explanation.because.atoms
                )
        cited.update(delta.feature for delta in self.deltas)
        return frozenset(cited)

    # Defined here, not inherited: the benchmark's tracer finds a class's
    # methods through the class ``__dict__``.
    def to_json(self, indent: int | None = None) -> str:
        return super().to_json(indent)

    def format(self) -> str:
        """Human-readable multi-line rendering (the CLI's text format)."""
        lines = [
            f"cross-log diff: {self.direction.upper()} — median job duration "
            f"{self.before.median_job_duration:g} s -> "
            f"{self.after.median_job_duration:g} s "
            f"({self.duration_ratio:.2f}x; {self.before.num_jobs} vs "
            f"{self.after.num_jobs} jobs)",
            f"query: {self.query}",
        ]
        if self.first_id is not None and self.second_id is not None:
            lines.append(f"pair of interest: {self.first_id} vs {self.second_id}")
        if self.explanation is not None:
            lines.append("learned explanation:")
            lines.extend(f"  {line}" for line in self.explanation.format().splitlines())
        elif self.explanation_error is not None:
            lines.append(f"learned explanation: none ({self.explanation_error})")
        if self.deltas:
            lines.append("what changed:")
            lines.extend(f"  {delta.format()}" for delta in self.deltas)
        fired = [outcome for outcome in self.detectors if outcome.fired]
        if fired:
            lines.append("detectors fired:")
            for outcome in fired:
                because = (
                    f" — BECAUSE {outcome.explanation.because}"
                    if outcome.explanation is not None
                    else ""
                )
                lines.append(f"  {outcome.technique} on {outcome.run}{because}")
        else:
            lines.append("detectors fired: none")
        return "\n".join(lines)
