"""Explanations and the three quality metrics of Section 3.3.

An explanation is a pair of predicates ``(des', bec)``.  Its quality, with
respect to a query ``(des, obs, exp)`` and a set of labeled job pairs, is
measured by:

* **relevance**  ``P(exp | des' AND des)`` — does the extended despite
  clause pick out the circumstances under which the expected behaviour
  normally holds?
* **precision**  ``P(obs | bec AND des' AND des)`` — among pairs matching
  the because clause (in context), how many behaved as observed?
* **generality** ``P(bec | des' AND des)`` — how many pairs does the
  because clause apply to at all?

The probabilities are estimated over a collection of labeled training
examples (pairs already known to satisfy the query's ``des``, labeled
OBSERVED or EXPECTED).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.core.pxql.ast import PREDICATE, Predicate, TRUE_PREDICATE
from repro.logs.records import FeatureValue
from repro.wire import FLOAT, INT, OBJECT, TEXT, Spec, Wire, nested, wire

#: Threshold evidence on the wire: an object of named numbers.
_EVIDENCE = Spec(
    "an object of numbers",
    lambda value: OBJECT.ok(value) and all(map(FLOAT.ok, value.values())),
    dump=dict,
)


@dataclass(frozen=True)
class ExplanationMetrics(Wire):
    """Quality metrics of one explanation on one example set.

    ``evidence`` carries a technique's quantitative justification beyond
    the three probability estimates — the deterministic detectors
    (:mod:`repro.detectors`) record the threshold comparisons their rules
    fired on (skew ratio, straggler factor, merge-pass counts, ...).  It
    is stored as a sorted tuple of ``(name, value)`` pairs so the frozen
    dataclass stays hashable; a mapping passed to the constructor is
    normalised automatically.
    """

    WHAT = "explanation metrics"

    relevance: float = wire(FLOAT)
    precision: float = wire(FLOAT)
    generality: float = wire(FLOAT)
    support: int = wire(INT)
    evidence: tuple[tuple[str, float], ...] | None = wire(
        _EVIDENCE.or_null(), default=None
    )

    def __post_init__(self) -> None:
        if isinstance(self.evidence, Mapping):
            object.__setattr__(
                self,
                "evidence",
                tuple(sorted((str(k), float(v)) for k, v in self.evidence.items())),
            )
        elif self.evidence is not None:
            object.__setattr__(
                self,
                "evidence",
                tuple(sorted((str(k), float(v)) for k, v in self.evidence)),
            )

    def as_dict(self) -> dict[str, float]:
        """Metrics as a plain all-float dictionary (handy for reports)."""
        data = {
            "relevance": self.relevance,
            "precision": self.precision,
            "generality": self.generality,
            "support": float(self.support),
        }
        return data

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`.

        ``evidence`` is emitted (as a plain dictionary) only when present,
        so serialized metrics from evidence-free techniques are unchanged.
        """
        data = super().to_dict()
        if self.evidence is None:
            del data["evidence"]
        return data

    def with_evidence(
        self, evidence: "Mapping[str, float] | tuple[tuple[str, float], ...]"
    ) -> "ExplanationMetrics":
        """A copy of the metrics carrying (replacing) threshold evidence."""
        return ExplanationMetrics(
            relevance=self.relevance,
            precision=self.precision,
            generality=self.generality,
            support=self.support,
            evidence=evidence,  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class Explanation(Wire):
    """A performance explanation: a despite clause and a because clause.

    Predicates serialize symbolically (one ``{feature, op, value}`` entry
    per atom) rather than as rendered text, so the wire form round-trips
    exactly.
    """

    WHAT = "an explanation"

    because: Predicate = wire(PREDICATE)
    despite: Predicate = wire(PREDICATE, default=TRUE_PREDICATE)
    technique: str = wire(TEXT, default="perfxplain")
    metrics: ExplanationMetrics | None = wire(
        nested(ExplanationMetrics).or_null(), default=None
    )

    @property
    def width(self) -> int:
        """Number of atoms in the because clause."""
        return self.because.width

    def is_applicable(self, pair_values: Mapping[str, FeatureValue]) -> bool:
        """Definition 3: both clauses must hold for the pair of interest."""
        return self.despite.evaluate(pair_values) and self.because.evaluate(pair_values)

    def with_metrics(self, metrics: ExplanationMetrics) -> "Explanation":
        """A copy of the explanation annotated with metrics."""
        return Explanation(
            because=self.because,
            despite=self.despite,
            technique=self.technique,
            metrics=metrics,
        )

    def format(self) -> str:
        """Human-readable rendering, mirroring the paper's output form."""
        lines = []
        if not self.despite.is_true:
            lines.append(f"DESPITE {self.despite}")
        lines.append(f"BECAUSE {self.because}")
        if self.metrics is not None:
            lines.append(
                f"-- precision={self.metrics.precision:.2f} "
                f"generality={self.metrics.generality:.2f} "
                f"relevance={self.metrics.relevance:.2f}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


# --------------------------------------------------------------------- #
# metric estimation over labeled pair sets
# --------------------------------------------------------------------- #


def _count(
    examples: Iterable,
    predicate: Predicate,
) -> tuple[int, int, int]:
    """(matching, matching-and-observed, total) over labeled examples."""
    matching = 0
    matching_observed = 0
    total = 0
    for example in examples:
        total += 1
        if predicate.evaluate(example.values):
            matching += 1
            if example.is_observed:
                matching_observed += 1
    return matching, matching_observed, total


def precision_of(because: Predicate, despite: Predicate, examples: Sequence) -> float:
    """``P(obs | bec AND des')`` over examples already satisfying the query's des."""
    combined = despite.and_then(because)
    matching, matching_observed, _ = _count(examples, combined)
    if matching == 0:
        return 0.0
    return matching_observed / matching


def generality_of(because: Predicate, despite: Predicate, examples: Sequence) -> float:
    """``P(bec | des')`` over examples already satisfying the query's des."""
    in_context = [ex for ex in examples if despite.evaluate(ex.values)]
    if not in_context:
        return 0.0
    matching = sum(1 for ex in in_context if because.evaluate(ex.values))
    return matching / len(in_context)


def relevance_of(despite: Predicate, examples: Sequence) -> float:
    """``P(exp | des')`` over examples already satisfying the query's des."""
    matching, matching_observed, _ = _count(examples, despite)
    if matching == 0:
        return 0.0
    return (matching - matching_observed) / matching


def evaluate_explanation(explanation: Explanation, examples: Sequence) -> ExplanationMetrics:
    """All three metrics of an explanation over a labeled example set."""
    in_context = sum(1 for ex in examples if explanation.despite.evaluate(ex.values))
    return ExplanationMetrics(
        relevance=relevance_of(explanation.despite, examples),
        precision=precision_of(explanation.because, explanation.despite, examples),
        generality=generality_of(explanation.because, explanation.despite, examples),
        support=in_context,
    )
