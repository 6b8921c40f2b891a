"""Machine-readable result containers for one or many explanations.

A :class:`Report` collects the outcome of answering one or more PXQL
queries — the resolved query, the pair of interest it was bound to, and the
generated :class:`~repro.core.explanation.Explanation` — and serializes the
whole bundle to and from JSON.  The batch API
(:meth:`repro.core.api.PerfXplainSession.explain_batch`) returns one, and
the CLI's ``--format json`` output is a report's :meth:`Report.to_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping
from typing import Any, Iterator

from repro.core.explanation import Explanation
from repro.core.pxql.query import PXQLQuery
from repro.wire import FLOAT, INT, PAIR, TEXT, Wire, decode, nested, wire


@dataclass(frozen=True)
class ReportEntry(Wire):
    """One answered query: the query text, its pair and its explanation.

    :param query: the resolved query in PXQL text form (re-parseable).
    :param first_id: first execution of the pair of interest.
    :param second_id: second execution of the pair of interest.
    :param explanation: the generated explanation.
    :param error: set (instead of ``explanation``) when a query failed and
        the caller asked for failures to be collected rather than raised.
    :param technique: name of the technique that produced the explanation
        (self-describing JSON: consumers need not parse the explanation);
        defaults to the explanation's own.
    :param width: the generated explanation's width (atom count);
        defaults to the explanation's own.
    :param elapsed_ms: wall-clock milliseconds spent answering the query,
        as measured by whichever layer produced the entry (session batch,
        service executor, CLI).
    """

    WHAT = "a report entry"

    query: str = wire(TEXT)
    # Written together as the one ``"pair"`` key.
    first_id: str | None = None
    second_id: str | None = None
    explanation: Explanation | None = wire(nested(Explanation).or_null(), default=None)
    error: str | None = wire(TEXT.or_null(), default=None)
    technique: str | None = wire(TEXT.or_null(), default=None)
    width: int | None = wire(INT.or_null(), default=None)
    elapsed_ms: float | None = wire(FLOAT.or_null(), default=None)

    def __post_init__(self) -> None:
        if self.explanation is not None:
            if self.technique is None:
                object.__setattr__(self, "technique", self.explanation.technique)
            if self.width is None:
                object.__setattr__(self, "width", self.explanation.width)

    @classmethod
    def for_query(
        cls,
        query: PXQLQuery,
        explanation: Explanation | None,
        error: str | None = None,
        elapsed_ms: float | None = None,
    ) -> "ReportEntry":
        """Build an entry from a resolved query object.

        ``technique`` and ``width`` are read off the explanation itself, so
        the entry always describes what was actually generated rather than
        what was requested.
        """
        return cls(
            query=str(query),
            first_id=query.first_id,
            second_id=query.second_id,
            explanation=explanation,
            error=error,
            elapsed_ms=elapsed_ms,
        )

    @property
    def ok(self) -> bool:
        """Whether the query produced an explanation."""
        return self.explanation is not None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        data = super().to_dict()
        data["pair"] = [self.first_id, self.second_id]
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "ReportEntry":
        """Rebuild an entry from its :meth:`to_dict` form.

        Payloads written before the self-describing fields existed (no
        ``technique``/``width``/``elapsed_ms`` keys) still parse; when an
        old payload carries an explanation, ``technique`` and ``width``
        are recovered from it.

        :raises ProtocolError: on any malformed field.
        """
        pair = (None, None)
        if isinstance(data, Mapping) and data.get("pair") is not None:
            pair = decode(cls.WHAT, "pair", PAIR, data["pair"])
        first_id, second_id = pair
        return super().from_dict(data, first_id=first_id, second_id=second_id)


@dataclass
class Report:
    """An ordered collection of answered queries."""

    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, entry: ReportEntry) -> None:
        """Append one entry."""
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ReportEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> ReportEntry:
        return self.entries[index]

    @property
    def explanations(self) -> list[Explanation]:
        """The explanations of the successful entries, in order."""
        return [entry.explanation for entry in self.entries if entry.explanation]

    @property
    def failures(self) -> list[ReportEntry]:
        """The entries whose queries failed."""
        return [entry for entry in self.entries if not entry.ok]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {"entries": [entry.to_dict() for entry in self.entries]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Report":
        """Rebuild a report from its :meth:`to_dict` form."""
        return cls(entries=[ReportEntry.from_dict(e) for e in data.get("entries", ())])

    def to_json(self, indent: int | None = None) -> str:
        """The :meth:`to_dict` form rendered as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        """Rebuild a report from its :meth:`to_json` form."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path, indent: int = 2) -> Path:
        """Write the report as JSON; returns the path written."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json(indent=indent), encoding="utf-8")
        return target

    def format(self) -> str:
        """Human-readable rendering of every entry."""
        blocks: list[str] = []
        for index, entry in enumerate(self.entries, start=1):
            first_line = (entry.query.splitlines() or ["<empty query>"])[0]
            lines = [f"[{index}] {first_line}"]
            if entry.first_id and entry.second_id:
                lines.append(f"    pair: {entry.first_id} vs {entry.second_id}")
            if entry.explanation is not None:
                lines.extend(
                    "    " + line for line in entry.explanation.format().splitlines()
                )
            else:
                lines.append(f"    error: {entry.error}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)
