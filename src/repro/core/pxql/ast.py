"""PXQL abstract syntax: operators, comparisons and conjunctions.

Every predicate is a conjunction ``phi_1 AND ... AND phi_m`` where each
``phi_i`` has the form ``feature op constant`` (Section 3.2).  Evaluation is
over a pair-feature vector (a mapping from pair-feature name to value); a
missing value never satisfies a comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.logs.records import FeatureValue
from repro.wire import ANY, TEXT, Spec, Wire, wire


class Operator(enum.Enum):
    """Comparison operators supported by PXQL."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @classmethod
    def from_symbol(cls, symbol: str) -> "Operator":
        """Parse an operator symbol (accepting common aliases)."""
        if symbol not in _ALIASES:
            raise ValueError(f"unknown operator symbol: {symbol!r}")
        return _ALIASES[symbol]


#: Every accepted operator symbol, common aliases included.
_ALIASES = {
    "=": Operator.EQ, "==": Operator.EQ,
    "!=": Operator.NE, "<>": Operator.NE, "≠": Operator.NE,
    "<": Operator.LT, "<=": Operator.LE, "≤": Operator.LE,
    ">": Operator.GT, ">=": Operator.GE, "≥": Operator.GE,
}


def _values_comparable(a: Any, b: Any) -> bool:
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if numeric(a) and numeric(b):
        return True
    return type(a) is type(b)


#: An operator on the wire: its canonical symbol (aliases are accepted).
_OPERATOR = Spec(
    "an operator symbol",
    lambda value: isinstance(value, str),
    Operator.from_symbol,
    lambda operator: operator.value,
)


@dataclass(frozen=True)
class Comparison(Wire):
    """An atomic predicate ``feature op value``.

    Its wire form is symbolic: ``{"feature", "op", "value"}`` with the
    operator's symbol, so operator and value types survive a round trip.
    """

    WHAT = "a comparison"

    feature: str = wire(TEXT)
    operator: Operator = wire(_OPERATOR, key="op")
    value: FeatureValue = wire(ANY)

    def evaluate(self, pair_values: Mapping[str, FeatureValue]) -> bool:
        """Whether the comparison holds on a pair-feature vector.

        A missing feature value (``None`` or absent) never satisfies the
        comparison, matching the semantics used throughout the paper.
        """
        return self.evaluate_value(pair_values.get(self.feature))

    def evaluate_value(self, actual: FeatureValue) -> bool:
        """Whether the comparison holds on one already-extracted value.

        This is the scalar core of :meth:`evaluate`; the columnar pair
        kernels (:mod:`repro.core.pairkernel`) map it over whole derived
        columns when no specialised vector path applies.
        """
        if actual is None:
            return False
        if self.operator is Operator.EQ:
            return actual == self.value
        if self.operator is Operator.NE:
            return actual != self.value
        if not _values_comparable(actual, self.value):
            return False
        try:
            if self.operator is Operator.LT:
                return actual < self.value
            if self.operator is Operator.LE:
                return actual <= self.value
            if self.operator is Operator.GT:
                return actual > self.value
            if self.operator is Operator.GE:
                return actual >= self.value
        except TypeError:
            return False
        raise AssertionError(f"unhandled operator {self.operator}")

    def __str__(self) -> str:
        value = self.value
        if isinstance(value, str) and (" " in value or not value):
            value = f"'{value}'"
        return f"{self.feature} {self.operator.value} {value}"


@dataclass(frozen=True)
class Predicate:
    """A conjunction of atomic comparisons; the empty conjunction is true."""

    atoms: tuple[Comparison, ...] = ()

    @classmethod
    def of(cls, *atoms: Comparison) -> "Predicate":
        """Build a predicate from comparisons."""
        return cls(atoms=tuple(atoms))

    @classmethod
    def conjunction(cls, atoms: Iterable[Comparison]) -> "Predicate":
        """Build a predicate from an iterable of comparisons."""
        return cls(atoms=tuple(atoms))

    @property
    def is_true(self) -> bool:
        """Whether this is the trivial (always true) predicate."""
        return not self.atoms

    @property
    def width(self) -> int:
        """Number of atomic comparisons."""
        return len(self.atoms)

    def evaluate(self, pair_values: Mapping[str, FeatureValue]) -> bool:
        """Whether every atom holds on the pair-feature vector."""
        return all(atom.evaluate(pair_values) for atom in self.atoms)

    def features(self) -> list[str]:
        """Pair features referenced by the predicate, in atom order."""
        seen: list[str] = []
        for atom in self.atoms:
            if atom.feature not in seen:
                seen.append(atom.feature)
        return seen

    def extended(self, atom: Comparison) -> "Predicate":
        """A new predicate with one more atom appended."""
        return Predicate(atoms=self.atoms + (atom,))

    def and_then(self, other: "Predicate") -> "Predicate":
        """The conjunction of two predicates (this one's atoms first)."""
        return Predicate(atoms=self.atoms + other.atoms)

    def to_dict(self) -> list[dict[str, Any]]:
        """A JSON-compatible symbolic form: one entry per atom, in order.

        The empty list is the TRUE predicate.  Unlike ``str(predicate)``,
        this form round-trips exactly — operator and value types survive.
        """
        return [atom.to_dict() for atom in self.atoms]

    @classmethod
    def from_dict(cls, data: Iterable[Mapping[str, Any]]) -> "Predicate":
        """Rebuild a predicate from its :meth:`to_dict` form."""
        return cls(atoms=tuple(map(Comparison.from_dict, data)))

    def __str__(self) -> str:
        if not self.atoms:
            return "TRUE"
        return " AND ".join(str(atom) for atom in self.atoms)


#: The trivially-true predicate (an omitted DESPITE clause).
TRUE_PREDICATE = Predicate()

#: A predicate on the wire: the :meth:`Predicate.to_dict` array of atoms.
PREDICATE = Spec(
    "an array of comparisons",
    lambda value: isinstance(value, (list, tuple)),
    Predicate.from_dict,
    Predicate.to_dict,
)
