"""One declarative JSON codec for every wire document.

A wire class is a frozen dataclass whose fields are declared with
:func:`wire`, each naming the :class:`Spec` its JSON value must satisfy::

    @dataclass(frozen=True)
    class RunSummary(Wire):
        WHAT = "a run summary"

        run: str = wire(TEXT)
        num_jobs: int = wire(INT)
        median_job_duration: float = wire(FLOAT)

:class:`Wire` derives ``to_dict``/``from_dict``/``to_json``/``from_json``
from the class's field table, computed once per class.  A field without a
default is required on the wire; a field with one may be omitted.  A class
with a ``TAG`` carries it as the document's ``"type"`` key.

Decoding is strict and total: whatever the input, the only exception that
escapes is a :class:`~repro.exceptions.ProtocolError` (code
``invalid_request``), and a field's message always reads
``"<what> requires '<field>' to be <expect>"``.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from dataclasses import MISSING
from typing import Any, Callable, ClassVar, Iterable

from repro.exceptions import ProtocolError


def _same(value: Any) -> Any:
    return value


#: Marks a key missing from a document.
_ABSENT = object()


def _skip_null(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``convert``, passing ``None`` through unchanged."""
    if convert is _same:
        return _same
    return lambda value: None if value is None else convert(value)


class Spec:
    """How one field looks on the wire.

    :param expect: noun phrase for error messages (``"an integer"``).
    :param ok: whether a decoded JSON value is acceptable (default: its
        type is one of ``plain``).
    :param load: JSON value -> attribute (may raise ``ValueError`` and
        friends, or a nested ``ProtocolError``).
    :param dump: attribute -> JSON value.
    :param plain: exact JSON value types that are acceptable and load
        unchanged, so decoding takes them without calling ``ok``/``load``.
    """

    __slots__ = ("expect", "ok", "load", "dump", "plain")

    def __init__(
        self,
        expect: str,
        ok: Callable[[Any], bool] | None = None,
        load: Callable[[Any], Any] = _same,
        dump: Callable[[Any], Any] = _same,
        plain: Iterable[type] = (),
    ) -> None:
        self.expect, self.load, self.dump = expect, load, dump
        self.plain = frozenset(plain)
        self.ok = ok if ok is not None else lambda value: type(value) in self.plain

    def or_null(self) -> Spec:
        """The same spec, also accepting ``null`` (kept as ``None``)."""
        return Spec(
            f"{self.expect} or null",
            lambda value: value is None or self.ok(value),
            _skip_null(self.load),
            _skip_null(self.dump),
            self.plain | {type(None)},
        )


def _is_object(value: Any) -> bool:
    return type(value) is dict or isinstance(value, Mapping)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_name(value: Any) -> bool:
    return isinstance(value, str) and bool(value.strip())


def _is_array(value: Any) -> bool:
    return isinstance(value, (list, tuple))


def _is_pair(value: Any) -> bool:
    if not _is_array(value) or len(value) != 2:
        return False
    return all(item is None or isinstance(item, str) for item in value)


INT = Spec("an integer", plain=(int,))
FLOAT = Spec("a number", _is_number, float, plain=(float,))
BOOL = Spec("a boolean", plain=(bool,))
NAME = Spec("a non-empty string", _is_name)
TEXT = Spec("a string", plain=(str,))
OBJECT = Spec("an object", _is_object, dict, dict)
ANY = Spec(
    "any JSON value",
    lambda value: True,
    plain=(str, int, float, bool, type(None), list, dict),
)
#: The two ids of a pair of interest, written together as ``[first, second]``.
PAIR = Spec("a 2-element array of ids or nulls", _is_pair, tuple, list)


def one_of(*values: Any) -> Spec:
    """A value from a fixed set."""
    expect = "one of " + ", ".join(map(repr, values))
    return Spec(expect, lambda value: value in values)


def array(item: Spec, expect: str) -> Spec:
    """A JSON array whose every element satisfies ``item`` (a tuple in Python)."""
    return Spec(
        expect,
        lambda value: _is_array(value) and all(map(item.ok, value)),
        lambda value: tuple(map(item.load, value)),
        lambda value: list(map(item.dump, value)),
    )


def nested(cls: type[Wire]) -> Spec:
    """A JSON object decoded by another wire class."""
    return Spec(cls.WHAT, OBJECT.ok, cls.from_dict, cls.to_dict)


def wire(
    spec: Spec, default: Any = MISSING, *, key: str | None = None, **options: Any
) -> Any:
    """Declare a wire field; ``options`` go to :func:`dataclasses.field`.

    :param key: the JSON key, when it differs from the attribute name.
    """
    metadata = {"wire": (spec, key)}
    return dataclasses.field(default=default, metadata=metadata, **options)


def _requires(what: str, key: str, spec: Spec) -> str:
    return f"{what} requires {key!r} to be {spec.expect}"


def decode(what: str, key: str, spec: Spec, value: Any) -> Any:
    """Check and load one field value, or raise the field's ProtocolError."""
    if not spec.ok(value):
        raise ProtocolError(_requires(what, key, spec))
    if spec.load is _same:
        return value
    try:
        return spec.load(value)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ProtocolError(f"{_requires(what, key, spec)}: {exc}") from exc


def loads(text: str | bytes, what: str) -> Any:
    """Parse a JSON document, raising ProtocolError when it is not JSON.

    Nesting deep enough to exhaust the parser's recursion limit counts as
    not JSON, and so do bytes that :func:`json.loads` cannot decode.
    """
    try:
        return json.loads(text)
    except (RecursionError, TypeError, ValueError) as exc:
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from exc


#: One row of a class's field table: attribute, JSON key, spec, required.
_Row = tuple[str, str, Spec, bool]


def _row(field: dataclasses.Field) -> _Row:
    spec, key = field.metadata["wire"]
    required = field.default is MISSING and field.default_factory is MISSING
    return field.name, key or field.name, spec, required


class Wire:
    """Base of every wire dataclass: the codec, derived from its fields."""

    #: Noun phrase naming the document in error messages.
    WHAT: ClassVar[str] = "a document"
    #: The ``"type"`` tag the document carries, if any.
    TAG: ClassVar[str | None] = None

    @classmethod
    def _wire_table(cls) -> tuple[_Row, ...]:
        table = cls.__dict__.get("_wire_rows")
        if table is None:
            fields = dataclasses.fields(cls)  # type: ignore[arg-type]
            table = tuple(_row(field) for field in fields if "wire" in field.metadata)
            cls._wire_rows = table  # type: ignore[attr-defined]
        return table

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        data: dict[str, Any] = {} if self.TAG is None else {"type": self.TAG}
        for name, key, spec, _ in self._wire_table():
            value = getattr(self, name)
            data[key] = value if spec.dump is _same else spec.dump(value)
        return data

    @classmethod
    def from_dict(cls, data: Any, **known: Any) -> Any:
        """Validate and rebuild a document from its :meth:`to_dict` form.

        ``known`` supplies attributes the caller has already decoded (they
        are not read from ``data``).

        :raises ProtocolError: on any malformed field.
        """
        if not _is_object(data):
            kind = type(data).__name__
            raise ProtocolError(f"{cls.WHAT} must be a JSON object, got {kind}")
        tag = data.get("type", cls.TAG)
        if cls.TAG is not None and tag != cls.TAG:
            raise ProtocolError(f"expected a {cls.TAG!r} message, got type {tag!r}")
        for name, key, spec, required in cls._wire_table():
            if name in known:
                continue
            value = data.get(key, _ABSENT)
            if type(value) in spec.plain:
                known[name] = value
            elif value is not _ABSENT:
                known[name] = decode(cls.WHAT, key, spec, value)
            elif required:
                raise ProtocolError(_requires(cls.WHAT, key, spec))
        try:
            return cls(**known)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"{cls.WHAT} is invalid: {exc}") from exc

    def to_json(self, indent: int | None = None) -> str:
        """The :meth:`to_dict` form rendered as JSON with sorted keys."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Rebuild a document from its :meth:`to_json` form."""
        return cls.from_dict(loads(text, cls.WHAT))
