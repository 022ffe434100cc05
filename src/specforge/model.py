"""Shared domain vocabulary: programs, prompt variants, annotation kinds, sampling config.

Everything here is an immutable value type with a canonical JSON encoding
(lowercase snake_case field names). These encodings are the interchange
format used by every adapter, the gateway, and the experiment reports.

Every record is a frozen dataclass deriving from :class:`Record`, whose one
codec derives ``to_dict``/``from_dict`` from the field types:

- ``str``, ``int``, ``float``, ``bool`` and ``None`` encode as themselves;
- an enum encodes as its ``.value``, a nested record as an object;
- a ``tuple`` encodes as a list, recursively; a ``frozenset`` as a sorted list;
- a ``dict`` encodes as an object with its keys sorted.

Two per-field exceptions are declared with ``dataclasses.field(metadata=...)``:
``{"omit_if_none": True}`` leaves the key out while the value is ``None``, and
``{"codec": (encode, decode)}`` converts a non-``None`` value with that pair
of functions instead.

Decoding ignores unknown keys. A missing key takes the field default, or
``None`` when the field is optional and has none. A value that does not fit
its field, and a check the record itself makes, raise :class:`CodecError`.

:func:`canonical_json` is the one writer of these encodings as text: every
report file and every JSON printout of the command line goes through it.
:func:`csv_text` is the one CSV writer, for the report tables and
``count --csv``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import MISSING, dataclass, field
from enum import Enum
from json.encoder import encode_basestring as _encode_str  # C-coded, as json.dumps uses it
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, TypeVar

if TYPE_CHECKING:
    from .analyzer.lexer import ComparableStream


def canonical_json(data: Any) -> str:
    """``data`` as JSON text: sorted keys, indent 2, non-ASCII kept, final newline.

    The text is exactly ``json.dumps(data, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"``, and a value that ``json.dumps`` refuses
    raises the same ``TypeError``; only a value that contains itself differs
    (``RecursionError`` here, ``ValueError`` there). It is written here, not
    by ``json.dumps``, because CPython's C encoder does not indent: with
    ``indent`` set, json runs its pure-Python encoder, one generator step per
    token, which took twice as long as this writer on the shipped study's
    report.json. Strings still go through json's C string encoder.
    """
    parts: list[str] = []
    _write_json(data, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


_INFINITY = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(value: Any) -> str:
    """A scalar of any type as json writes it: subclasses by their base, ``bool`` first."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key: Any) -> str:
    """A key as json writes it before quoting: ``1`` as ``1``, ``True`` as ``true``."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


#: The writer of each exact scalar type, tried first; a subclass (a ``str``
#: enum, an ``IntEnum``) and a container go the ``isinstance`` way.
_SCALAR_WRITERS: dict[type, Callable[[Any], str]] = {
    str: _encode_str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    float: _float_text,
    type(None): lambda _: "null",
}


def _write_json(value: Any, out: Callable[[str], object], newline: str) -> None:
    """Pass ``value``'s JSON text to ``out``; ``newline`` breaks and indents its last line."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):  # as json sorts them
            head = f"{sep}{_encode_str(key if type(key) is str else _key_text(key))}: "
            write = _SCALAR_WRITERS.get(type(item))
            if write is None:
                out(head)
                _write_json(item, out, inner)
            else:
                out(head + write(item))
            sep = "," + inner
        out(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        sep = "[" + inner
        for item in value:
            write = _SCALAR_WRITERS.get(type(item))
            if write is None:
                out(sep)
                _write_json(item, out, inner)
            else:
                out(sep + write(item))
            sep = "," + inner
        out(newline + "]")
    else:
        out(_scalar_text(value))


def csv_text(rows: Iterable[Iterable[object]]) -> str:
    """``rows`` as CSV text, each field ``str``-ed and each row ended by ``\\n``.

    A field holding ``,``, ``"``, ``\\n`` or ``\\r`` is quoted with its ``"``
    doubled (RFC 4180), so ``csv.reader`` reads every row of two or more
    fields back intact.
    """
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


def _csv_field(value: object) -> str:
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


class CodecError(ValueError):
    """A JSON value does not fit the record field it is decoded into."""


class NoMutationSite(ValueError):
    """The program offers no site that a single-token mutation can hit.

    Raised by ``mutation``, which re-exports it; it lives here so that
    ``cli.main`` maps it to an exit code without importing ``mutation``.
    """


_R = TypeVar("_R", bound="Record")


class Record:
    """Base of the frozen dataclasses with a canonical JSON encoding.

    A record is declared ``@dataclass(frozen=True, eq=False, repr=False)`` and
    takes ``__repr__``, ``__eq__`` and ``__hash__`` from here. They give the
    text and the field comparison that ``dataclass`` would generate, but they
    are written once instead of compiled for every class when it is created.
    """

    def to_dict(self) -> dict[str, Any]:
        return _plan(type(self))[0](self)

    @classmethod
    def from_dict(cls: type[_R], d: Any) -> _R:
        return _plan(cls)[1](d)

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in _layout(self.__class__)[0])
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            compared = _layout(self.__class__)[1]
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_layout(self.__class__)[2](self))


_Values = Callable[[Any], Any]


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, ...], _Values, _Values]:
    """A record class's (repr names, compared values, hashed values), as ``dataclass`` has them.

    Given one name, ``attrgetter`` gives the bare value, which compares and
    hashes as well as a tuple would.
    """
    fs = dataclasses.fields(cls)
    return (
        tuple(f.name for f in fs if f.repr),
        attrgetter(*(f.name for f in fs if f.compare)),
        attrgetter(*(f.name for f in fs if (f.compare if f.hash is None else f.hash))),
    )


def _check(kinds: tuple[type, ...], what: str, value: Any) -> Any:
    """``value`` if it is one of ``kinds``; a bool is no number, though it is an ``int``."""
    if not isinstance(value, kinds) or (value.__class__ is bool and bool not in kinds):
        raise CodecError(f"expected {what}, got {type(value).__name__}")
    return value


def _items(value: Any, length: int | None = None) -> list | tuple:
    """``value`` if it is a list, of ``length`` items when that is given."""
    _check((list, tuple), "a list", value)
    if length is not None and len(value) != length:
        raise CodecError(f"expected {length} items, got {len(value)}")
    return value


_SCALARS = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def _converters(tp: Any) -> tuple[Callable | None, Callable]:
    """(encode, decode) for one field type; an ``encode`` of None keeps the value."""
    if tp in _SCALARS:
        return None, functools.partial(_check, _SCALARS[tp], tp.__name__)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return attrgetter("value"), tp
    if isinstance(tp, type) and issubclass(tp, Record):
        return _plan(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[-1] is not Ellipsis:  # fixed length, e.g. (name, value)
        encs, decs = zip(*map(_converters, args))
        return (
            lambda v: [x if e is None else e(x) for e, x in zip(encs, v)],
            lambda v: tuple(d(x) for d, x in zip(decs, _items(v, len(decs)))),
        )
    if origin in (tuple, frozenset):
        enc, dec = _converters(args[0])
        order = sorted if origin is frozenset else list
        return (
            order if enc is None else lambda v: order(map(enc, v)),
            lambda v: origin(map(dec, _items(v))),
        )
    if origin is dict and args[0] is str:
        enc, dec = _converters(args[1])
        return (
            lambda v: {k: x if enc is None else enc(x) for k, x in sorted(v.items())},
            lambda v: {k: dec(x) for k, x in _check((dict,), "an object", v).items()},
        )
    raise TypeError(f"no JSON encoding for field type {tp!r}")


@functools.cache
def _plan(cls: type) -> tuple[Callable[[Any], dict[str, Any]], Callable[[Any], Any]]:
    """(encode, decode) for one record class, built on its first use."""
    hints = typing.get_type_hints(cls)
    encoders, decoders = [], []
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        optional = type(None) in typing.get_args(tp)
        if optional:
            (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
        enc, dec = f.metadata.get("codec") or _converters(tp)
        required = f.default is MISSING and f.default_factory is MISSING
        plain = () if "codec" in f.metadata else _SCALARS.get(tp, ())
        encoders.append((f.name, enc, f.metadata.get("omit_if_none")))
        decoders.append((f.name, plain, dec, optional, required))

    def encode(obj: Any) -> dict[str, Any]:
        out = {}
        for name, enc, omit_if_none in encoders:
            value = getattr(obj, name)
            if value is None:
                if omit_if_none:
                    continue
            elif enc is not None:
                value = enc(value)
            out[name] = value
        return out

    def decode(d: Any) -> Any:
        _check((dict,), "an object", d)
        kwargs = {}
        for name, plain, dec, optional, required in decoders:
            value = d.get(name, MISSING)
            if type(value) in plain:  # a scalar of its field's type: nothing to convert
                kwargs[name] = value
            elif value is MISSING:
                if required and not optional:
                    raise CodecError(f"missing key {name!r}")
                if required:
                    kwargs[name] = None
            elif value is None and optional:
                kwargs[name] = None
            else:
                try:
                    kwargs[name] = dec(value)
                except ValueError as exc:  # also an enum's unknown value
                    raise CodecError(f"{name}: {exc}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise CodecError(str(exc)) from exc

    return encode, decode


class PromptVariant(str, Enum):
    """The three prompt flavors: bare program, test-case context, value-analysis context."""

    BASELINE = "baseline"
    PATHCRAWLER = "pathcrawler"
    EVA = "eva"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "PromptVariant":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown prompt variant {text!r}; expected one of "
                f"{', '.join(v.value for v in cls)}"
            ) from None


@dataclass(frozen=True, eq=False, repr=False)
class Origin(Record):
    """Provenance of a program: written by hand, or derived from a parent by one mutation."""

    kind: str  # "original" | "mutant"
    parent_name: str | None = field(default=None, metadata={"omit_if_none": True})
    mutation_id: str | None = field(default=None, metadata={"omit_if_none": True})

    def __post_init__(self) -> None:
        if self.kind not in ("original", "mutant"):
            raise ValueError(f"origin kind must be 'original' or 'mutant', got {self.kind!r}")
        if self.kind == "mutant" and not (self.parent_name and self.mutation_id):
            raise ValueError("mutant origin requires parent_name and mutation_id")
        if self.kind == "original" and (self.parent_name or self.mutation_id):
            raise ValueError("original origin carries no parent_name/mutation_id")

    @classmethod
    def original(cls) -> "Origin":
        return cls(kind="original")

    @classmethod
    def mutant(cls, parent_name: str, mutation_id: str) -> "Origin":
        return cls(kind="mutant", parent_name=parent_name, mutation_id=mutation_id)


@dataclass(frozen=True, eq=False, repr=False)
class SourceProgram(Record):
    """One C source unit plus metadata.

    ``source`` is the full program text; mutants point back at their parent
    via ``origin``. The entry function is the one the study annotates
    (Pathcrawler-style programs conventionally call it ``testme``).
    """

    name: str
    source: str
    entry_function: str | None = None
    origin: Origin = field(default_factory=Origin.original)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("program name must be non-empty")
        if not self.source:
            raise ValueError("program source must be non-empty")

    @functools.cached_property
    def comparable(self) -> ComparableStream:
        """The stream preservation compares and mutation reads its sites and
        offsets from: ``scan``'s first result for ``source``.

        ``load_corpus`` sets it from its own scan of the program; any other
        program is scanned on first use. It is no field, so the codec,
        equality and repr do not see it.
        """
        from .analyzer.lexer import scan  # the analyzer imports this module

        return scan(self.source, {})[0]


# The one record that keeps the generated ``__eq__`` and ``__hash__``: the
# census hashes a kind per clause, and the generated methods are about twice
# as fast as the shared ones in ``Record``.
@dataclass(frozen=True, repr=False)
class AnnotationKind(Record):
    """Classification of one ACSL clause by its keyword.

    ``keyword`` is the canonical clause keyword ("requires", "loop invariant",
    ...). Clauses whose keyword is recognized but has no dedicated bucket are
    kept with ``known=False`` so unexpected constructs surface in census
    reports instead of being silently merged.
    """

    keyword: str
    known: bool = True

    def __post_init__(self) -> None:
        if not self.keyword:
            raise ValueError("annotation kind keyword must be non-empty")

    @classmethod
    def other(cls, raw_keyword: str) -> "AnnotationKind":
        return cls(keyword=raw_keyword, known=False)


REQUIRES = AnnotationKind("requires")
ENSURES = AnnotationKind("ensures")
ASSIGNS = AnnotationKind("assigns")
ASSERT = AnnotationKind("assert")
LOOP_INVARIANT = AnnotationKind("loop invariant")
LOOP_ASSIGNS = AnnotationKind("loop assigns")
LOOP_VARIANT = AnnotationKind("loop variant")
BEHAVIOR = AnnotationKind("behavior")
ASSUMES = AnnotationKind("assumes")
PREDICATE = AnnotationKind("predicate")
GHOST = AnnotationKind("ghost")

#: Kinds with a dedicated bucket, in canonical report order.
KNOWN_KINDS: tuple[AnnotationKind, ...] = (
    REQUIRES,
    ENSURES,
    ASSIGNS,
    ASSERT,
    LOOP_INVARIANT,
    LOOP_ASSIGNS,
    LOOP_VARIANT,
    BEHAVIOR,
    ASSUMES,
    PREDICATE,
    GHOST,
)

_KIND_ORDER = {kind.keyword: i for i, kind in enumerate(KNOWN_KINDS)}
KIND_BY_KEYWORD = {kind.keyword: kind for kind in KNOWN_KINDS}


def kind_sort_key(kind: AnnotationKind) -> tuple[int, str]:
    """Canonical ordering: the known buckets first, then others alphabetically."""
    return (_KIND_ORDER.get(kind.keyword, len(KNOWN_KINDS)), kind.keyword)


@dataclass(frozen=True, eq=False, repr=False)
class GenerationConfig(Record):
    """Sampling configuration for annotation generation."""

    model_id: str = "gpt-4-0125-preview"
    temperature: float = 0.7
    samples_per_program: int = 3
    max_output_tokens: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.samples_per_program < 1:
            raise ValueError("samples_per_program must be positive")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")
