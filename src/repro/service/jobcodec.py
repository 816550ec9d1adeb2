"""Typed binary job codec: cluster jobs are data, not code.

A cluster job payload (the ``payload`` field of the binary ``job`` and
``result`` frames in :mod:`repro.service.codec`) is a
``(callable-name, args, kwargs)`` triple encoded with a restricted,
versioned, schema-checked value codec: every value is a tagged binary
term from a closed vocabulary (primitives, containers, registered
structs, registered callables), every field is size-capped, and any
byte sequence outside the vocabulary is rejected with
:class:`~repro.exceptions.CodecError` before anything is constructed.
Nothing in a payload can name a module, a class path, or an attribute
chain — the two registries below are the *only* way bytes become
objects, so a coordinator port is no longer a remote-code-execution
surface.

Vocabulary: one tag byte per term, one row of :data:`TERMS` per tag
(varints are LEB128 as in :mod:`repro.utils.encoding`).  That table is
the only place a tag byte, its name or its decoder is spelled; README
"Job wire format" gives each term's layout and is checked against it.

**Struct registry.**  Domain objects (schemes, behaviours, workloads,
domains, outcome records) cross the wire as named structs: ``pack``
reduces an instance to a tuple of codec values, ``unpack`` rebuilds it
through the real constructor, which re-validates every parameter.  The
repo's own plain structs are rows of one table in
:func:`_register_defaults` — wire name, class, attributes in wire
order — served by one generic ``pack``/``unpack`` and checked against
each class's constructor before anything is registered; only structs
that carry state bring their own functions.  Struct names are
interned per payload (first use spells the name, later uses are a
2-byte index) and instances are memoized by identity.

**Records.**  A row may also carry a fixed ``struct`` record for its
body, used whenever the record reproduces the value exactly (the field
tuple carries anything else).  The population's two values have one:
a ``scheme_batch`` is a head, its scheme and a table of the distinct
functions, screeners and behaviours as terms, then one packed row per
job; a ``scheme_run_result`` is one head holding both ledgers, then its
verdict and counter rows.  The layouts are :data:`BATCH_HEAD`,
:data:`BATCH_ROW`, :data:`RESULT_HEAD`, :data:`VERDICT_ROW` and
:data:`COUNTER_ROW` (README "Batch records" / "Result records").

**Callable registry.**  A payload can only invoke a callable that both
sides registered under an explicit name at import time
(:func:`register_callable`).  There is deliberately no import-by-name
fallback: an unregistered name is a :class:`CodecError`, never an
``importlib`` call, and a job's callable is the registered function
itself (a ``functools.partial`` is not).  Workers preload
registration modules via ``--preload`` (operator-controlled argv,
never wire-controlled).

**Scheme cache.**  Structs registered ``cacheable=True`` (the
stateless verification schemes) have self-contained bodies: the body
bytes are a canonical key, so a worker keeps a small LRU
(:class:`SchemeCache`) mapping ``(name, body)`` to the constructed
instance and skip both decode and construction for every chunk of a
population after the first — scheme construction happens once per
worker, not once per chunk.  Cache traffic is counted on
``repro_scheme_cache_{hits,misses}_total``.
"""

from __future__ import annotations

import inspect
import operator
import struct as _struct
import threading
from typing import Any, Callable, NamedTuple

from repro.core.wire import MAX_CONTAINER_ITEMS, VARINT_MAX
from repro.exceptions import CodecError
from repro.net.framing import MAX_CLUSTER_PAYLOAD_BYTES, check_payload_size
from repro.utils.encoding import (
    encode_bytes_list,
    encode_uint,
    read_bytes_list,
    read_uint,
    unzigzag,
    zigzag,
)

__all__ = [
    "MAX_CONTAINER_ITEMS",
    "MAX_DEPTH",
    "MAX_FIELD_BYTES",
    "MAX_NAME_BYTES",
    "SchemeCache",
    "decode_cluster_chunk",
    "decode_cluster_outcomes",
    "decode_cluster_payload",
    "decode_job",
    "encode_cluster_chunk",
    "encode_cluster_outcomes",
    "encode_cluster_payload",
    "encode_job",
    "register_callable",
    "register_struct",
    "registered_structs",
]


# ----------------------------------------------------------------------
# Size caps (per field, enforced on both encode and decode)
# ----------------------------------------------------------------------

#: Ceiling on one str/bytes field.  Leaf-payload vectors and result
#: values stay far below this; the whole payload is additionally
#: bounded by ``MAX_CLUSTER_PAYLOAD_BYTES``.
MAX_FIELD_BYTES = 8 * 1024 * 1024
#: Ceiling on term nesting depth, record and cacheable bodies included.
MAX_DEPTH = 64
#: Ceiling on a registry (struct/callable) name.
MAX_NAME_BYTES = 120

# The int term's range, -2^76 <= x < 2^76: every zigzag varint
# ``read_uint`` can return unfolds into it, so decode needs no check.
_INT_LIMIT = (VARINT_MAX + 1) >> 1

# The population's two records (README "Batch records" and "Result
# records"), big-endian ``struct`` layouts.  A record body opens with a
# byte >= 0x80, which no term tag is: that byte tells it from a field
# tuple.
_RECORD_BIT = 0x80
#: One ``CostLedger``'s twelve slots: costs binary64, counts ``i64``.
LEDGER_LAYOUT = "dqdqdqqqqqqd"
#: ``scheme_batch``: 0x80, job count; then the scheme and table terms.
BATCH_HEAD = _struct.Struct(">BI")
#: One job: domain start and stop, seed, the function, screener and
#: behaviour's table indices, task-id byte length.
BATCH_ROW = _struct.Struct(">qqQHHHB")
#: ``scheme_run_result``: 0x80 | accepted << 6 | has-work << 5 | reason
#: code; verdict count; task-id bytes; participant and supervisor
#: counter counts; work counts; the participant and supervisor ledgers.
RESULT_HEAD = _struct.Struct(">BHBBBII" + 2 * LEDGER_LAYOUT)
#: One sample verdict: index, accepted << 7 | reason code.
VERDICT_ROW = _struct.Struct(">IB")
#: One ledger counter: value, name byte length (the UTF-8 name follows).
COUNTER_ROW = _struct.Struct(">IB")


def _check_field_size(what: str, size: int, limit: int) -> None:
    """Reject an oversized field before any allocation happens."""
    if size > limit:
        raise CodecError(f"{what} of {size} bytes exceeds limit {limit}")


def _check_count(what: str, count: int) -> None:
    if count > MAX_CONTAINER_ITEMS:
        raise CodecError(
            f"{what} of {count} items exceeds limit {MAX_CONTAINER_ITEMS}"
        )


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------


class _Record(NamedTuple):
    """A struct's fixed-layout body.  ``pack(obj, enc, depth)`` returns
    the record, or None when it cannot reproduce ``obj`` exactly (the
    generic field tuple carries it then); ``unpack(body, dec, depth)``
    reads one back.  ``enc``/``dec`` are the payload's pass and
    ``depth`` the body's nesting depth, for the terms a record embeds.
    A record's first byte is ``>= 0x80``, which no term tag is."""

    pack: Callable[[Any, "_Encoder", int], bytes | None]
    unpack: Callable[[bytes, "_Decoder", int], Any]


_registry_lock = threading.Lock()
_STRUCTS: dict[str, "_StructRow"] = {}
_STRUCTS_BY_TYPE: dict[type, "_StructRow"] = {}
_CALLABLES: dict[str, Callable] = {}
_CALLABLE_NAMES: dict[Callable, str] = {}


def register_struct(
    name: str,
    cls: type,
    pack: Callable[[Any], tuple],
    unpack: Callable[[tuple], Any],
    cacheable: bool = False,
) -> None:
    """Register a type that may cross the cluster wire as a struct.

    ``pack(obj)`` must return a tuple of codec-encodable values;
    ``unpack(fields)`` must rebuild an equivalent instance (normally by
    calling the real constructor so parameter validation re-runs on the
    receiving side).  ``cacheable`` marks stateless types whose decoded
    instances may be shared across jobs and chunks by a
    :class:`SchemeCache` — only mark a type cacheable if two runs
    through the same instance are byte-identical to two fresh
    instances.  Dispatch is by exact type: subclasses need their own
    registration.
    """
    row = _StructRow(name, cls, cacheable=cacheable)
    row.pack, row.unpack = pack, unpack
    _register(row)


def _register(row: "_StructRow") -> None:
    if len(row.name.encode("utf-8")) > MAX_NAME_BYTES:
        raise CodecError(f"struct name too long: {row.name!r}")
    with _registry_lock:
        existing = _STRUCTS.get(row.name)
        if existing is not None and existing.cls is not row.cls:
            raise CodecError(
                f"struct name {row.name!r} already registered for "
                f"{existing.cls.__name__}"
            )
        _STRUCTS[row.name] = row
        _STRUCTS_BY_TYPE[row.cls] = row


def register_callable(name: str, fn: Callable) -> None:
    """Register a callable a job payload may name.

    Both the coordinator (encode) and every worker (decode) must run
    the same registration, normally at import of the defining module;
    workers reach non-default modules via ``--preload``.  Re-registering
    the same ``(name, fn)`` pair is a no-op; clashing registrations
    fail loudly.
    """
    if len(name.encode("utf-8")) > MAX_NAME_BYTES:
        raise CodecError(f"callable name too long: {name!r}")
    if not callable(fn):
        raise CodecError(f"{name!r} is not callable")
    with _registry_lock:
        existing = _CALLABLES.get(name)
        if existing is not None and existing is not fn:
            raise CodecError(f"callable name {name!r} already registered")
        _CALLABLES[name] = fn
        _CALLABLE_NAMES[fn] = name


def registered_structs() -> dict[str, type]:
    """Snapshot of the struct registry (docs and round-trip tests)."""
    with _registry_lock:
        return {name: row.cls for name, row in sorted(_STRUCTS.items())}


class _StructField(NamedTuple):
    """One field of a plain struct row: constructor keyword ``arg``,
    packed from attribute path ``attr`` (dotted for an enum's
    ``.value``); ``from_wire`` rebuilds a value whose in-memory form is
    not a codec term."""

    arg: str
    attr: str
    from_wire: Callable[[Any], Any] | None = None


def _packer(attrs: list[str]) -> Callable[[Any], tuple]:
    """``obj -> (obj.<attr>, ...)``: one C-level getter call per job
    where it can be (``attrgetter`` returns a tuple only from two up)."""
    if len(attrs) > 1:
        return operator.attrgetter(*attrs)
    getters = [operator.attrgetter(attr) for attr in attrs]
    return lambda obj: tuple(get(obj) for get in getters)


class _StructRow:
    """One registered struct: wire name, class, its fields in wire
    order, whether decoded instances may be shared (:class:`SchemeCache`)
    and its record, if any.  A field given as a bare string is the
    attribute named like the constructor argument it feeds.  A plain
    row is served by one generic ``pack``/``unpack`` pair; ``unpack``
    goes through the real constructor, by keyword, so its validation
    re-runs.  :func:`register_struct` gives a row of no fields its own
    pair."""

    def __init__(
        self,
        name: str,
        cls: type,
        *fields: str | _StructField,
        cacheable: bool = False,
        record: _Record | None = None,
    ) -> None:
        specs = [
            f if isinstance(f, _StructField) else _StructField(f, f)
            for f in fields
        ]
        self.name = name
        self.cls = cls
        self.cacheable = cacheable
        self.record = record
        self.args = [f.arg for f in specs]
        self.pack = _packer([f.attr for f in specs])
        self._from_wire = [(f.arg, f.from_wire) for f in specs if f.from_wire]

    def unpack(self, values: tuple) -> Any:
        if len(values) != len(self.args):
            raise CodecError(
                f"struct {self.name!r} has {len(values)} fields, "
                f"not {len(self.args)}"
            )
        kwargs = dict(zip(self.args, values))
        for arg, convert in self._from_wire:
            try:
                kwargs[arg] = convert(kwargs[arg])
            except (TypeError, ValueError) as exc:
                raise CodecError(
                    f"struct {self.name!r} field {arg!r}: {exc}"
                ) from exc
        return self.cls(**kwargs)


def _typed(*types: type) -> Callable[[Any], Any]:
    """A ``from_wire`` that passes a value of exactly one of ``types``
    through and refuses anything else (a ``bool`` is not an ``int``)."""

    def check(value: Any) -> Any:
        if type(value) not in types:
            raise TypeError(f"{type(value).__name__} is not allowed here")
        return value

    return check


def _index_structs(rows: tuple[_StructRow, ...]) -> tuple[_StructRow, ...]:
    """Check the struct table before any of it is registered: a
    duplicate wire name or class, or a row whose fields are not exactly
    its class's constructor parameters, raises."""
    names = {row.name for row in rows}
    classes = {row.cls for row in rows}
    if not len(names) == len(classes) == len(rows):
        raise ValueError("duplicate wire name or class in the struct table")
    for row in rows:
        declared = sorted(inspect.signature(row.cls).parameters)
        if sorted(row.args) != declared:
            raise ValueError(
                f"struct row {row.name!r} does not cover "
                f"{row.cls.__name__}({', '.join(declared)})"
            )
    return rows


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------


class _Encoder:
    """One payload's encoding pass: byte sink + interning state."""

    def __init__(self) -> None:
        self.out = bytearray()
        # Object memo: id(obj) -> back-reference index, pre-order.
        self.memo: dict[int, int] = {}
        # Objects must outlive the pass so ids cannot be recycled.
        self.keepalive: list[Any] = []
        # Name interning: registry name -> index of first spelling.
        self.names: dict[str, int] = {}

    def sharing(self) -> "_Encoder":
        """A fresh byte sink on this pass's memo and name interning."""
        sub = _Encoder()
        sub.memo = self.memo
        sub.keepalive = self.keepalive
        sub.names = self.names
        return sub

    def emit_name(self, name: str) -> None:
        """Interned name: 0 = literal follows, k = names[k - 1]."""
        index = self.names.get(name)
        if index is not None:
            self.out += encode_uint(index + 1)
            return
        raw = name.encode("utf-8")
        self.out += encode_uint(0)
        self.out += encode_uint(len(raw))
        self.out += raw
        self.names[name] = len(self.names)

    def value(self, obj: Any, depth: int = 0) -> None:
        if depth > MAX_DEPTH:
            raise CodecError(f"value nesting exceeds depth limit {MAX_DEPTH}")
        out = self.out
        if obj is None:
            out.append(Tag.NONE)
        elif obj is True:
            out.append(Tag.TRUE)
        elif obj is False:
            out.append(Tag.FALSE)
        elif type(obj) is int:
            if not -_INT_LIMIT <= obj < _INT_LIMIT:
                raise CodecError(f"int {obj} is outside the int term's range")
            out.append(Tag.INT)
            out += encode_uint(zigzag(obj))
        elif type(obj) is float:
            out.append(Tag.FLOAT)
            out += _struct.pack(">d", obj)
        elif type(obj) is str:
            raw = obj.encode("utf-8")
            _check_field_size("str field", len(raw), MAX_FIELD_BYTES)
            out.append(Tag.STR)
            out += encode_uint(len(raw))
            out += raw
        elif type(obj) in (bytes, bytearray, memoryview):
            raw = bytes(obj)
            _check_field_size("bytes field", len(raw), MAX_FIELD_BYTES)
            out.append(Tag.BYTES)
            out += encode_uint(len(raw))
            out += raw
        elif type(obj) is tuple:
            self._items(Tag.TUPLE, "tuple", obj, depth)
        elif type(obj) is list:
            self._items(Tag.LIST, "list", obj, depth)
        elif type(obj) is dict:
            _check_count("dict", len(obj))
            out.append(Tag.DICT)
            out += encode_uint(len(obj))
            for key, val in obj.items():
                self.value(key, depth + 1)
                self.value(val, depth + 1)
        else:
            self._registered(obj, depth)

    def _items(self, tag: int, what: str, obj: Any, depth: int) -> None:
        _check_count(what, len(obj))
        self.out.append(tag)
        self.out += encode_uint(len(obj))
        for item in obj:
            self.value(item, depth + 1)

    def _registered(self, obj: Any, depth: int) -> None:
        ref = self.memo.get(id(obj))
        if ref is not None:
            self.out.append(Tag.REF)
            self.out += encode_uint(ref)
            return
        if callable(obj):
            name = _CALLABLE_NAMES.get(obj)
            if name is not None:
                self._remember(obj)
                self.out.append(Tag.CALLABLE)
                self.emit_name(name)
                return
        row = _STRUCTS_BY_TYPE.get(type(obj))
        if row is None:
            raise CodecError(
                f"type {type(obj).__name__} is not encodable on the "
                "cluster wire: register it with "
                "repro.service.jobcodec.register_struct (or "
                "register_callable for functions)"
            )
        self._remember(obj)
        # Tag and name go out before the body is encoded so shared
        # name-interning indices are assigned in the same order the
        # decoder will observe them.
        self.out.append(Tag.STRUCT)
        self.emit_name(row.name)
        record = row.record
        body = None if record is None else record.pack(obj, self, depth + 1)
        if body is None:
            fields = row.pack(obj)
            if type(fields) is not tuple:
                raise CodecError(
                    f"pack for struct {row.name!r} must return a tuple"
                )
            if not row.cacheable:
                # Written in place, then prefixed with its length.
                start = len(self.out)
                self.value(fields, depth + 1)
                self.out[start:start] = encode_uint(len(self.out) - start)
                return
            # Self-contained body: fresh interning state, so the body
            # bytes are a canonical SchemeCache key.
            sub = _Encoder()
            sub.value(fields, depth + 1)
            body = bytes(sub.out)
        self.out += encode_uint(len(body))
        self.out += body

    def _remember(self, obj: Any) -> None:
        self.memo[id(obj)] = len(self.memo)
        self.keepalive.append(obj)


# ----------------------------------------------------------------------
# Decoder
# ----------------------------------------------------------------------

_UNFILLED = object()  # placeholder for a struct still being decoded


class _Decoder:
    """One payload's decoding pass over an immutable byte buffer."""

    def __init__(self, data: bytes, cache: "SchemeCache | None") -> None:
        self.data = data
        self.pos = 0
        self.cache = cache
        self.memo: list[Any] = []
        self.names: list[str] = []
        # Verdicts the result records rebuilt, by row: a verdict is
        # frozen, so one instance per distinct row per payload.
        self.verdicts: dict[tuple, Any] = {}

    def sharing(self, data: bytes) -> "_Decoder":
        """A pass over ``data`` on this payload's memo, names and cache."""
        sub = _Decoder(data, self.cache)
        sub.memo = self.memo
        sub.names = self.names
        sub.verdicts = self.verdicts
        return sub

    def at_record(self) -> bool:
        """Whether the next byte opens a record (no term tag is)."""
        return self.pos < len(self.data) and self.data[self.pos] >= _RECORD_BIT

    def take(self, n: int, what: str) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError(f"truncated {what} (wanted {n} bytes)")
        raw = self.data[self.pos:end]
        self.pos = end
        return raw

    def uint(self, what: str) -> int:
        pos = self.pos
        if pos < len(self.data) and self.data[pos] < 0x80:  # one byte
            self.pos = pos + 1
            return self.data[pos]
        try:
            value, self.pos = read_uint(self.data, pos)
        except CodecError as exc:
            raise CodecError(f"bad varint in {what}: {exc}") from exc
        return value

    def name(self) -> str:
        ref = self.uint("name reference")
        if ref == 0:
            length = self.uint("name length")
            _check_field_size("registry name", length, MAX_NAME_BYTES)
            raw = self.take(length, "registry name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"registry name is not UTF-8: {exc}") from exc
            self.names.append(name)
            return name
        if ref > len(self.names):
            raise CodecError(f"name reference {ref} out of range")
        return self.names[ref - 1]

    def value(self, depth: int = 0) -> Any:
        if depth > MAX_DEPTH:
            raise CodecError(f"value nesting exceeds depth limit {MAX_DEPTH}")
        pos = self.pos
        if pos >= len(self.data):
            raise CodecError("truncated tag (wanted 1 bytes)")
        tag = self.data[pos]
        self.pos = pos + 1
        decoder = _DECODERS.get(tag)
        if decoder is None:
            raise CodecError(f"unknown value tag 0x{tag:02x}")
        return decoder(self, depth)


def _constant(value: Any) -> Callable[[_Decoder, int], Any]:
    def decode(dec: _Decoder, depth: int) -> Any:
        return value

    return decode


def _dec_int(dec: _Decoder, depth: int) -> int:
    return unzigzag(dec.uint("int"))


def _dec_float(dec: _Decoder, depth: int) -> float:
    return _struct.unpack(">d", dec.take(8, "float"))[0]


def _dec_str(dec: _Decoder, depth: int) -> str:
    length = dec.uint("str length")
    _check_field_size("str field", length, MAX_FIELD_BYTES)
    raw = dec.take(length, "str")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"str field is not UTF-8: {exc}") from exc


def _dec_bytes(dec: _Decoder, depth: int) -> bytes:
    length = dec.uint("bytes length")
    _check_field_size("bytes field", length, MAX_FIELD_BYTES)
    return dec.take(length, "bytes")


def _dec_tuple(dec: _Decoder, depth: int) -> tuple:
    count = dec.uint("tuple count")
    _check_count("tuple", count)
    return tuple(dec.value(depth + 1) for _ in range(count))


def _dec_list(dec: _Decoder, depth: int) -> list:
    count = dec.uint("list count")
    _check_count("list", count)
    return [dec.value(depth + 1) for _ in range(count)]


def _dec_dict(dec: _Decoder, depth: int) -> dict:
    count = dec.uint("dict count")
    _check_count("dict", count)
    out: dict = {}
    for _ in range(count):
        key = dec.value(depth + 1)
        try:
            out[key] = dec.value(depth + 1)
        except TypeError as exc:
            raise CodecError(f"unhashable dict key: {exc}") from exc
    if len(out) != count:
        raise CodecError("duplicate dict keys")
    return out


def _dec_struct(dec: _Decoder, depth: int) -> Any:
    name = dec.name()
    row = _STRUCTS.get(name)
    if row is None:
        raise CodecError(f"unknown struct name {name!r}")
    body_len = dec.uint("struct body length")
    _check_field_size("struct body", body_len, MAX_FIELD_BYTES)
    end = dec.pos + body_len
    if end > len(dec.data):
        raise CodecError(f"truncated struct {name!r} body")
    slot = len(dec.memo)
    dec.memo.append(_UNFILLED)
    if row.cacheable:
        body = dec.take(body_len, "struct body")
        if dec.cache is None:
            obj = _build_struct(row, body, depth + 1)
        else:
            obj = dec.cache.get_or_build(row, body, depth + 1)
    elif row.record is not None and body_len and dec.at_record():
        obj = _construct(
            row, row.record.unpack, dec.take(body_len, "record"), dec,
            depth + 1,
        )
    else:
        # Any other body reads in place, on the payload's interning state.
        obj = _construct(row, _fields, row, dec, depth + 1, end)
    dec.memo[slot] = obj
    return obj


def _fields(row: _StructRow, dec: _Decoder, depth: int, end: int) -> Any:
    """A struct's field tuple, ending exactly where its body does, run
    through the registered ctor."""
    fields = dec.value(depth)
    if dec.pos != end:
        raise CodecError(f"struct {row.name!r} fields do not fill its body")
    if type(fields) is not tuple:
        raise CodecError(f"struct {row.name!r} body is not a field tuple")
    return row.unpack(fields)


def _build_struct(row: _StructRow, body: bytes, depth: int) -> Any:
    """A self-contained (cacheable) struct from its body alone, read at
    the nesting depth its term sits at."""
    dec = _Decoder(body, None)
    return _construct(row, _fields, row, dec, depth, len(body))


def _construct(row: _StructRow, build: Callable, *args: Any) -> Any:
    """``build(*args)``, with whatever a constructor raises turned into
    a :class:`CodecError` naming the struct."""
    try:
        return build(*args)
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(
            f"struct {row.name!r} rejected: {type(exc).__name__}: {exc}"
        ) from exc


def _dec_callable(dec: _Decoder, depth: int) -> Callable:
    name = dec.name()
    fn = _CALLABLES.get(name)
    if fn is None:
        raise CodecError(
            f"unknown callable name {name!r}: not registered on this "
            "side (workers load registration modules via --preload)"
        )
    dec.memo.append(fn)
    return fn


def _dec_ref(dec: _Decoder, depth: int) -> Any:
    index = dec.uint("back-reference")
    if index >= len(dec.memo):
        raise CodecError(f"back-reference {index} out of range")
    obj = dec.memo[index]
    if obj is _UNFILLED:
        raise CodecError(f"back-reference {index} into an unfinished struct")
    return obj


class Term(NamedTuple):
    """One term kind: tag byte, name and decoder (README "Job wire
    format" gives the layout that follows each tag byte)."""

    tag: int
    name: str
    decode: Callable[[_Decoder, int], Any]


#: The term vocabulary.  ``Tag.<NAME>`` is derived from it.  Bytes 0x04
#: (``bigint``) and 0x0B (``set``) are retired, not reassigned.
TERMS: tuple[Term, ...] = (
    Term(0x00, "none", _constant(None)),
    Term(0x01, "true", _constant(True)),
    Term(0x02, "false", _constant(False)),
    Term(0x03, "int", _dec_int),
    Term(0x05, "float", _dec_float),
    Term(0x06, "str", _dec_str),
    Term(0x07, "bytes", _dec_bytes),
    Term(0x08, "tuple", _dec_tuple),
    Term(0x09, "list", _dec_list),
    Term(0x0A, "dict", _dec_dict),
    Term(0x0C, "struct", _dec_struct),
    Term(0x0D, "callable", _dec_callable),
    Term(0x0E, "ref", _dec_ref),
)


def _index_terms(rows: tuple[Term, ...]) -> tuple[type, dict]:
    """Derive ``Tag`` (one ``NAME = tag byte`` member per row) and the
    decoder dispatch table.  A duplicate tag byte or name, or a row
    without a decoder, raises here — at import."""
    members = {row.name.upper(): row.tag for row in rows}
    decoders = {row.tag: row.decode for row in rows}
    if not len(members) == len(decoders) == len(rows):
        raise ValueError("duplicate tag byte or name in TERMS")
    for row in rows:
        if not callable(row.decode):
            raise ValueError(f"term {row.name!r} has no decoder")
    doc = "Wire tag byte for each term kind (see :data:`TERMS`)."
    return type("Tag", (), {"__doc__": doc, **members}), decoders


Tag, _DECODERS = _index_terms(TERMS)


# ----------------------------------------------------------------------
# Scheme cache
# ----------------------------------------------------------------------


#: How many distinct schemes a :class:`SchemeCache` keeps.
_CACHE_ENTRIES = 64


class SchemeCache:
    """Small LRU of constructed cacheable structs, keyed by body bytes.

    The key is ``(struct name, canonical body bytes)`` — cacheable
    struct bodies are encoded with payload-independent interning
    precisely so equal parameters always produce equal bytes.
    Thread-safe.  Hit/miss totals are plain counters here; the planes
    that own a cache publish them as
    ``repro_scheme_cache_{hits,misses}_total{plane=...}`` on their own
    registries (worker daemon directly, coordinator from the
    ``cache_hits``/``cache_misses`` result-frame fields), which keeps
    one process from double counting when it hosts both ends.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, bytes], Any] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, row: _StructRow, body: bytes, depth: int) -> Any:
        key = (row.name, bytes(body))
        with self._lock:
            obj = self._entries.get(key)
            if obj is not None:
                # dict preserves insertion order: re-insert = LRU touch.
                del self._entries[key]
                self._entries[key] = obj
                self.hits += 1
                return obj
        obj = _build_struct(row, body, depth)
        with self._lock:
            self.misses += 1
            if key not in self._entries:
                if len(self._entries) >= _CACHE_ENTRIES:
                    del self._entries[next(iter(self._entries))]
                self._entries[key] = obj
        return obj

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}


# ----------------------------------------------------------------------
# Payload / chunk / outcome envelopes (the cluster wire trio)
# ----------------------------------------------------------------------


def encode_cluster_payload(
    obj: Any, max_bytes: int = MAX_CLUSTER_PAYLOAD_BYTES
) -> bytes:
    """Encode one value as a typed cluster payload, enforcing the cap."""
    encoder = _Encoder()
    encoder.value(obj)
    raw = bytes(encoder.out)
    check_payload_size("cluster payload", len(raw), max_bytes)
    return raw


def decode_cluster_payload(
    raw: bytes,
    max_bytes: int = MAX_CLUSTER_PAYLOAD_BYTES,
    cache: SchemeCache | None = None,
) -> Any:
    """Decode a typed cluster payload; junk raises :class:`CodecError`.

    ``cache`` (worker-side) shares decoded cacheable structs across
    payloads — see :class:`SchemeCache`.
    """
    check_payload_size("cluster payload", len(raw), max_bytes)
    decoder = _Decoder(bytes(raw), cache)
    value = decoder.value()
    if decoder.pos != len(decoder.data):
        raise CodecError(
            f"{len(decoder.data) - decoder.pos} trailing bytes after "
            "cluster payload"
        )
    return value


def encode_job(fn: Callable, args: tuple, kwargs: dict) -> bytes:
    """Encode one job spec: a registered callable plus its arguments.

    ``fn`` must itself be registered: the service plane's verification
    offloads arrive as ``timed`` with the job and its arguments
    positional, and anything else (a ``functools.partial``, a lambda)
    is refused here, before it reaches the wire.
    """
    if _CALLABLE_NAMES.get(fn) is None:
        raise CodecError(
            f"cannot dispatch {getattr(fn, '__name__', fn)!r} to the "
            "cluster: only callables registered with "
            "repro.service.jobcodec.register_callable cross the wire"
        )
    return encode_cluster_payload((fn, tuple(args), dict(kwargs)))


def decode_job(
    raw: bytes, cache: SchemeCache | None = None
) -> tuple[Callable, tuple, dict]:
    """Decode and shape-check one job spec."""
    spec = decode_cluster_payload(raw, cache=cache)
    if not (isinstance(spec, tuple) and len(spec) == 3):
        raise CodecError("cluster job payload must be (fn, args, kwargs)")
    fn, args, kwargs = spec
    if not callable(fn):
        raise CodecError("cluster job fn is not callable")
    if not isinstance(args, tuple) or not isinstance(kwargs, dict):
        raise CodecError("cluster job args/kwargs have the wrong shape")
    if any(not isinstance(key, str) for key in kwargs):
        raise CodecError("cluster job kwargs keys must be strings")
    return fn, args, kwargs


def encode_cluster_chunk(
    job_payloads: Any, max_bytes: int = MAX_CLUSTER_PAYLOAD_BYTES
) -> bytes:
    """Frame a sequence of encoded job payloads as one chunk body.

    Jobs stay as opaque byte spans, so the coordinator regroups jobs
    into differently-sized chunks without ever re-encoding the work.
    """
    payloads = tuple(job_payloads)
    if not payloads:
        raise CodecError("cluster chunk must contain at least one job")
    _check_count("chunk", len(payloads))
    if not all(isinstance(payload, (bytes, bytearray)) for payload in payloads):
        raise CodecError("cluster chunk entries must be bytes")
    raw = encode_bytes_list(payloads)
    check_payload_size("cluster chunk", len(raw), max_bytes)
    return raw


def decode_cluster_chunk(
    raw: bytes, max_bytes: int = MAX_CLUSTER_PAYLOAD_BYTES
) -> tuple[bytes, ...]:
    """Split a chunk body back into per-job payload spans."""
    check_payload_size("cluster chunk", len(raw), max_bytes)
    data = bytes(raw)
    count, _ = read_uint(data, 0)
    _check_count("chunk", count)
    if count == 0:
        raise CodecError("cluster chunk must contain at least one job")
    payloads, pos = read_bytes_list(data, 0)
    if pos != len(data):
        raise CodecError(
            f"{len(data) - pos} trailing bytes after cluster chunk"
        )
    return tuple(payloads)


def encode_cluster_outcomes(
    entries: Any, max_bytes: int = MAX_CLUSTER_PAYLOAD_BYTES
) -> bytes:
    """Frame per-job ``(ok, payload)`` outcomes as one result body.

    ``ok`` distinguishes an encoded result payload from an encoded
    error description; a chunk's whole ordered outcome list travels in
    this one envelope, so ``max_bytes`` caps the chunk's answer.
    """
    items = tuple(entries)
    _check_count("outcomes", len(items))
    out = bytearray(encode_uint(len(items)))
    for entry in items:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            raise CodecError(
                "cluster outcome entries must be (ok, payload) pairs"
            )
        ok, payload = entry
        if not isinstance(ok, bool) or not isinstance(
            payload, (bytes, bytearray)
        ):
            raise CodecError(
                "cluster outcome entries must be (ok, payload) pairs"
            )
        out.append(1 if ok else 0)
        out += encode_uint(len(payload))
        out += payload
    raw = bytes(out)
    check_payload_size("cluster outcomes", len(raw), max_bytes)
    return raw


def decode_cluster_outcomes(
    raw: bytes, max_bytes: int = MAX_CLUSTER_PAYLOAD_BYTES
) -> list[tuple[bool, bytes]]:
    """Split a result body back into per-job ``(ok, payload)`` pairs."""
    check_payload_size("cluster outcomes", len(raw), max_bytes)
    data = bytes(raw)
    count, pos = read_uint(data, 0)
    _check_count("outcomes", count)
    entries = []
    for _ in range(count):
        if pos >= len(data):
            raise CodecError("truncated cluster outcome entry")
        flag = data[pos]
        if flag not in (0, 1):
            raise CodecError(f"bad outcome flag byte {flag}")
        pos += 1
        length, pos = read_uint(data, pos)
        _check_field_size("outcome entry", length, MAX_CLUSTER_PAYLOAD_BYTES)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated cluster outcome entry")
        entries.append((flag == 1, data[pos:end]))
        pos = end
    if pos != len(data):
        raise CodecError(
            f"{len(data) - pos} trailing bytes after cluster outcomes"
        )
    return entries


# ----------------------------------------------------------------------
# Default registrations: every type the repo ships over the cluster wire
# ----------------------------------------------------------------------


def _register_defaults() -> None:
    """Register the repo's own wire types and job entry points (once,
    when this module is imported).

    Central on purpose: this function is the complete, auditable list
    of what cluster bytes can become.  Third-party jobs extend it via
    :func:`register_struct` / :func:`register_callable` in a module
    both sides import (workers: ``--preload``).
    """
    from repro.accounting import CostLedger
    from repro.baselines.double_check import DoubleCheckScheme
    from repro.baselines.hardening import HardenedProbeScheme
    from repro.baselines.naive_sampling import NaiveSamplingScheme
    from repro.baselines.ringer import RingerScheme
    from repro.cheating.guessing import (
        BernoulliGuess,
        UniformValueGuess,
        ZeroGuess,
    )
    from repro.cheating.strategies import (
        ColludingCheater,
        HonestBehavior,
        MaliciousBehavior,
        SemiHonestCheater,
        WorkSummary,
    )
    from repro.core.cbs import CBSScheme
    from repro.core.ni_cbs import NICBSScheme
    from repro.core.protocol import (
        CommitmentMsg,
        NICBSSubmissionMsg,
        ProofBundleMsg,
    )
    from repro.core.scheme import (
        RejectReason,
        SampleVerdict,
        SchemeRunResult,
        VerificationOutcome,
    )
    from repro.engine import jobs as _jobs
    from repro.merkle.tree import LeafEncoding
    from repro.service import verification_jobs as _verify
    from repro.tasks.domain import ExplicitDomain, RangeDomain
    from repro.tasks.function import GuessableFunction
    from repro.tasks.result import TaskAssignment
    from repro.tasks.screener import (
        MatchScreener,
        ReportAllScreener,
        ThresholdScreener,
        TopKScreener,
    )
    from repro.tasks.workloads import (
        FactoringTask,
        MersenneCheck,
        MoleculeScreening,
        MonteCarloEstimate,
        OptimizationSearch,
        PasswordSearch,
        SignalSearch,
    )

    # --- the population's two records (README "Batch records" and
    # "Result records") -----------------------------------------------
    SchemeBatch, SchemeJob = _jobs.SchemeBatch, _jobs.SchemeJob
    reasons = tuple(RejectReason)  # wire code = position: append only
    # By the member's id: an enum member hashes in Python, an id in C.
    reason_code = {id(reason): code for code, reason in enumerate(reasons)}
    # A verdict row's second byte read back: accepted << 7 | reason code.
    verdict_values = {
        accepted << 7 | code: (accepted, reason)
        for accepted in (False, True)
        for code, reason in enumerate(reasons)
    }
    ledger_fields = (
        "evaluation_cost", "evaluations", "verification_cost",
        "verifications", "hash_cost", "hashes", "bytes_sent",
        "bytes_received", "messages_sent", "messages_received",
        "storage_digests", "screening_cost",
    )
    ledger_values = operator.attrgetter(*ledger_fields)
    ledger_types = tuple(float if c == "d" else int for c in LEDGER_LAYOUT)
    two_ledger_types = 2 * ledger_types
    zero_values = ledger_values(CostLedger())
    ledger_row = _struct.Struct(">" + LEDGER_LAYOUT)
    zero_row = ledger_row.pack(*zero_values)
    ledger = _typed(CostLedger)

    def _reason_code(reason: RejectReason) -> int:
        if type(reason) is not RejectReason:
            raise CodecError(f"not a RejectReason: {reason!r}")
        return reason_code[id(reason)]

    def _reason(code: Any) -> RejectReason:
        if type(code) is not int or not 0 <= code < len(reasons):
            raise CodecError(f"unknown reject-reason code {code!r}")
        return reasons[code]

    def _counters(value: Any) -> dict:
        if type(value) is not dict or any(
            type(k) is not str or type(v) is not int for k, v in value.items()
        ):
            raise TypeError("ledger counters map str to int")
        return value

    def _verdict_rows(verdicts: Any) -> bytes | None:
        """The verdicts as rows, or None if one will not fit its row."""
        rows = []
        try:
            for v in verdicts:
                if type(v) is not SampleVerdict:
                    return None
                index, accepted = v.index, v.accepted
                if type(index) is not int or type(accepted) is not bool:
                    return None
                rows.append(VERDICT_ROW.pack(
                    index, accepted << 7 | reason_code[id(v.reason)]
                ))
        except (KeyError, _struct.error):
            return None
        return b"".join(rows)

    def _new_verdict(shared: dict, row: tuple) -> SampleVerdict:
        accepted, reason = verdict_values[row[1]]
        verdict = shared[row] = SampleVerdict(row[0], accepted, reason)
        return verdict

    def _read_verdicts(rows: bytes, shared: dict) -> list[SampleVerdict]:
        get = shared.get
        return [
            get(row) or _new_verdict(shared, row)
            for row in VERDICT_ROW.iter_unpack(rows)
        ]

    def _zero(ledger: Any) -> bool:
        """``ledger`` is ``CostLedger()`` bit for bit (-0.0 is not 0.0)."""
        if type(ledger) is not CostLedger or ledger.counters:
            return False
        values = ledger_values(ledger)
        return all(map(operator.is_, values, zero_values)) or (
            values == zero_values
            and tuple(map(type, values)) == ledger_types
            and ledger_row.pack(*values) == zero_row
        )

    def _counter_rows(counters: Any, out: list) -> int:
        if type(counters) is not dict:
            raise TypeError("ledger counters are not a dict")
        for name, value in counters.items():
            if type(name) is not str or type(value) is not int:
                raise TypeError("ledger counters map str to int")
            raw = name.encode("utf-8")
            out += (COUNTER_ROW.pack(value, len(raw)), raw)
        return len(counters)

    def _read_counters(body: bytes, pos: int, count: int) -> tuple[dict, int]:
        counters = {}
        for _ in range(count):
            value, size = COUNTER_ROW.unpack_from(body, pos)
            pos += COUNTER_ROW.size
            counters[body[pos:pos + size].decode("utf-8")] = value
            pos += size
        if len(counters) != count:
            raise CodecError("duplicate ledger counter names")
        return counters, pos

    def pack_result(r: Any, enc: _Encoder, depth: int) -> bytes | None:
        work = r.work
        if work is not None and type(work) is not WorkSummary:
            raise CodecError(
                f"a result's work crosses the wire as a WorkSummary, not "
                f"{type(work).__name__}: leaf vectors stay where they "
                "were computed (engine.jobs.execute_batch summarizes)"
            )
        o, p, s = r.outcome, r.participant_ledger, r.supervisor_ledger
        if (
            type(o) is not VerificationOutcome
            or type(o.task_id) is not str
            or type(o.accepted) is not bool
            or type(p) is not CostLedger
            or type(s) is not CostLedger
            or not _zero(r.other_ledger)
        ):
            return None
        values = ledger_values(p) + ledger_values(s)
        rows = _verdict_rows(o.verdicts)
        if rows is None or tuple(map(type, values)) != two_ledger_types:
            return None
        n_inputs, n_honest = (0, 0) if work is None else (
            work.n_inputs, work.n_honest
        )
        if type(n_inputs) is not int or type(n_honest) is not int:
            return None
        try:
            task_id = o.task_id.encode("utf-8")
            tail = [rows, task_id]
            head = RESULT_HEAD.pack(
                _RECORD_BIT | o.accepted << 6 | (work is not None) << 5
                | reason_code[id(o.reason)],
                len(rows) // VERDICT_ROW.size, len(task_id),
                _counter_rows(p.counters, tail),
                _counter_rows(s.counters, tail),
                n_inputs, n_honest, *values,
            )
        except (KeyError, TypeError, ValueError, _struct.error):
            return None
        return head + b"".join(tail)

    def unpack_result(body: bytes, dec: _Decoder, depth: int) -> Any:
        flags, n_verdicts, n_task, n_p, n_s, n_inputs, n_honest, *values = (
            RESULT_HEAD.unpack_from(body)
        )
        pos = RESULT_HEAD.size + VERDICT_ROW.size * n_verdicts
        if pos + n_task > len(body):
            raise CodecError("truncated result record")
        verdicts = _read_verdicts(body[RESULT_HEAD.size:pos], dec.verdicts)
        task_id = body[pos:pos + n_task].decode("utf-8")
        p_counters, pos = _read_counters(body, pos + n_task, n_p)
        s_counters, pos = _read_counters(body, pos, n_s)
        if pos != len(body):
            raise CodecError(f"{len(body) - pos} bytes after a result record")
        if flags & 0x20:
            work = WorkSummary(n_inputs, n_honest)
        elif n_inputs or n_honest:
            raise CodecError("work counts in a result record without work")
        else:
            work = None
        return SchemeRunResult(
            VerificationOutcome(
                task_id, flags & 0x40 != 0, verdicts, reasons[flags & 0x1F]
            ),
            CostLedger(*values[:12], counters=p_counters),
            CostLedger(*values[12:], counters=s_counters),
            work,
            CostLedger(),
        )

    def pack_batch(batch: Any, enc: _Encoder, depth: int) -> bytes | None:
        jobs = batch.jobs
        if type(jobs) is not tuple or len(jobs) > MAX_CONTAINER_ITEMS:
            return None
        # Functions, screeners and behaviours, once each by identity:
        # id -> table index, and id -> the object, in first-use order.
        slots: dict[int, int] = {}
        table: dict[int, Any] = {}
        rows, task_ids = [], []
        for job in jobs:
            if type(job) is not SchemeJob:
                return None
            task = job.assignment
            if type(task) is not TaskAssignment:
                return None
            domain, task_id, seed = task.domain, task.task_id, job.seed
            if (
                type(domain) is not RangeDomain
                or type(domain.start) is not int
                or type(domain.stop) is not int
                or type(seed) is not int
                or type(task_id) is not str
            ):
                return None
            fn, screener, behavior = task.function, task.screener, job.behavior
            table[id(fn)] = fn
            table[id(screener)] = screener
            table[id(behavior)] = behavior
            try:
                raw = task_id.encode("utf-8")
                rows.append(BATCH_ROW.pack(
                    domain.start, domain.stop, seed,
                    slots.setdefault(id(fn), len(slots)),
                    slots.setdefault(id(screener), len(slots)),
                    slots.setdefault(id(behavior), len(slots)),
                    len(raw),
                ))
            except (ValueError, _struct.error):
                return None
            task_ids.append(raw)
        sub = enc.sharing()
        sub.out += BATCH_HEAD.pack(_RECORD_BIT, len(jobs))
        sub.value(batch.scheme, depth)
        sub.value(tuple(table.values()), depth)
        sub.out += b"".join(rows)
        sub.out += b"".join(task_ids)
        return bytes(sub.out)

    def unpack_batch(body: bytes, dec: _Decoder, depth: int) -> Any:
        marker, count = BATCH_HEAD.unpack_from(body)
        if marker != _RECORD_BIT:
            raise CodecError(f"bad batch record marker 0x{marker:02x}")
        _check_count("batch", count)
        sub = dec.sharing(body)
        sub.pos = BATCH_HEAD.size
        scheme = sub.value(depth)
        table = sub.value(depth)
        if type(table) is not tuple:
            raise CodecError("batch record table is not a tuple")
        end = sub.pos + BATCH_ROW.size * count
        if end > len(body):
            raise CodecError("truncated batch record")
        jobs = []
        for start, stop, seed, fn, screener, behavior, size in (
            BATCH_ROW.iter_unpack(body[sub.pos:end])
        ):
            task = TaskAssignment(
                body[end:end + size].decode("utf-8"), RangeDomain(start, stop),
                table[fn], table[screener],
            )
            jobs.append(SchemeJob(task, table[behavior], seed))
            end += size
        if end != len(body):
            raise CodecError("batch record task ids do not fill its body")
        return SchemeBatch(scheme, tuple(jobs))

    row, field = _StructRow, _StructField
    leaf_encoding = field("leaf_encoding", "leaf_encoding.value", LeafEncoding)
    # The plain structs.  Wire order is field order.  Schemes are
    # cacheable: stateless across runs, so one decoded instance serves
    # every chunk of a population.
    rows = (
        row("range_domain", RangeDomain, "start", "stop"),
        row("explicit_domain", ExplicitDomain, field("inputs", "_items")),
        row(
            "task_assignment", TaskAssignment,
            "task_id", "domain", "function", "screener",
        ),
        row("password_search", PasswordSearch, "salt", "digest_bytes", "cost"),
        row(
            "molecule_screening", MoleculeScreening,
            "library_seed", "resolution", "cost",
        ),
        row("signal_search", SignalSearch, "sky_seed", "threshold", "cost"),
        row("mersenne_check", MersenneCheck, "cost"),
        row("monte_carlo_estimate", MonteCarloEstimate, "n_samples", "cost"),
        row(
            "factoring_task", FactoringTask,
            "bits", "cost", "verify_cost", "seed",
        ),
        row(
            "optimization_search", OptimizationSearch,
            "landscape_seed", "n_wells", "resolution", "grid_side", "cost",
        ),
        row(
            "guessable_function", GuessableFunction,
            "inner", field("q", "guess_success_probability"),
        ),
        row("match_screener", MatchScreener, "target"),
        row("threshold_screener", ThresholdScreener, "threshold", "direction"),
        row("report_all_screener", ReportAllScreener),
        row("zero_guess", ZeroGuess),
        row("bernoulli_guess", BernoulliGuess, "q"),
        row("uniform_value_guess", UniformValueGuess, "alphabet"),
        row("honest_behavior", HonestBehavior),
        row(
            "semi_honest_cheater", SemiHonestCheater,
            "honesty_ratio", "guesser", "selection",
        ),
        row(
            "colluding_cheater", ColludingCheater,
            "honesty_ratio", "cartel_key", "guesser",
        ),
        row("malicious_behavior", MaliciousBehavior, "corruption_rate"),
        row(
            "cbs_scheme", CBSScheme,
            "n_samples", "hash_name", leaf_encoding, "subtree_height",
            "with_replacement", "include_reports", "stop_on_first_failure",
            cacheable=True,
        ),
        row(
            "nicbs_scheme", NICBSScheme,
            "n_samples", "sample_hash_name", "hash_name", leaf_encoding,
            "subtree_height", "stop_on_first_failure",
            cacheable=True,
        ),
        row(
            "naive_sampling_scheme", NaiveSamplingScheme,
            "n_samples", "with_replacement",
            cacheable=True,
        ),
        row(
            "double_check_scheme", DoubleCheckScheme,
            "replication", "replica_behaviors",
            cacheable=True,
        ),
        row(
            "ringer_scheme", RingerScheme,
            "n_ringers", "require_all",
            cacheable=True,
        ),
        row(
            "hardened_probe_scheme", HardenedProbeScheme,
            "n_probes",
            cacheable=True,
        ),
        row("scheme_job", _jobs.SchemeJob, "assignment", "behavior", "seed"),
        row(
            "scheme_batch", _jobs.SchemeBatch, "scheme", "jobs",
            record=_Record(pack_batch, unpack_batch),
        ),
        row("work_summary", WorkSummary, *(
            field(arg, arg, _typed(int)) for arg in ("n_inputs", "n_honest")
        )),
        row("cost_ledger", CostLedger, *(
            field(arg, arg, _typed(int, float, bool)) for arg in ledger_fields
        ), field("counters", "counters", _counters)),
        row(
            "scheme_run_result", SchemeRunResult,
            field("outcome", "outcome", _typed(VerificationOutcome)),
            field("participant_ledger", "participant_ledger", ledger),
            field("supervisor_ledger", "supervisor_ledger", ledger),
            field("work", "work", _typed(WorkSummary, type(None))),
            field("other_ledger", "other_ledger", ledger),
            record=_Record(pack_result, unpack_result),
        ),
    )
    for row in _index_structs(rows):
        _register(row)

    # --- the custom structs: state or packing a row cannot express ---
    def _pack_topk(s: TopKScreener) -> tuple:
        # Running top-k state rides along so a mid-population handoff
        # resumes exactly where a single-process run would be.
        return (s.k, [tuple(entry) for entry in s._heap])

    def _unpack_topk(f: tuple) -> TopKScreener:
        screener = TopKScreener(f[0])
        screener._heap = [tuple(entry) for entry in f[1]]
        return screener

    register_struct("topk_screener", TopKScreener, _pack_topk, _unpack_topk)

    # A service verification job answers with a bare outcome: its
    # verdicts ride as the result record's rows, or as a list of
    # ``sample_verdict`` structs when one will not fit a row.
    def _unpack_verdict(f: tuple) -> SampleVerdict:
        index, accepted, code = f
        if type(index) is not int or type(accepted) is not bool:
            raise CodecError("sample_verdict is (int, bool, reason code)")
        return SampleVerdict(index, accepted, _reason(code))

    def _pack_outcome(o: VerificationOutcome) -> tuple:
        rows = _verdict_rows(o.verdicts)
        return (
            o.task_id, o.accepted, _reason_code(o.reason),
            list(o.verdicts) if rows is None else rows,
        )

    def _unpack_outcome(f: tuple) -> VerificationOutcome:
        task_id, accepted, code, verdicts = f
        if type(task_id) is not str or type(accepted) is not bool:
            raise CodecError("verification_outcome is (str, bool, ...)")
        if type(verdicts) is list:
            if any(type(v) is not SampleVerdict for v in verdicts):
                raise CodecError("verdict list holds a non-verdict")
        elif type(verdicts) is bytes and not len(verdicts) % VERDICT_ROW.size:
            verdicts = _read_verdicts(verdicts, {})
        else:
            raise CodecError("verdict blob is not a whole number of records")
        return VerificationOutcome(task_id, accepted, verdicts, _reason(code))

    register_struct(
        "sample_verdict",
        SampleVerdict,
        lambda v: (v.index, v.accepted, _reason_code(v.reason)),
        _unpack_verdict,
    )
    register_struct(
        "verification_outcome",
        VerificationOutcome,
        _pack_outcome,
        _unpack_outcome,
    )

    # --- protocol messages (reuse their canonical binary codecs) ----
    for msg_name, msg_cls in (
        ("commitment_msg", CommitmentMsg),
        ("proof_bundle_msg", ProofBundleMsg),
        ("nicbs_submission_msg", NICBSSubmissionMsg),
    ):
        register_struct(
            msg_name,
            msg_cls,
            lambda m: (m.encode(),),
            lambda f, cls=msg_cls: cls.decode(f[0]),
        )

    # --- job entry points (everything the repo itself maps) ---------
    # Names are short on purpose: each payload spells each name once,
    # so name length is fixed per-job overhead on the wire.
    register_callable("engine.execute_batch", _jobs.execute_batch)
    register_callable("service.verify_cbs", _verify.verify_cbs_job)
    register_callable("service.verify_nicbs", _verify.verify_nicbs_job)
    register_callable("service.timed", _verify.timed)


# Loaded with this module, its owner: a drifted row fails this import,
# like a drifted frame or term table, instead of the first job.
_register_defaults()
