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
that carry state or packed records bring their own functions.
Struct names are interned per payload (first use spells the name,
later uses are a 2-byte index) and instances are memoized by identity
(a behaviour shared by fifty jobs in a batch is encoded once and
back-referenced).

**Callable registry.**  A payload can only invoke a callable that both
sides registered under an explicit name at import time
(:func:`register_callable`).  There is deliberately no import-by-name
fallback: an unregistered name is a :class:`CodecError`, never an
``importlib`` call.  Workers preload registration modules via
``--preload`` (operator-controlled argv, never wire-controlled).

**Scheme cache.**  Structs registered ``cacheable=True`` (the
stateless verification schemes) have self-contained bodies: the body
bytes are a canonical key, so a worker can keep a bounded LRU
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

from repro.core.wire import MAX_CONTAINER_ITEMS
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
    "MAX_INT_BYTES",
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
    "ensure_default_registry",
    "register_callable",
    "register_struct",
    "registered_callables",
    "registered_structs",
]


# ----------------------------------------------------------------------
# Size caps (per field, enforced on both encode and decode)
# ----------------------------------------------------------------------

#: Ceiling on one str/bytes field.  Leaf-payload vectors and result
#: values stay far below this; the whole payload is additionally
#: bounded by ``MAX_CLUSTER_PAYLOAD_BYTES``.
MAX_FIELD_BYTES = 8 * 1024 * 1024
#: Ceiling on term nesting depth.
MAX_DEPTH = 64
#: Ceiling on a registry (struct/callable) name.
MAX_NAME_BYTES = 120
#: Ceiling on a bigint magnitude in bytes.
MAX_INT_BYTES = 4096


_INT_LIMIT = 1 << 63  # |x| below this rides the zigzag varint path


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


class _StructSpec(NamedTuple):
    name: str
    cls: type
    pack: Callable[[Any], tuple]
    unpack: Callable[[tuple], Any]
    cacheable: bool


_registry_lock = threading.Lock()
_STRUCTS: dict[str, _StructSpec] = {}
_STRUCTS_BY_TYPE: dict[type, _StructSpec] = {}
_CALLABLES: dict[str, Callable] = {}
_CALLABLE_NAMES: dict[Callable, str] = {}
_defaults_loaded = False


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
    if len(name.encode("utf-8")) > MAX_NAME_BYTES:
        raise CodecError(f"struct name too long: {name!r}")
    with _registry_lock:
        existing = _STRUCTS.get(name)
        if existing is not None and existing.cls is not cls:
            raise CodecError(
                f"struct name {name!r} already registered for "
                f"{existing.cls.__name__}"
            )
        spec = _StructSpec(name, cls, pack, unpack, cacheable)
        _STRUCTS[name] = spec
        _STRUCTS_BY_TYPE[cls] = spec


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
    ensure_default_registry()
    with _registry_lock:
        return {name: spec.cls for name, spec in sorted(_STRUCTS.items())}


def registered_callables() -> dict[str, Callable]:
    """Snapshot of the callable registry."""
    ensure_default_registry()
    with _registry_lock:
        return dict(sorted(_CALLABLES.items()))


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
    """One plain struct: wire name, class, its fields in wire order, and
    whether decoded instances may be shared (:class:`SchemeCache`).  A
    field given as a bare string is the attribute named like the
    constructor argument it feeds.  ``pack``/``unpack`` are the one
    generic pair every row is served by; ``unpack`` goes through the
    real constructor, by keyword, so its validation re-runs."""

    def __init__(
        self,
        name: str,
        cls: type,
        *fields: str | _StructField,
        cacheable: bool = False,
    ) -> None:
        specs = [
            f if isinstance(f, _StructField) else _StructField(f, f)
            for f in fields
        ]
        self.name = name
        self.cls = cls
        self.cacheable = cacheable
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
            kwargs[arg] = convert(kwargs[arg])
        return self.cls(**kwargs)


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
            self._int(obj)
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
        elif type(obj) in (set, frozenset):
            self._set(obj, depth)
        else:
            self._registered(obj, depth)

    def _int(self, obj: int) -> None:
        if -_INT_LIMIT < obj < _INT_LIMIT:
            self.out.append(Tag.INT)
            self.out += encode_uint(zigzag(obj))
            return
        magnitude = abs(obj)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        _check_field_size("bigint field", len(raw), MAX_INT_BYTES)
        self.out.append(Tag.BIGINT)
        self.out.append(1 if obj < 0 else 0)
        self.out += encode_uint(len(raw))
        self.out += raw

    def _items(self, tag: int, what: str, obj: Any, depth: int) -> None:
        _check_count(what, len(obj))
        self.out.append(tag)
        self.out += encode_uint(len(obj))
        for item in obj:
            self.value(item, depth + 1)

    def _set(self, obj: Any, depth: int) -> None:
        _check_count("set", len(obj))
        # Canonical order: sort by each element's own encoding, so the
        # bytes never depend on hash seeds or insertion history.
        encoded: list[bytes] = []
        for item in obj:
            sub = _Encoder()
            sub.value(item, depth + 1)
            encoded.append(bytes(sub.out))
        self.out.append(Tag.SET)
        self.out += encode_uint(len(encoded))
        for raw in sorted(encoded):
            self.out += raw

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
        spec = _STRUCTS_BY_TYPE.get(type(obj))
        if spec is None:
            raise CodecError(
                f"type {type(obj).__name__} is not encodable on the "
                "cluster wire: register it with "
                "repro.service.jobcodec.register_struct (or "
                "register_callable for functions)"
            )
        self._remember(obj)
        fields = spec.pack(obj)
        if type(fields) is not tuple:
            raise CodecError(
                f"pack for struct {spec.name!r} must return a tuple"
            )
        # Tag and name go out before the body is encoded so shared
        # name-interning indices are assigned in the same order the
        # decoder will observe them.
        self.out.append(Tag.STRUCT)
        self.emit_name(spec.name)
        if spec.cacheable:
            # Self-contained body: fresh interning state, so the body
            # bytes are a canonical SchemeCache key.
            sub = _Encoder()
            sub.value(fields, 0)
        else:
            sub = _Encoder()
            sub.memo = self.memo
            sub.keepalive = self.keepalive
            sub.names = self.names
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

    def take(self, n: int, what: str) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError(f"truncated {what} (wanted {n} bytes)")
        raw = self.data[self.pos:end]
        self.pos = end
        return raw

    def uint(self, what: str) -> int:
        try:
            value, self.pos = read_uint(self.data, self.pos)
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
        tag = self.take(1, "tag")[0]
        decoder = _DECODERS.get(tag)
        if decoder is None:
            raise CodecError(f"unknown value tag 0x{tag:02x}")
        return decoder(self, depth)


def _constant(value: Any) -> Callable[[_Decoder, int], Any]:
    def decode(dec: _Decoder, depth: int) -> Any:
        return value

    return decode


def _dec_int(dec: _Decoder, depth: int) -> int:
    folded = dec.uint("int")
    value = unzigzag(folded)
    # -2**63 included: the encoder sends it as a bigint, and a value
    # has one encoding.
    if not -_INT_LIMIT < value < _INT_LIMIT:
        raise CodecError(f"int term out of range: zigzag {folded}")
    return value


def _dec_bigint(dec: _Decoder, depth: int) -> int:
    sign = dec.take(1, "bigint sign")[0]
    if sign not in (0, 1):
        raise CodecError(f"bad bigint sign byte {sign}")
    length = dec.uint("bigint length")
    _check_field_size("bigint field", length, MAX_INT_BYTES)
    magnitude = int.from_bytes(dec.take(length, "bigint"), "big")
    if magnitude < _INT_LIMIT:
        raise CodecError("bigint used for a value that fits the int tag")
    return -magnitude if sign else magnitude


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


def _dec_set(dec: _Decoder, depth: int) -> set:
    count = dec.uint("set count")
    _check_count("set", count)
    out = set()
    for _ in range(count):
        try:
            out.add(dec.value(depth + 1))
        except TypeError as exc:
            raise CodecError(f"unhashable set element: {exc}") from exc
    if len(out) != count:
        raise CodecError("duplicate set elements")
    return out


def _dec_struct(dec: _Decoder, depth: int) -> Any:
    name = dec.name()
    spec = _STRUCTS.get(name)
    if spec is None:
        raise CodecError(f"unknown struct name {name!r}")
    body_len = dec.uint("struct body length")
    _check_field_size("struct body", body_len, MAX_FIELD_BYTES)
    slot = len(dec.memo)
    dec.memo.append(_UNFILLED)
    body = dec.take(body_len, f"struct {name!r} body")
    if spec.cacheable and dec.cache is not None:
        obj = dec.cache.get_or_build(name, body, spec)
    else:
        obj = _build_struct(spec, body, None if spec.cacheable else dec)
    dec.memo[slot] = obj
    return obj


def _build_struct(
    spec: _StructSpec, body: bytes, outer: "_Decoder | None"
) -> Any:
    """Decode a struct body and run it through the registered ctor."""
    sub = _Decoder(body, None)
    if outer is not None:
        # Non-cacheable bodies share the payload's interning state.
        sub.cache = outer.cache
        sub.memo = outer.memo
        sub.names = outer.names
    fields = sub.value(0)
    if sub.pos != len(body):
        raise CodecError(
            f"{len(body) - sub.pos} trailing bytes in struct "
            f"{spec.name!r} body"
        )
    if type(fields) is not tuple:
        raise CodecError(f"struct {spec.name!r} body is not a field tuple")
    try:
        return spec.unpack(fields)
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(
            f"struct {spec.name!r} rejected by its constructor: "
            f"{type(exc).__name__}: {exc}"
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


#: The term vocabulary.  ``Tag.<NAME>`` is derived from it.
TERMS: tuple[Term, ...] = (
    Term(0x00, "none", _constant(None)),
    Term(0x01, "true", _constant(True)),
    Term(0x02, "false", _constant(False)),
    Term(0x03, "int", _dec_int),
    Term(0x04, "bigint", _dec_bigint),
    Term(0x05, "float", _dec_float),
    Term(0x06, "str", _dec_str),
    Term(0x07, "bytes", _dec_bytes),
    Term(0x08, "tuple", _dec_tuple),
    Term(0x09, "list", _dec_list),
    Term(0x0A, "dict", _dec_dict),
    Term(0x0B, "set", _dec_set),
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


class SchemeCache:
    """Bounded LRU of constructed cacheable structs, keyed by body bytes.

    The key is ``(struct name, canonical body bytes)`` — cacheable
    struct bodies are encoded with payload-independent interning
    precisely so equal parameters always produce equal bytes.
    Thread-safe.  Hit/miss/eviction totals are plain counters here;
    the planes that own a cache publish them as
    ``repro_scheme_cache_{hits,misses}_total{plane=...}`` on their own
    registries (worker daemon directly, coordinator from the
    ``cache_hits``/``cache_misses`` result-frame fields), which keeps
    one process from double counting when it hosts both ends.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, bytes], Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, name: str, body: bytes, spec: _StructSpec) -> Any:
        key = (name, bytes(body))
        with self._lock:
            obj = self._entries.get(key)
            if obj is not None:
                # dict preserves insertion order: re-insert = LRU touch.
                del self._entries[key]
                self._entries[key] = obj
                self.hits += 1
                return obj
        obj = _build_struct(spec, body, None)
        with self._lock:
            self.misses += 1
            if key not in self._entries:
                while len(self._entries) >= self.max_entries:
                    oldest = next(iter(self._entries))
                    del self._entries[oldest]
                    self.evictions += 1
                self._entries[key] = obj
        return obj

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


# ----------------------------------------------------------------------
# Payload / chunk / outcome envelopes (the cluster wire trio)
# ----------------------------------------------------------------------


def encode_cluster_payload(
    obj: Any, max_bytes: int = MAX_CLUSTER_PAYLOAD_BYTES
) -> bytes:
    """Encode one value as a typed cluster payload, enforcing the cap."""
    ensure_default_registry()
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
    ensure_default_registry()
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

    ``functools.partial`` stacks are flattened first, so pre-bound jobs
    (the service plane's verification offloads) encode as their
    underlying registered callable.
    """
    import functools

    while isinstance(fn, functools.partial):
        kwargs = {**fn.keywords, **kwargs}
        args = fn.args + tuple(args)
        fn = fn.func
    ensure_default_registry()
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


def ensure_default_registry() -> None:
    """Register the repo's own wire types and job entry points (once).

    Central on purpose: this function is the complete, auditable list
    of what cluster bytes can become.  Third-party jobs extend it via
    :func:`register_struct` / :func:`register_callable` in a module
    both sides import (workers: ``--preload``).
    """
    global _defaults_loaded
    if _defaults_loaded:
        return
    with _registry_lock:
        if _defaults_loaded:
            return
        _defaults_loaded = True
    _register_defaults()


def _register_defaults() -> None:
    import importlib

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
        row("scheme_batch", _jobs.SchemeBatch, "scheme", "jobs"),
    )
    for spec in _index_structs(rows):
        register_struct(
            spec.name, spec.cls, spec.pack, spec.unpack, spec.cacheable
        )

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

    # --- outcome records (the result plane) -------------------------
    # Packed, not nested: one result is ~a dozen primitive terms (see
    # the README's "Result records"), where a struct per verdict and
    # per reason cost a sub-encoder each.  Any value that will not fit
    # its fixed record exactly rides the generic term path instead.
    reasons = tuple(RejectReason)  # wire code = position: append only
    reason_codes = {reason: code for code, reason in enumerate(reasons)}
    verdict_record = _struct.Struct(">IB")  # index, accepted<<7 | reason
    ledger_fields = (
        "evaluation_cost", "evaluations", "verification_cost",
        "verifications", "hash_cost", "hashes", "bytes_sent",
        "bytes_received", "messages_sent", "messages_received",
        "storage_digests", "screening_cost",
    )
    ledger_layout = "dqdqdqqqqqqd"  # costs binary64, counts int64
    ledger_record = _struct.Struct(">" + ledger_layout)
    ledger_types = tuple(float if c == "d" else int for c in ledger_layout)
    ledger_values = operator.attrgetter(*ledger_fields)
    zero_ledger = (ledger_record.pack(*ledger_values(CostLedger())), None)

    def _reason_code(reason: RejectReason) -> int:
        if type(reason) is not RejectReason:
            raise CodecError(f"not a RejectReason: {reason!r}")
        return reason_codes[reason]

    def _reason(code: Any) -> RejectReason:
        if type(code) is not int or not 0 <= code < len(reasons):
            raise CodecError(f"unknown reject-reason code {code!r}")
        return reasons[code]

    def _pack_verdicts(verdicts: Any) -> bytes | list:
        out = bytearray()
        for v in verdicts:
            if (
                type(v) is not SampleVerdict
                or type(v.index) is not int
                or not 0 <= v.index <= 0xFFFFFFFF
                or type(v.accepted) is not bool
                or type(v.reason) is not RejectReason
            ):
                return list(verdicts)
            out += verdict_record.pack(
                v.index, v.accepted << 7 | reason_codes[v.reason]
            )
        return bytes(out)

    def _unpack_verdicts(packed: Any) -> list[SampleVerdict]:
        if type(packed) is list:
            if any(type(v) is not SampleVerdict for v in packed):
                raise CodecError("verdict list holds a non-verdict")
            return packed
        if type(packed) is not bytes or len(packed) % verdict_record.size:
            raise CodecError("verdict blob is not a whole number of records")
        return [
            SampleVerdict(index, byte >= 0x80, _reason(byte & 0x7F))
            for index, byte in verdict_record.iter_unpack(packed)
        ]

    def _pack_outcome(o: VerificationOutcome) -> tuple:
        return (
            o.task_id, o.accepted, _reason_code(o.reason),
            _pack_verdicts(o.verdicts),
        )

    def _unpack_outcome(f: tuple) -> VerificationOutcome:
        task_id, accepted, code, verdicts = f
        return VerificationOutcome(
            task_id=task_id,
            accepted=accepted,
            verdicts=_unpack_verdicts(verdicts),
            reason=_reason(code),
        )

    def _pack_ledger(ledger: CostLedger) -> tuple:
        record: Any = ledger_values(ledger)
        if tuple(map(type, record)) == ledger_types:
            try:
                record = ledger_record.pack(*record)
            except _struct.error:
                pass  # a count beyond int64: the bigint term carries it
        return record, ledger.counters or None

    def _unpack_ledger(f: tuple) -> CostLedger:
        record, counters = f
        if type(record) is bytes:
            if len(record) != ledger_record.size:
                raise CodecError("ledger record has the wrong length")
            record = ledger_record.unpack(record)
        elif type(record) is not tuple or len(record) != len(ledger_fields):
            raise CodecError("ledger record has the wrong shape")
        if counters is None:
            counters = {}
        elif type(counters) is not dict:
            raise CodecError("ledger counters are not a dict")
        return CostLedger(**dict(zip(ledger_fields, record)), counters=counters)

    def _pack_result(r: SchemeRunResult) -> tuple:
        if r.work is None:
            work = None
        elif type(r.work) is WorkSummary:
            work = (r.work.n_inputs, r.work.n_honest)
        else:
            raise CodecError(
                f"a result's work crosses the wire as a WorkSummary, not "
                f"{type(r.work).__name__}: leaf vectors stay where they "
                "were computed (engine.jobs.execute_batch summarizes)"
            )
        other = _pack_ledger(r.other_ledger)
        return (
            *_pack_outcome(r.outcome),
            *_pack_ledger(r.participant_ledger),
            *_pack_ledger(r.supervisor_ledger),
            *((None, None) if other == zero_ledger else other),
            work,
        )

    def _unpack_result(f: tuple) -> SchemeRunResult:
        if len(f) != 11:
            raise CodecError(f"scheme_run_result has {len(f)} fields, not 11")
        work = f[10]
        if work is not None:
            if type(work) is not tuple or [*map(type, work)] != [int, int]:
                raise CodecError("work summary is not a pair of counts")
            work = WorkSummary(*work)
        return SchemeRunResult(
            outcome=_unpack_outcome(f[0:4]),
            participant_ledger=_unpack_ledger(f[4:6]),
            supervisor_ledger=_unpack_ledger(f[6:8]),
            work=work,
            other_ledger=(
                CostLedger() if f[8] is None else _unpack_ledger(f[8:10])
            ),
        )

    register_struct(
        "sample_verdict",
        SampleVerdict,
        lambda v: (v.index, v.accepted, _reason_code(v.reason)),
        lambda f: SampleVerdict(
            index=f[0], accepted=f[1], reason=_reason(f[2])
        ),
    )
    register_struct(
        "verification_outcome",
        VerificationOutcome,
        _pack_outcome,
        _unpack_outcome,
    )
    register_struct("cost_ledger", CostLedger, _pack_ledger, _unpack_ledger)
    register_struct(
        "scheme_run_result", SchemeRunResult, _pack_result, _unpack_result
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
    # `repro.analysis` re-exports a `sweep` *function*, shadowing the
    # submodule attribute — resolve the module itself.
    _sweep = importlib.import_module("repro.analysis.sweep")
    register_callable("sweep.eval_point", _sweep._eval_point)
    register_callable("service.verify_cbs", _verify.verify_cbs_job)
    register_callable("service.verify_nicbs", _verify.verify_nicbs_job)
    register_callable("service.timed", _verify.timed)
