"""The field table every wire layout is written in, and its one walker.

A layout — a service frame (:mod:`repro.service.codec`), a protocol
message (:mod:`repro.core.protocol`) — is an ordered row of
:class:`Field` specs.  A field names its *kind*; a kind is an
``(encode, read)`` pair, with a ``size`` where a protocol message uses
it, in :data:`KINDS` (or in the kinds table of the one module that can
build it), looked up once per row when the row is
bound (:class:`Layout`, at import), never per message.  The
kinds sit directly on the :mod:`repro.utils.encoding` primitives
(varints, length-prefixed bytes, bounds checked before any slice), so
the bytes a row produces are exactly the bytes the E3 communication
accounting measures.  README "Wire formats" lists the kinds once and
every row that uses them.

Encoding trusts its local caller; reading polices everything the peer
sent — ranges, sizes, UTF-8, inner encodings — and raises the field's
``error`` class (or the :class:`~repro.exceptions.CodecError` of a
malformed primitive), prefixed with the layout and field it was in.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Iterable, NamedTuple

from repro.exceptions import CodecError, ProtocolError, ReproError
from repro.utils.encoding import (
    bytes_list_size,
    encode_bytes,
    encode_bytes_list,
    encode_uint,
    encode_uint_list,
    read_bytes,
    read_bytes_list,
    read_uint,
    read_uint_list,
    uint_list_size,
    uint_size,
    unzigzag,
    zigzag,
)

#: The largest value :func:`~repro.utils.encoding.read_uint` can return
#: (eleven 7-bit groups): the ``hi`` of a field that declares no range.
VARINT_MAX = (1 << 77) - 1

#: Ceiling on anything a reader sizes from a count the peer claimed
#: rather than from bytes the peer sent: one job-payload container
#: (:mod:`repro.service.jobcodec`), the ``m × height`` sibling slots of
#: a proof bundle (:mod:`repro.core.protocol`).
MAX_CONTAINER_ITEMS = 1 << 21


class Field(NamedTuple):
    """One field of a layout: attribute, wire kind, and the bounds the
    reader holds the peer to (raising ``error`` when they are broken).

    ``uint`` is an unsigned varint in ``lo..hi``, ``int`` a zigzag
    varint in ``-hi-1..hi``, ``flag`` one byte, 0 or 1, and ``bool`` a
    varint read as its truth value.  ``bytes``, ``str`` (UTF-8; one of
    ``arg``, if given) and ``msg`` (the canonical encoding of message
    class ``arg``) are length-prefixed and ``lo..hi`` bytes long.
    ``uints``, ``bytes_list`` and ``strs`` are a count followed by that
    many items, read back as tuples.  A module binds the kinds only it
    can build from its own extension of :data:`KINDS`.  An ``optional``
    field leads with a presence flag byte and is ``None`` when it is
    clear.
    """

    attr: str
    kind: str
    lo: int = 0
    hi: int = (1 << 63) - 1
    arg: Any = None
    optional: bool = False
    error: type = ProtocolError


def _of_value(encode: Callable) -> Callable:
    """The encode half of a kind that takes nothing from its field."""
    return lambda field, value: encode(value)


def _tupled(read: Callable) -> Callable:
    def read_tuple(field: Field, data: bytes, pos: int) -> tuple[tuple, int]:
        items, pos = read(data, pos)
        return tuple(items), pos

    return read_tuple


def _read_uint(field: Field, data: bytes, pos: int) -> tuple[int, int]:
    value, pos = read_uint(data, pos)
    if not field.lo <= value <= field.hi:
        raise field.error(f"must be in {field.lo}..{field.hi}, got {value}")
    return value, pos


def _encode_int(field: Field, value: int) -> bytes:
    return encode_uint(zigzag(value))


def _read_int(field: Field, data: bytes, pos: int) -> tuple[int, int]:
    folded, pos = read_uint(data, pos)
    value = unzigzag(folded)
    if not -field.hi - 1 <= value <= field.hi:
        raise field.error(
            f"must be in {-field.hi - 1}..{field.hi}, got {value}"
        )
    return value, pos


def _encode_flag(field: Field, value: Any) -> bytes:
    return b"\x01" if value else b"\x00"


def _read_flag(field: Field, data: bytes, pos: int) -> tuple[bool, int]:
    if pos >= len(data):
        raise CodecError("truncated flag byte")
    if data[pos] > 1:
        raise ProtocolError(f"flag byte must be 0 or 1, got {data[pos]}")
    return data[pos] == 1, pos + 1


def _read_bool(field: Field, data: bytes, pos: int) -> tuple[bool, int]:
    value, pos = read_uint(data, pos)
    return bool(value), pos


def read_sized(field: Field, data: bytes, pos: int) -> tuple[bytes, int]:
    """A length-prefixed byte string of ``field.lo..field.hi`` bytes."""
    raw, pos = read_bytes(data, pos)
    if not field.lo <= len(raw) <= field.hi:
        raise field.error(
            f"must be {field.lo}..{field.hi} bytes, got {len(raw)}"
        )
    return raw, pos


def _decode_text(field: Field, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise field.error(f"bad str: {exc}") from exc


def _encode_str(field: Field, value: str) -> bytes:
    return encode_bytes(value.encode("utf-8"))


def _read_str(field: Field, data: bytes, pos: int) -> tuple[str, int]:
    raw, pos = read_sized(field, data, pos)
    text = _decode_text(field, raw)
    if field.arg and text not in field.arg:
        raise field.error(f"must be one of {field.arg}, got {text!r}")
    return text, pos


def _encode_msg(field: Field, value: Any) -> bytes:
    return encode_bytes(value.encode())


def _read_msg(field: Field, data: bytes, pos: int) -> tuple[Any, int]:
    raw, pos = read_sized(field, data, pos)
    return field.arg.decode(raw), pos


def _encode_strs(field: Field, value: Iterable[str]) -> bytes:
    return encode_bytes_list([text.encode("utf-8") for text in value])


def _read_strs(field: Field, data: bytes, pos: int) -> tuple[tuple, int]:
    items, pos = read_bytes_list(data, pos)
    return tuple(_decode_text(field, raw) for raw in items), pos


def _sized(length: int) -> int:
    """Bytes a ``length``-byte item takes behind its length prefix."""
    return uint_size(length) + length


def _str_size(field: Field, value: str) -> int:
    return _sized(len(value) if value.isascii() else len(value.encode("utf-8")))


#: kind name -> ``(encode(field, value), read(field, data, pos)[,
#: size(field, value)])``, ``size`` being ``len(encode(...))`` summed
#: from the value: a kind a protocol message uses has one (it is what
#: :meth:`WireMessage.wire_size` adds up), no other kind does.  A
#: constant: a module with a kind only it can build (``proofs``,
#: ``payload``, ``json``) binds its rows from its own ``{**KINDS, ...}``.
KINDS: dict[str, tuple[Callable, ...]] = {
    "uint": (_of_value(encode_uint), _read_uint, _of_value(uint_size)),
    "int": (_encode_int, _read_int),
    "flag": (_encode_flag, _read_flag),
    "bool": (_encode_flag, _read_bool, lambda field, value: 1),
    # What ``+`` joins a buffer by: its bytes, not its items.
    "bytes": (
        _of_value(encode_bytes), read_sized,
        lambda field, value: _sized(memoryview(value).nbytes),
    ),
    "str": (_encode_str, _read_str, _str_size),
    "msg": (_encode_msg, _read_msg),
    "uints": (_of_value(encode_uint_list), _tupled(read_uint_list), _of_value(uint_list_size)),
    "bytes_list": (
        _of_value(encode_bytes_list), _tupled(read_bytes_list), _of_value(bytes_list_size)
    ),
    "strs": (
        _encode_strs, _read_strs,
        lambda field, value: bytes_list_size([text.encode("utf-8") for text in value]),
    ),
}


def _optional(encode: Callable, read: Callable) -> tuple[Callable, Callable]:
    def encode_optional(field: Field, value: Any) -> bytes:
        return b"\x00" if value is None else b"\x01" + encode(field, value)

    def read_optional(field: Field, data: bytes, pos: int) -> tuple[Any, int]:
        present, pos = _read_flag(field, data, pos)
        return read(field, data, pos) if present else (None, pos)

    return encode_optional, read_optional


class Layout:
    """An ordered row of fields bound to their kinds — the one walker.

    Binding raises :class:`ValueError` on a kind ``kinds`` does not hold
    or a row that does not cover ``names`` (the attributes of the class
    it lays out) exactly, so a drifted table fails where it is built:
    at import.
    """

    __slots__ = ("what", "_steps")

    def __init__(
        self,
        what: str,
        fields: tuple[Field, ...],
        names: Iterable[str],
        kinds: dict[str, tuple[Callable, ...]] = KINDS,
    ) -> None:
        if sorted(field.attr for field in fields) != sorted(names):
            raise ValueError(f"{what}: row does not cover its class's fields")
        steps = []
        for field in fields:
            if field.kind not in kinds:
                raise ValueError(
                    f"{what}, field {field.attr}: no kind {field.kind!r}"
                )
            encode, read, *size = kinds[field.kind]
            if field.optional:
                (encode, read), size = _optional(encode, read), []
            steps.append((field.attr, field, encode, read, size[0] if size else None))
        self.what = what
        self._steps = tuple(steps)

    def encode(self, obj: Any, head: bytes = b"") -> bytes:
        """``head`` followed by every field of ``obj``, in row order."""
        parts = [head]
        try:
            for attr, field, encode, _read, _size in self._steps:
                parts.append(encode(field, getattr(obj, attr)))
        except ReproError as exc:
            raise type(exc)(f"{self.what}, field {attr}: {exc}") from exc
        return b"".join(parts)

    def size(self, obj: Any) -> int:
        """``len(self.encode(obj))``, summed from the fields' sizes (a
        row with an optional field, or a kind without a size, has none)."""
        total = 0
        try:
            for attr, field, _encode, _read, size in self._steps:
                total += size(field, getattr(obj, attr))
        except ReproError as exc:
            raise type(exc)(f"{self.what}, field {attr}: {exc}") from exc
        return total

    def read(self, data: bytes, pos: int) -> tuple[dict[str, Any], int]:
        """Read every field at ``pos``: ``(values by attribute, next)``."""
        values = {}
        try:
            for attr, field, _encode, read, _size in self._steps:
                values[attr], pos = read(field, data, pos)
        except ReproError as exc:
            raise type(exc)(f"{self.what}, field {attr}: {exc}") from exc
        return values, pos


class WireMessage:
    """Base of a table-defined message: a dataclass whose ``FIELDS`` row
    is its whole wire layout.  Subclasses inherit the one
    ``encode``/``decode``/``wire_size``; the row is bound (from ``kinds``,
    a class keyword), and checked against the class's annotated
    attributes, when the class is made.
    """

    FIELDS: ClassVar[tuple[Field, ...]] = ()
    _layout: ClassVar[Layout]

    def __init_subclass__(cls, kinds: dict = KINDS, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        declared = cls.__dict__.get("__annotations__", {})
        cls._layout = Layout(cls.__name__, cls.FIELDS, declared, kinds)

    def encode(self) -> bytes:
        """The canonical bytes of this message."""
        return self._layout.encode(self)

    @classmethod
    def decode_at(cls, data: bytes, offset: int = 0) -> tuple[Any, int]:
        """Decode one message at ``offset``: ``(message, next_offset)``."""
        values, pos = cls._layout.read(data, offset)
        return cls(**values), pos

    @classmethod
    def decode(cls, data: bytes) -> Any:
        """Decode a message occupying the whole of ``data``."""
        message, pos = cls.decode_at(data, 0)
        if pos != len(data):
            raise CodecError(f"trailing bytes in {cls.__name__}")
        return message

    def wire_size(self) -> int:
        """Bytes this message costs on the wire: ``len(encode())``,
        summed from its fields without building them."""
        return self._layout.size(self)
