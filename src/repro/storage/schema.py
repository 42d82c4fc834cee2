"""Fixed-size record schemas.

Dali lays records out as fixed-size slots ("the efficient layout of
fixed-size records", Section 2); the TPC-B tables of the performance study
all use 100-byte records.  A :class:`Schema` maps field names to offsets
inside the slot so a balance update touches only the eight bytes of the
balance field -- update granularity matters for codeword maintenance cost.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigError


class FieldType(Enum):
    INT64 = "int64"
    UINT32 = "uint32"
    FLOAT64 = "float64"
    CHAR = "char"  # fixed-length byte string, NUL padded

    @property
    def struct_code(self) -> str:
        return _STRUCT_CODES[self.value]


_STRUCT_CODES = {"int64": "q", "uint32": "I", "float64": "d"}


@dataclass(frozen=True)
class Field:
    """One fixed-size field; ``size`` is required (and only valid) for CHAR."""

    name: str
    type: FieldType
    size: int = 0

    def __post_init__(self) -> None:
        if self.type is FieldType.CHAR:
            if self.size <= 0:
                raise ConfigError(f"CHAR field {self.name!r} needs a positive size")
        elif self.size:
            raise ConfigError(f"size is only valid for CHAR fields: {self.name!r}")

    @property
    def byte_size(self) -> int:
        if self.type is FieldType.CHAR:
            return self.size
        return struct.calcsize("<" + self.type.struct_code)


class Schema:
    """An ordered set of fields with computed offsets.

    The codecs are compiled once, here: a ``(offset, size, struct)`` entry
    per field (``struct`` is None for CHAR) and one ``struct.Struct`` over
    the whole record, so encoding or decoding a row is one pack or unpack.
    """

    def __init__(self, fields: list[Field]) -> None:
        if not fields:
            raise ConfigError("a schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate field names in schema: {names}")
        self.fields = tuple(fields)
        self._by_name: dict[str, Field] = {}
        self._codecs: dict[str, tuple[int, int, struct.Struct | None]] = {}
        codes = []
        offset = 0
        for f in fields:
            size = f.byte_size
            if f.type is FieldType.CHAR:
                code, codec = f"{size}s", None
            else:
                code = f.type.struct_code
                codec = struct.Struct("<" + code)
            self._by_name[f.name] = f
            self._codecs[f.name] = (offset, size, codec)
            codes.append(code)
            offset += size
        self.record_size = offset
        self._record = struct.Struct("<" + "".join(codes))
        self._names = tuple(names)
        self._defaults = tuple(
            (f.name, b"" if f.type is FieldType.CHAR else 0) for f in fields
        )
        #: ``(column, size)`` of each CHAR field.
        self._char_columns = tuple(
            (i, f.size) for i, f in enumerate(fields) if f.type is FieldType.CHAR
        )

    def __reduce__(self):
        # Compiled structs do not pickle; a worker recompiles them.
        return Schema, (list(self.fields),)

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigError(f"no field named {name!r}") from None

    def _codec(self, name: str) -> tuple[int, int, struct.Struct | None]:
        try:
            return self._codecs[name]
        except KeyError:
            raise ConfigError(f"no field named {name!r}") from None

    def offset_of(self, name: str) -> int:
        return self._codec(name)[0]

    def field_range(self, name: str) -> tuple[int, int]:
        """``(offset, byte_size)`` of a field within the record."""
        offset, size, _codec = self._codec(name)
        return offset, size

    # ------------------------------------------------------------ codec

    def encode_field(self, name: str, value) -> bytes:
        _offset, size, codec = self._codec(name)
        if codec is not None:
            return codec.pack(value)
        if isinstance(value, str):
            value = value.encode("utf-8")
        if len(value) > size:
            raise ConfigError(
                f"value for {name!r} is {len(value)} bytes, field holds {size}"
            )
        return value.ljust(size, b"\x00")

    def decode_field(self, name: str, data: bytes):
        _offset, _size, codec = self._codec(name)
        if codec is None:
            return bytes(data).rstrip(b"\x00")
        return codec.unpack(data)[0]

    def encode(self, values: dict) -> bytes:
        """Encode a full record; missing fields default to zero/empty."""
        unknown = values.keys() - self._codecs.keys()
        if unknown:
            raise ConfigError(f"unknown fields: {sorted(unknown)}")
        row = []
        for name, default in self._defaults:
            value = values.get(name)
            row.append(default if value is None else value)
        try:
            for i, size in self._char_columns:
                value = row[i]
                if isinstance(value, str):
                    row[i] = value = value.encode("utf-8")
                if len(value) > size:
                    break
            else:
                return self._record.pack(*row)
        except (struct.error, TypeError, ValueError):
            pass
        # Some value does not fit its field: encode field by field, so the
        # first bad field in record order raises its own error.
        return b"".join(map(self.encode_field, self._names, row))

    def decode(self, record: bytes) -> dict:
        if len(record) != self.record_size:
            raise ConfigError(
                f"record is {len(record)} bytes, schema says {self.record_size}"
            )
        values = self._record.unpack(record)
        if self._char_columns:
            values = list(values)
            for i, _size in self._char_columns:
                values[i] = values[i].rstrip(b"\x00")
        return dict(zip(self._names, values))

    def to_dict(self) -> dict:
        """JSON-friendly description (persisted in the catalog)."""
        return {
            "fields": [
                {"name": f.name, "type": f.type.value, "size": f.size}
                for f in self.fields
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schema":
        return cls(
            [
                Field(f["name"], FieldType(f["type"]), f.get("size", 0))
                for f in data["fields"]
            ]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(f.name for f in self.fields)
        return f"Schema([{names}], record_size={self.record_size})"
