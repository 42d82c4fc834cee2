"""Record schemas: layout, codec, validation."""

import math
import pickle
import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("count", FieldType.UINT32),
        Field("ratio", FieldType.FLOAT64),
        Field("label", FieldType.CHAR, 12),
    ]
)


class TestLayout:
    def test_record_size(self):
        assert SCHEMA.record_size == 8 + 4 + 8 + 12

    def test_offsets_are_sequential(self):
        assert SCHEMA.offset_of("id") == 0
        assert SCHEMA.offset_of("count") == 8
        assert SCHEMA.offset_of("ratio") == 12
        assert SCHEMA.offset_of("label") == 20

    def test_field_range(self):
        assert SCHEMA.field_range("count") == (8, 4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            Schema([Field("a", FieldType.INT64), Field("a", FieldType.INT64)])

    def test_empty_schema_rejected(self):
        with pytest.raises(ConfigError):
            Schema([])

    def test_char_needs_size(self):
        with pytest.raises(ConfigError):
            Field("x", FieldType.CHAR)

    def test_size_only_for_char(self):
        with pytest.raises(ConfigError):
            Field("x", FieldType.INT64, 8)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            SCHEMA.offset_of("nope")


class TestCodec:
    def test_roundtrip(self):
        values = {"id": -5, "count": 42, "ratio": 2.5, "label": "hello"}
        decoded = SCHEMA.decode(SCHEMA.encode(values))
        assert decoded["id"] == -5
        assert decoded["count"] == 42
        assert decoded["ratio"] == 2.5
        assert decoded["label"] == b"hello"

    def test_missing_fields_default_to_zero(self):
        decoded = SCHEMA.decode(SCHEMA.encode({"id": 1}))
        assert decoded["count"] == 0
        assert decoded["label"] == b""

    def test_unknown_field_in_encode_rejected(self):
        with pytest.raises(ConfigError):
            SCHEMA.encode({"bogus": 1})

    def test_char_overflow_rejected(self):
        with pytest.raises(ConfigError):
            SCHEMA.encode({"label": "x" * 13})

    def test_char_accepts_bytes(self):
        decoded = SCHEMA.decode(SCHEMA.encode({"label": b"raw"}))
        assert decoded["label"] == b"raw"

    def test_decode_wrong_size_rejected(self):
        with pytest.raises(ConfigError):
            SCHEMA.decode(b"short")

    @given(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.binary(max_size=12).filter(lambda b: not b.endswith(b"\x00")),
    )
    def test_roundtrip_property(self, id_, count, ratio, label):
        values = {"id": id_, "count": count, "ratio": ratio, "label": label}
        decoded = SCHEMA.decode(SCHEMA.encode(values))
        assert decoded["id"] == id_
        assert decoded["count"] == count
        assert decoded["ratio"] == ratio
        assert decoded["label"] == label


class TestPersistence:
    def test_to_from_dict_roundtrip(self):
        rebuilt = Schema.from_dict(SCHEMA.to_dict())
        assert rebuilt.record_size == SCHEMA.record_size
        assert [f.name for f in rebuilt.fields] == [f.name for f in SCHEMA.fields]
        assert rebuilt.field("label").size == 12


# --------------------------------------------------------------------------
# The compiled codecs against the per-field codec they replaced, copied
# here: a struct format string built and parsed on every field access.
# --------------------------------------------------------------------------

_REFERENCE_CODES = {
    FieldType.INT64: "q",
    FieldType.UINT32: "I",
    FieldType.FLOAT64: "d",
}


class ReferenceCodec:
    def __init__(self, fields):
        self.fields = list(fields)
        self.by_name = {f.name: f for f in self.fields}
        self.offsets = {}
        offset = 0
        for f in self.fields:
            self.offsets[f.name] = offset
            offset += self.byte_size(f)
        self.record_size = offset

    @staticmethod
    def byte_size(f):
        if f.type is FieldType.CHAR:
            return f.size
        return struct.calcsize("<" + _REFERENCE_CODES[f.type])

    def field(self, name):
        try:
            return self.by_name[name]
        except KeyError:
            raise ConfigError(f"no field named {name!r}") from None

    def offset_of(self, name):
        self.field(name)
        return self.offsets[name]

    def field_range(self, name):
        f = self.field(name)
        return self.offsets[name], self.byte_size(f)

    def encode_field(self, name, value):
        f = self.field(name)
        if f.type is FieldType.CHAR:
            if isinstance(value, str):
                value = value.encode("utf-8")
            if len(value) > f.size:
                raise ConfigError(
                    f"value for {name!r} is {len(value)} bytes, field holds {f.size}"
                )
            return value.ljust(f.size, b"\x00")
        return struct.pack("<" + _REFERENCE_CODES[f.type], value)

    def decode_field(self, name, data):
        f = self.field(name)
        if f.type is FieldType.CHAR:
            return bytes(data).rstrip(b"\x00")
        return struct.unpack("<" + _REFERENCE_CODES[f.type], data)[0]

    def encode(self, values):
        unknown = set(values) - set(self.by_name)
        if unknown:
            raise ConfigError(f"unknown fields: {sorted(unknown)}")
        parts = []
        for f in self.fields:
            value = values.get(f.name)
            if value is None:
                value = b"" if f.type is FieldType.CHAR else 0
            parts.append(self.encode_field(f.name, value))
        return b"".join(parts)

    def decode(self, record):
        if len(record) != self.record_size:
            raise ConfigError(
                f"record is {len(record)} bytes, schema says {self.record_size}"
            )
        values = {}
        for f in self.fields:
            offset = self.offsets[f.name]
            values[f.name] = self.decode_field(
                f.name, record[offset : offset + self.byte_size(f)]
            )
        return values


def _comparable(value):
    """Floats compare by their bytes (NaN payloads, -0.0); rows by items."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, dict):
        return [(k, _comparable(v)) for k, v in value.items()]
    if isinstance(value, tuple):
        return tuple(_comparable(v) for v in value)
    return value


def _outcome(fn, *args):
    try:
        return "ok", _comparable(fn(*args))
    except Exception as exc:
        return "raised", type(exc), str(exc)


_FIELD_TYPES = st.sampled_from(
    [FieldType.INT64, FieldType.UINT32, FieldType.FLOAT64, FieldType.CHAR]
)


@st.composite
def _schema_fields(draw):
    types = draw(st.lists(_FIELD_TYPES, min_size=1, max_size=6))
    return [
        Field(f"f{i}", t, draw(st.integers(1, 16)) if t is FieldType.CHAR else 0)
        for i, t in enumerate(types)
    ]


def _value(f):
    """A value for ``f``: mostly valid, sometimes out of range or oversize."""
    if f.type is FieldType.INT64:
        return st.integers(-(2**63) - 2, 2**63 + 1)
    if f.type is FieldType.UINT32:
        return st.integers(-2, 2**32 + 1)
    if f.type is FieldType.FLOAT64:
        return st.floats() | st.integers(-(2**53), 2**53)
    return st.binary(max_size=f.size + 2) | st.text(max_size=f.size + 1)


@st.composite
def _schema_and_row(draw):
    fields = draw(_schema_fields())
    row = {}
    for f in fields:
        choice = draw(st.sampled_from(["value", "value", "none", "missing"]))
        if choice == "value":
            row[f.name] = draw(_value(f))
        elif choice == "none":
            row[f.name] = None
    if draw(st.booleans()) and draw(st.booleans()):
        row["nope"] = 1
    return fields, row


class TestCompiledCodecIdentity:
    @given(_schema_and_row())
    def test_encode_matches_per_field_codec(self, case):
        fields, row = case
        schema, reference = Schema(fields), ReferenceCodec(fields)
        assert schema.record_size == reference.record_size
        assert _outcome(schema.encode, row) == _outcome(reference.encode, row)
        for f in fields:
            if f.name in row and row[f.name] is not None:
                assert _outcome(schema.encode_field, f.name, row[f.name]) == _outcome(
                    reference.encode_field, f.name, row[f.name]
                )

    @given(_schema_fields(), st.data())
    def test_decode_matches_per_field_codec(self, fields, data):
        schema, reference = Schema(fields), ReferenceCodec(fields)
        size = reference.record_size
        record = data.draw(st.binary(min_size=size, max_size=size))
        assert _outcome(schema.decode, record) == _outcome(reference.decode, record)
        short = record[: data.draw(st.integers(0, size - 1))]
        assert _outcome(schema.decode, short) == _outcome(reference.decode, short)
        for f in fields:
            offset, width = reference.field_range(f.name)
            assert schema.field_range(f.name) == (offset, width)
            assert schema.offset_of(f.name) == offset
            piece = record[offset : offset + width]
            assert _outcome(schema.decode_field, f.name, piece) == _outcome(
                reference.decode_field, f.name, piece
            )

    @given(_schema_fields())
    def test_unknown_field_errors_match(self, fields):
        schema, reference = Schema(fields), ReferenceCodec(fields)
        for method in ("offset_of", "field_range"):
            assert _outcome(getattr(schema, method), "nope") == _outcome(
                getattr(reference, method), "nope"
            )
        for method, arg in (("encode_field", 0), ("decode_field", b"")):
            assert _outcome(getattr(schema, method), "nope", arg) == _outcome(
                getattr(reference, method), "nope", arg
            )

    def test_first_bad_field_raises_its_own_error(self):
        fields = [
            Field("n", FieldType.UINT32),
            Field("s", FieldType.CHAR, 2),
            Field("x", FieldType.FLOAT64),
        ]
        schema, reference = Schema(fields), ReferenceCodec(fields)
        for row in (
            {"n": -1, "s": "too long"},
            {"n": 1, "s": "too long", "x": "not a float"},
            {"n": 1, "s": b"ok", "x": "not a float"},
        ):
            outcome = _outcome(schema.encode, row)
            assert outcome[0] == "raised"
            assert outcome == _outcome(reference.encode, row)

    def test_nan_and_signed_zero_keep_their_bytes(self):
        schema = Schema([Field("x", FieldType.FLOAT64)])
        for value in (math.nan, -0.0, math.inf):
            record = schema.encode({"x": value})
            assert record == struct.pack("<d", value)
            assert struct.pack("<d", schema.decode(record)["x"]) == record

    def test_schema_pickles_with_its_codecs(self):
        rebuilt = pickle.loads(pickle.dumps(SCHEMA))
        values = {"id": 3, "count": 4, "ratio": 0.5, "label": b"abc"}
        assert rebuilt.encode(values) == SCHEMA.encode(values)
        assert [f.name for f in rebuilt.fields] == [f.name for f in SCHEMA.fields]
