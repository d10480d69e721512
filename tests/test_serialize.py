"""Artifact framing: round trip, truncation, extension and nesting."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatetriage._serialize import ArtifactFormatError, dump_artifact, load_artifact

MAGIC = "thing"
VERSION = 3

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)
json_objects = st.dictionaries(st.text(), json_values, max_size=5)


def loads_or_format_error(data: bytes):
    """load_artifact's result, or None when it raised ArtifactFormatError;
    any other exception propagates and fails the test."""
    try:
        return load_artifact(data, MAGIC, (VERSION,))[1]
    except ArtifactFormatError:
        return None


def framed(body: bytes) -> bytes:
    return f"{MAGIC} {VERSION} {len(body)}\n".encode("ascii") + body


class TestArtifactProperties:
    @given(payload=json_objects)
    def test_dump_then_load_is_identity(self, payload):
        assert load_artifact(dump_artifact(MAGIC, VERSION, payload), MAGIC, (VERSION,)) == (
            VERSION, payload
        )

    @settings(max_examples=50)
    @given(payload=json_objects, extra=st.binary(min_size=1, max_size=3))
    def test_every_prefix_and_extension_is_rejected(self, payload, extra):
        data = dump_artifact(MAGIC, VERSION, payload)
        for end in range(len(data)):
            with pytest.raises(ArtifactFormatError):
                load_artifact(data[:end], MAGIC, (VERSION,))
        with pytest.raises(ArtifactFormatError):
            load_artifact(data + extra, MAGIC, (VERSION,))

    @pytest.mark.parametrize("depth", [5000, 100000])
    @pytest.mark.parametrize(
        "opener, closer", [(b"[", b"]"), (b'{"a":', b"}")], ids=["array", "object"]
    )
    def test_deep_nesting_is_rejected(self, depth, opener, closer):
        """Well-formed JSON under a correct header, nested deeper than the
        decoder recurses."""
        body = b'{"a":' + opener * depth + b"0" + closer * depth + b"}"
        with pytest.raises(ArtifactFormatError, match="nested too deeply"):
            load_artifact(framed(body), MAGIC, (VERSION,))

    @given(
        payload=json_objects,
        edits=st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from(["flip", "drop", "insert"]),
                      st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_nothing_but_format_errors_escape(self, payload, edits):
        data = bytearray(dump_artifact(MAGIC, VERSION, payload))
        for pos, kind, byte in edits:
            pos %= len(data) + 1
            if kind == "insert":
                data.insert(pos, byte)
            elif pos < len(data):
                if kind == "flip":
                    data[pos] ^= byte or 1
                else:
                    del data[pos]
        result = loads_or_format_error(bytes(data))
        assert result is None or isinstance(result, dict)

    @given(data=st.binary(max_size=64))
    def test_arbitrary_bytes_raise_only_format_errors(self, data):
        result = loads_or_format_error(data)
        assert result is None or isinstance(result, dict)

    def test_each_accepted_version_loads_as_itself(self):
        for version in (1, VERSION):
            data = dump_artifact(MAGIC, version, {"v": version})
            assert load_artifact(data, MAGIC, (1, VERSION)) == (version, {"v": version})
        with pytest.raises(ArtifactFormatError, match=f"version 2 \\(expected 1 or {VERSION}\\)"):
            load_artifact(dump_artifact(MAGIC, 2, {}), MAGIC, (1, VERSION))

    def test_deep_but_bounded_nesting_still_loads(self):
        payload = {"a": json.loads("[" * 100 + "]" * 100)}
        assert load_artifact(dump_artifact(MAGIC, VERSION, payload), MAGIC, (VERSION,)) == (
            VERSION, payload
        )
