"""Versioned, byte-stable artifact serialization.

Layout: one ASCII header line "<magic> <version> <payload-bytes>\n" followed
by a canonical JSON payload (sorted keys, compact separators, UTF-8). The
stated length is checked on load so truncation is always detected. Canonical
JSON keeps artifacts byte-identical across runs and processes.
"""

from __future__ import annotations

import json


class ArtifactFormatError(ValueError):
    pass


def dump_artifact(magic: str, version: int, payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = f"{magic} {version} {len(body)}\n".encode("ascii")
    return header + body


def load_artifact(data: bytes, magic: str, versions: tuple[int, ...]) -> tuple[int, dict]:
    """The format version and payload of an artifact of one of `versions`."""
    if not data:
        raise ArtifactFormatError("empty artifact stream")
    newline = data.find(b"\n")
    if newline < 0:
        raise ArtifactFormatError("missing artifact header")
    try:
        fields = data[:newline].decode("ascii").split(" ")
    except UnicodeDecodeError:
        raise ArtifactFormatError("corrupt artifact header") from None
    if len(fields) != 3:
        raise ArtifactFormatError("corrupt artifact header")
    got_magic, got_version, got_length = fields
    if got_magic != magic:
        raise ArtifactFormatError(f"expected {magic!r} artifact, found {got_magic!r}")
    try:
        version_num = int(got_version)
        length = int(got_length)
    except ValueError:
        raise ArtifactFormatError("corrupt artifact header") from None
    if version_num not in versions:
        expected = " or ".join(str(v) for v in versions)
        raise ArtifactFormatError(
            f"unsupported {magic} format version {version_num} (expected {expected})"
        )
    body = data[newline + 1 :]
    if len(body) != length:
        raise ArtifactFormatError(
            f"artifact payload length {len(body)} does not match header ({length})"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError:  # bad UTF-8 or JSON, or an integer too long to convert
        raise ArtifactFormatError("corrupt artifact payload") from None
    except RecursionError:  # nesting deeper than the decoder's recursion allows
        raise ArtifactFormatError("artifact payload nested too deeply") from None
    if not isinstance(payload, dict):
        raise ArtifactFormatError("artifact payload must be a JSON object")
    return version_num, payload
