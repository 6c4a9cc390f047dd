"""Canonical JSON emission.

Every machine-readable artifact goes through canonical_json: keys sorted,
compact separators, floats at 17 significant digits (round-trip exact for
doubles).  Identical documents therefore serialize to identical bytes, which
is what the determinism guarantees and the manifest fingerprints rest on.

Report.doc is the one rule for a report's document: its fields, less those
marked OUTSIDE_DOC, plus its class's `kind`; nested reports become documents,
Fractions strings and tuples lists, and lists and dicts pass through uncopied.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from fractions import Fraction


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x} has no canonical form")
    return format(x, ".17g")


# one encoder for every string: what json.dumps(s, ensure_ascii=False) gives
_encode_str = json.JSONEncoder(ensure_ascii=False).encode


def canonical_json(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    # the commonest types first; bool before int, of which it is a subclass
    if isinstance(obj, float):
        parts.append(fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON keys must be strings, got {key!r}")
            if i:
                parts.append(",")
            parts.append(_encode_str(key))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, Fraction):
        parts.append(json.dumps(str(obj)))
    else:
        raise TypeError(f"no canonical JSON form for {type(obj).__name__}")


def fingerprint(doc) -> str:
    # imported here, so that importing the package loads no hashlib (OpenSSL)
    import hashlib

    return "sha256:" + hashlib.sha256(canonical_json(doc).encode()).hexdigest()


# field metadata that keeps a field (bulk arrays, telemetry) out of the document
OUTSIDE_DOC = {"outside_doc": True}


@functools.cache
def _doc_keys(cls: type) -> tuple[str, ...]:
    names = tuple(f.name for f in dataclasses.fields(cls) if not f.metadata.get("outside_doc"))
    return names + ("kind",) if hasattr(cls, "kind") else names  # a ClassVar, not a field


def _document(report) -> dict:
    return {name: _doc_value(getattr(report, name)) for name in _doc_keys(type(report))}


def _doc_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_doc_value(item) for item in value]
    if dataclasses.is_dataclass(value):
        return _document(value)
    return value


class Report:
    """Base of the dataclass reports: doc() is the canonical document."""

    doc = _document
