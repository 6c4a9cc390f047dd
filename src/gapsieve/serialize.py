"""Canonical JSON emission.

Every machine-readable artifact goes through canonical_json: keys sorted,
compact separators, floats at 17 significant digits (round-trip exact for
doubles).  Identical documents therefore serialize to identical bytes, which
is what the determinism guarantees and the manifest fingerprints rest on.

The emitter dispatches on a value's exact type; an instance of a subclass
(a numpy float64, a dict or list subclass) is emitted as the first of its
base types float, str, int, dict, list, tuple and Fraction, exactly as an
instance of that type.  Every string goes through the encoder json.dumps(s,
ensure_ascii=False) uses.  A dict's sorted keys, each pre-encoded with its
separator, come from a bounded cache keyed by the dict's keys in insertion
order, so a layout that repeats (one per row of a table) is sorted and
encoded once.  Non-finite floats (ValueError), non-string keys and values of
any other type (TypeError) are refused.

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
from json.encoder import encode_basestring


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x} has no canonical form")
    return format(x, ".17g")


# the exact types of JSON values; an instance of a subclass is emitted as its
# base type (_base_type), so a numpy float64 as a float
_EXACT_TYPES = frozenset((float, int, str, dict, list, tuple, bool, type(None), Fraction))
# dict layouts whose sorted, pre-encoded keys are kept
LAYOUT_CACHE = 256


def canonical_json(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts.append)
    return "".join(parts)


def _emit(obj, put) -> None:
    # the commonest types first; type(True) is bool, so no bool takes the
    # int branch
    cls = type(obj)
    if cls not in _EXACT_TYPES:
        cls = _base_type(obj)
    if cls is float:
        put(format(obj, ".17g") if math.isfinite(obj) else fmt_float(obj))
    elif cls is int:
        put(str(obj))
    elif cls is str:
        put(encode_basestring(obj))
    elif cls is dict:
        if obj:
            for prefix, key in _layout(tuple(obj)):
                put(prefix)
                _emit(obj[key], put)
            put("}")
        else:
            put("{}")
    elif cls is list or cls is tuple:
        sep = "["
        for item in obj:
            put(sep)
            sep = ","
            _emit(item, put)
        put("]" if sep == "," else "[]")
    elif cls is bool:
        put("true" if obj else "false")
    elif obj is None:
        put("null")
    else:
        put(json.dumps(str(obj)))  # a Fraction


def _base_type(obj) -> type:
    """The JSON type an instance of a subclass is emitted as: the first of
    float, str, int, dict, list, tuple and Fraction it is an instance of;
    TypeError when none."""
    for base in (float, str, int, dict, list, tuple, Fraction):
        if isinstance(obj, base):
            return base
    raise TypeError(f"no canonical JSON form for {type(obj).__name__}")


@functools.lru_cache(maxsize=LAYOUT_CACHE)
def _layout(keys: tuple) -> tuple[tuple[str, str], ...]:
    """A dict's keys, in insertion order, as (prefix, key) in sorted key order,
    the prefix '{"key":' or ',"key":' pre-encoded.  Keys that are not
    strings are refused, the first in sorted order named, and no layout is
    kept for them."""
    ordered = sorted(keys)
    for key in ordered:
        if not isinstance(key, str):
            raise TypeError(f"canonical JSON keys must be strings, got {key!r}")
    return tuple((("," if i else "{") + encode_basestring(key) + ":", key) for i, key in enumerate(ordered))


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
