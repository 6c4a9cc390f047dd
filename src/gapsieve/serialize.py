"""Canonical JSON emission.

Every machine-readable artifact goes through canonical_json: keys sorted,
compact separators, floats at 17 significant digits (round-trip exact for
doubles).  Identical documents therefore serialize to identical bytes, which
is what the determinism guarantees and the manifest fingerprints rest on.
"""

from __future__ import annotations

import hashlib
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
    return "sha256:" + hashlib.sha256(canonical_json(doc).encode()).hexdigest()
