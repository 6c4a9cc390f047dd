"""Run manifests and cross-run trend summaries.

A manifest records what was computed (normalized argv, notes, sampling spec)
plus a fingerprint of the canonical result document.  Re-running the stored
argv must reproduce the fingerprint byte-for-byte; wall time and worker count
live in a telemetry section that is explicitly outside the comparison.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__
from .errors import TrendError
from .serialize import canonical_json, fingerprint


def build_manifest(
    command: str,
    argv: list[str],
    result_doc: dict,
    notes: list[str] | None = None,
    sampling: dict | None = None,
    wall_time: float = 0.0,
    workers: int = 1,
) -> dict:
    return {
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "notes": list(notes or []),
        "sampling": dict(sampling or {}),
        "fingerprint": fingerprint(result_doc),
        "telemetry": {"wall_time_s": wall_time, "workers": workers},
    }


def manifest_spec(manifest: dict) -> dict:
    """The reproducible part: everything except telemetry."""
    return {k: v for k, v in manifest.items() if k != "telemetry"}


def write_manifest(path: str | Path, manifest: dict) -> None:
    Path(path).write_text(canonical_json(manifest) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> dict:
    """Read a manifest: an object whose argv is a non-empty list of strings."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and argv and all(isinstance(tok, str) for tok in argv)):
        raise ValueError(f"{path}: not a manifest (argv must be a non-empty list of strings)")
    return manifest


# ---------------------------------------------------------------------------
# trend summaries over saved result documents
# ---------------------------------------------------------------------------

def _number(doc: dict, key: str) -> float:
    """doc[key] as a float: an int or a float, never a bool or a string."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} is {type(value).__name__}, not a number")
    return float(value)


def _ratio(doc: dict) -> float:
    if doc.get("ratio") is None:
        raise TrendError(f"{doc['kind']} report has no ratio (vanishing main term)")
    return _number(doc, "ratio")


# kind -> (metric, target, the metric read from one report)
_METRICS = {
    "pure": ("ratio", 1.0, _ratio),
    "twisted": ("ratio", 1.0, _ratio),
    "bv": ("total_over_x", 0.0, lambda doc: _number(doc, "total") / _number(doc, "x")),
}


def emit_trend(docs: list[dict]) -> dict:
    """Direction of a shared metric across >= 2 compatible reports."""
    if len(docs) < 2:
        raise TrendError(f"need >= 2 reports, got {len(docs)}")
    kinds = {str(d.get("kind")) for d in docs}  # str: a malformed kind may be a list
    if len(kinds) != 1:
        raise TrendError(f"mixed report kinds {sorted(kinds)}")
    kind = kinds.pop()
    if kind not in _METRICS:
        raise TrendError(f"kind {kind!r} has no trend metric")
    metric, target, read = _METRICS[kind]
    try:
        values = [read(d) for d in docs]
    except (KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        # a missing key, a value that is no number, x = 0, an int past the float range
        raise TrendError(f"malformed {kind} report: {type(exc).__name__}: {exc}") from None
    gaps = [abs(v - target) for v in values]
    if all(g == gaps[0] for g in gaps):
        direction = "flat"
    elif all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1)):
        direction = "toward"
    elif all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1)):
        direction = "away"
    else:
        direction = "mixed"
    return {
        "kind": "trend",
        "metric": metric,
        "target": target,
        "values": values,
        "gaps": gaps,
        "direction": direction,
    }


def load_docs(paths: list[str | Path]) -> list[dict]:
    docs = []
    for p in paths:
        doc = json.loads(Path(p).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise TrendError(f"{p}: not a report document")
        docs.append(doc)
    return docs
