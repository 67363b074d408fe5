"""Append-only benchmark trend ledger (``benchmarks/results/trend.json``).

Unlike the per-bench ``results/*.json`` snapshots (overwritten on every run,
uploaded as CI artifacts, gitignored), the trend ledger is **tracked in git**
and only ever grows, so the file carries the history of headline numbers
across changes and a reviewer can see a regression as a diff instead of
digging through artifact archives.  A bench run appends one entry only when
``REPRO_BENCH_RECORD=1`` is set (CI's smoke-bench job sets it); plain local
runs leave the working tree clean.

The schema is deliberately rigid and validated on every read *and* write:

* the document is ``{"schema": 1, "entries": [...]}``;
* every entry has a strictly increasing integer ``sequence`` (1-based, no
  gaps), a ``bench`` name, a ``mode`` (``smoke``/``default``/``full``) and a
  flat string->number ``metrics`` mapping;
* every entry after :data:`LEGACY_SEQUENCE` also carries its provenance: the
  ``git_sha`` of the checkout, the ``python`` version and the ``cores`` of
  the machine that measured it;
* appending never rewrites or reorders existing entries — an append whose
  history does not extend the on-disk prefix is rejected.

Keeping the validator here (not in ``src/``) keeps the repo's library surface
free of benchmark plumbing; the tier-1 suite imports this module by path.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional

#: Current ledger schema version.
TREND_SCHEMA = 1

#: Default on-disk location (tracked; see the repo .gitignore exception).
TREND_PATH = Path(__file__).parent / "results" / "trend.json"

_MODES = ("smoke", "default", "full")

#: Entries up to this sequence number predate provenance stamping; the ledger
#: is append-only, so they stay as recorded.
LEGACY_SEQUENCE = 6

#: Environment switch that turns a bench run's append on.
RECORD_ENV = "REPRO_BENCH_RECORD"


class TrendSchemaError(ValueError):
    """The trend ledger violates the append-only schema."""


def validate_trend(document: dict) -> List[dict]:
    """Validate a ledger document; returns its entries.

    Raises:
        TrendSchemaError: on any schema violation — wrong top-level shape,
            non-monotone or gapped ``sequence`` numbers, unknown ``mode`` or
            non-numeric metric values.
    """
    if not isinstance(document, dict) or document.get("schema") != TREND_SCHEMA:
        raise TrendSchemaError(f"trend ledger must be a dict with schema={TREND_SCHEMA}")
    entries = document.get("entries")
    if not isinstance(entries, list):
        raise TrendSchemaError("trend ledger 'entries' must be a list")
    for position, entry in enumerate(entries):
        expected_seq = position + 1
        if not isinstance(entry, dict):
            raise TrendSchemaError(f"entry {position} is not an object")
        if entry.get("sequence") != expected_seq:
            raise TrendSchemaError(
                f"entry {position} has sequence {entry.get('sequence')!r}; the ledger is append-only "
                f"with strictly increasing gap-free sequence numbers (expected {expected_seq})"
            )
        if not isinstance(entry.get("bench"), str) or not entry["bench"]:
            raise TrendSchemaError(f"entry {position} needs a non-empty 'bench' name")
        if entry.get("mode") not in _MODES:
            raise TrendSchemaError(f"entry {position} has unknown mode {entry.get('mode')!r}")
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise TrendSchemaError(f"entry {position} needs a non-empty 'metrics' mapping")
        for key, value in metrics.items():
            if not isinstance(key, str):
                raise TrendSchemaError(f"entry {position} metric names must be strings")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TrendSchemaError(f"entry {position} metric {key!r} must be a number, got {value!r}")
        if expected_seq > LEGACY_SEQUENCE:
            for key in ("git_sha", "python"):
                if not isinstance(entry.get(key), str) or not entry[key]:
                    raise TrendSchemaError(f"entry {position} needs a non-empty {key!r} string")
            cores = entry.get("cores")
            if isinstance(cores, bool) or not isinstance(cores, int) or cores < 1:
                raise TrendSchemaError(f"entry {position} needs a positive integer 'cores', got {cores!r}")
    return entries


def provenance() -> Dict[str, object]:
    """Git sha of this checkout (``"unknown"`` outside git), Python version, core count."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        sha = done.stdout.strip() if done.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {"git_sha": sha or "unknown", "python": platform.python_version(), "cores": os.cpu_count() or 1}


def load_trend(path: Optional[Path] = None) -> List[dict]:
    """Read and validate the ledger; an absent file is an empty history."""
    path = TREND_PATH if path is None else path
    if not path.is_file():
        return []
    return validate_trend(json.loads(path.read_text()))


def append_trend_entry(
    bench: str,
    mode: str,
    metrics: Dict[str, float],
    path: Optional[Path] = None,
) -> Optional[dict]:
    """Append one provenance-stamped entry to the ledger and write it back.

    Does nothing and returns ``None`` unless ``REPRO_BENCH_RECORD=1``.  The
    existing history is re-validated before and after the append, so a
    hand-edited or truncated ledger fails loudly instead of silently
    restarting the sequence.
    """
    if os.environ.get(RECORD_ENV) != "1":
        return None
    path = TREND_PATH if path is None else path
    entries = load_trend(path)
    entry = {
        "sequence": len(entries) + 1,
        "bench": bench,
        "mode": mode,
        "metrics": dict(metrics),
        **provenance(),
    }
    document = {"schema": TREND_SCHEMA, "entries": entries + [entry]}
    validate_trend(document)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return entry
