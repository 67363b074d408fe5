"""Tests for the append-only benchmark trend ledger (``benchmarks/trend.py``).

The ledger lives next to the bench harness, outside ``src/``, so it is
imported here by path.  The suite pins the schema contract: strictly
increasing gap-free sequence numbers, provenance on every post-legacy
entry, validated on read and write, appends only when recording is switched
on, and the tracked ``benchmarks/results/trend.json`` itself required to
validate.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from trend import (  # noqa: E402  (path setup must precede the import)
    LEGACY_SEQUENCE,
    RECORD_ENV,
    TREND_SCHEMA,
    TrendSchemaError,
    append_trend_entry,
    load_trend,
    validate_trend,
)


def _entry(sequence: int, **overrides) -> dict:
    entry = {"sequence": sequence, "bench": "b", "mode": "smoke", "metrics": {"x": 1.0}}
    if sequence > LEGACY_SEQUENCE:
        entry.update(git_sha="0123abc", python="3.12.1", cores=2)
    entry.update(overrides)
    return entry


def _history(last: dict) -> list:
    """The legacy entries followed by ``last``."""
    return [_entry(sequence) for sequence in range(1, LEGACY_SEQUENCE + 1)] + [last]


class TestValidateTrend:
    def test_empty_ledger_is_valid(self):
        assert validate_trend({"schema": TREND_SCHEMA, "entries": []}) == []

    def test_valid_history(self):
        entries = [_entry(1), _entry(2, mode="default"), _entry(3, mode="full")]
        assert validate_trend({"schema": TREND_SCHEMA, "entries": entries}) == entries

    def test_legacy_entries_need_no_provenance(self):
        entries = _history(_entry(LEGACY_SEQUENCE + 1))
        assert "git_sha" not in entries[0]
        assert validate_trend({"schema": TREND_SCHEMA, "entries": entries}) == entries

    @pytest.mark.parametrize(
        "document",
        [
            [],
            {"entries": []},
            {"schema": 999, "entries": []},
            {"schema": TREND_SCHEMA, "entries": {}},
        ],
    )
    def test_bad_top_level(self, document):
        with pytest.raises(TrendSchemaError):
            validate_trend(document)

    @pytest.mark.parametrize(
        "entries",
        [
            [_entry(2)],  # must start at 1
            [_entry(1), _entry(3)],  # gap
            [_entry(1), _entry(1)],  # repeat
            [_entry(2), _entry(1)],  # reordered
            [_entry(1, bench="")],
            [_entry(1, mode="nightly")],
            [_entry(1, metrics={})],
            [_entry(1, metrics={"x": "fast"})],
            [_entry(1, metrics={"x": True})],  # bools are not measurements
            _history({"sequence": LEGACY_SEQUENCE + 1, "bench": "b", "mode": "smoke", "metrics": {"x": 1.0}}),
            _history(_entry(LEGACY_SEQUENCE + 1, git_sha="")),
            _history(_entry(LEGACY_SEQUENCE + 1, python=3.12)),
            _history(_entry(LEGACY_SEQUENCE + 1, cores=0)),
            _history(_entry(LEGACY_SEQUENCE + 1, cores=True)),
        ],
    )
    def test_bad_entries(self, entries):
        with pytest.raises(TrendSchemaError):
            validate_trend({"schema": TREND_SCHEMA, "entries": entries})


class TestAppendTrendEntry:
    @pytest.fixture(autouse=True)
    def _recording(self, monkeypatch):
        monkeypatch.setenv(RECORD_ENV, "1")

    @pytest.mark.parametrize("value", [None, "0", "true"])
    def test_append_is_a_noop_unless_recording(self, tmp_path, monkeypatch, value):
        if value is None:
            monkeypatch.delenv(RECORD_ENV)
        else:
            monkeypatch.setenv(RECORD_ENV, value)
        path = tmp_path / "trend.json"
        assert append_trend_entry("bench-a", "smoke", {"m": 1.0}, path=path) is None
        assert not path.exists()

    def test_new_entries_carry_provenance(self, tmp_path):
        path = tmp_path / "trend.json"
        legacy = [_entry(sequence) for sequence in range(1, LEGACY_SEQUENCE + 1)]
        path.write_text(json.dumps({"schema": TREND_SCHEMA, "entries": legacy}))
        entry = append_trend_entry("bench-a", "smoke", {"m": 1.0}, path=path)
        assert entry["sequence"] == LEGACY_SEQUENCE + 1
        assert isinstance(entry["git_sha"], str) and entry["git_sha"]
        assert entry["python"] == platform.python_version()
        assert entry["cores"] == (os.cpu_count() or 1)
        assert load_trend(path)[-1] == entry
    def test_append_grows_monotonically(self, tmp_path):
        path = tmp_path / "trend.json"
        assert load_trend(path) == []  # absent file = empty history
        first = append_trend_entry("bench-a", "smoke", {"m": 1.5}, path=path)
        second = append_trend_entry("bench-b", "smoke", {"m": 2.5}, path=path)
        assert (first["sequence"], second["sequence"]) == (1, 2)
        entries = load_trend(path)
        assert [e["bench"] for e in entries] == ["bench-a", "bench-b"]
        assert [e["sequence"] for e in entries] == [1, 2]

    def test_append_preserves_existing_entries(self, tmp_path):
        path = tmp_path / "trend.json"
        append_trend_entry("bench-a", "smoke", {"m": 1.0}, path=path)
        before = load_trend(path)
        append_trend_entry("bench-a", "smoke", {"m": 2.0}, path=path)
        assert load_trend(path)[: len(before)] == before

    def test_corrupt_history_rejected(self, tmp_path):
        path = tmp_path / "trend.json"
        path.write_text(json.dumps({"schema": TREND_SCHEMA, "entries": [_entry(7)]}))
        with pytest.raises(TrendSchemaError):
            append_trend_entry("bench-a", "smoke", {"m": 1.0}, path=path)

    def test_bad_metric_value_rejected(self, tmp_path):
        path = tmp_path / "trend.json"
        with pytest.raises(TrendSchemaError):
            append_trend_entry("bench-a", "smoke", {"m": "NaN-ish"}, path=path)
        assert not path.exists()  # nothing written on a rejected append


def test_tracked_ledger_validates():
    """The committed benchmarks/results/trend.json must satisfy its own schema."""
    tracked = BENCH_DIR / "results" / "trend.json"
    assert tracked.is_file(), "tracked trend ledger is missing"
    entries = validate_trend(json.loads(tracked.read_text()))
    assert entries, "tracked trend ledger should carry at least the seed entry"
