"""Unit tests for the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

import arith  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Call, Measurement, end_to_end, merge, mutants, pipeline_config  # noqa: E402

from repro.evalbench import stats  # noqa: E402


class TestPercentile:
    def test_reuses_the_repo_rule(self):
        assert arith.percentile is stats.percentile

    def test_linear_interpolation_between_closest_ranks(self):
        assert arith.percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        assert arith.percentile(list(range(1, 101)), 99) == pytest.approx(99.01)
        assert arith.percentile([7.0], 99) == 7.0

    def test_empty_series_is_zero(self):
        assert arith.percentile([], 99) == 0.0


class TestTpotFromBursts:
    def test_first_burst_is_excluded(self):
        events = [(0.010, 3), (0.020, 2), (0.040, 2)]
        assert arith.tpot_from_bursts(events) == pytest.approx((0.040 - 0.010) / 4)

    def test_single_burst_has_no_tpot(self):
        assert arith.tpot_from_bursts([(0.010, 8)]) is None
        assert arith.tpot_from_bursts([]) is None

    def test_uneven_bursts_are_not_smoothed_per_gap(self):
        # One slow gap before a big burst: the per-request rate is the span
        # over the tokens, not a mean of per-gap rates.
        events = [(0.0, 1), (0.001, 1), (0.101, 9)]
        assert arith.tpot_from_bursts(events) == pytest.approx(0.101 / 10)


class TestSloAttainment:
    def test_failed_requests_count_as_misses(self):
        # Three finished requests reported, four sent: the unreported one misses.
        ttfts = [0.010, 0.200, 0.020]
        tpots = [0.001, 0.001, 0.050]
        assert arith.slo_attainment(ttfts, tpots, sent=4, ttft_limit=0.1, tpot_limit=0.01) == pytest.approx(0.25)

    def test_missing_ttft_misses_and_missing_tpot_meets(self):
        assert arith.slo_attainment([None, 0.01], [None, None], sent=2, ttft_limit=0.1, tpot_limit=0.01) == 0.5

    def test_requires_requests_sent(self):
        with pytest.raises(ValueError):
            arith.slo_attainment([], [], sent=0, ttft_limit=0.1, tpot_limit=0.01)


class TestSelfTime:
    def test_self_time_subtracts_direct_children_only(self):
        # root [0, 100] > child [10, 60] > grandchild [20, 30]; sibling [70, 90].
        durations = np.array([100, 50, 10, 20])
        parents = np.array([-1, 0, 1, 0])
        assert self_times(durations, parents).tolist() == [30, 40, 10, 20]

    def test_tracer_records_nesting_and_keys(self):
        ticks = iter(range(0, 1000, 10))
        tracer = Tracer(clock=lambda: next(ticks))

        def leaf():
            return "leaf"

        traced_leaf = tracer.wrap("leaf", leaf)
        step = tracer.wrap("step", lambda: traced_leaf(), key_prefix="step")
        assert step() == "leaf"
        step()
        spans = tracer.arrays()
        assert spans["name"].tolist() == ["step", "leaf", "step", "leaf"]
        assert spans["parent"].tolist() == [-1, 0, -1, 2]
        assert tracer.keys == ["u0/step0", "u0/step0", "u0/step1", "u0/step1"]
        assert spans["duration"].tolist() == [30, 10, 30, 10]
        assert spans["self"].tolist() == [20, 10, 20, 10]

    def test_request_id_keys_a_span_and_its_children(self):
        tracer = Tracer()
        child = tracer.wrap("child", lambda: None)

        def submit(prompt, request_id=None):
            child()
            return request_id

        traced = tracer.wrap("submit", submit, key_from="request_id")
        tracer.unit = "u1"
        assert traced([1], request_id="r7") == "r7"
        assert tracer.keys == ["u1/r7", "u1/r7"]
        assert tracer.key == ""

    def test_patch_and_uninstall_restore_the_original(self):
        class Owner:
            @staticmethod
            def helper():
                return 1

            @classmethod
            def build(cls):
                return cls

        original = Owner.__dict__["helper"]
        tracer = Tracer()
        tracer.patch_span(Owner, "build", "owner.build")
        assert Owner.build() is Owner
        tracer.patch(Owner, "helper", tracer.counter("owner.helper", lambda: 2))
        assert Owner.helper() == 2
        tracer.uninstall()
        assert Owner.__dict__["helper"] is original
        assert Owner.build() is Owner
        assert tracer.names == ["owner.build"]
        assert tracer.count("owner.helper") == 1


class TestHostClock:
    def test_sleep_skips_idle_time_without_waiting(self):
        clock = hostclock.HostClock(warmup=1)
        before, wall = clock(), time.perf_counter()
        clock.sleep(5.0)
        assert clock() - before >= 5.0
        assert time.perf_counter() - wall < 1.0
        assert clock.skipped_seconds == 5.0

    def test_clock_stands_still_while_paused(self):
        clock = hostclock.HostClock(warmup=1)
        with clock.paused():
            before = clock()
            time.sleep(0.05)
        assert clock() - before < 0.04

    def test_tick_keeps_the_kernel_at_its_duty_and_off_the_clock(self):
        clock = hostclock.HostClock(duty=0.5, warmup=1)
        clock.begin()
        time.sleep(0.1)
        runs, before = clock.kernel_runs, clock()
        clock.tick()
        assert clock.kernel_runs > runs
        assert clock.kernel_seconds >= 0.5 * 0.1
        assert clock() - before < clock.kernel_seconds

    def test_reference_clock_runs_at_the_host_speed_and_skips_idle_time(self):
        clock = hostclock.HostClock(warmup=1)
        reference = clock.reference
        clock.speed = 4.0
        before = reference()
        time.sleep(0.05)
        assert reference() - before >= 4 * 0.05
        before = reference()
        with clock.paused():
            reference.sleep(3.0)
        assert 3.0 <= reference() - before < 3.1 and reference.skipped_seconds == 3.0

    def test_speed_follows_the_recent_kernel_runs(self):
        clock = hostclock.HostClock(warmup=3, window=2)
        expected = hostclock.REFERENCE_SECONDS * 2 / sum(list(clock._recent))
        assert clock.speed == pytest.approx(expected)

    def test_factor_is_reference_over_mean_kernel_time(self):
        clock = hostclock.HostClock(warmup=4)
        expected = hostclock.REFERENCE_SECONDS * 4 / clock.kernel_seconds
        assert clock.factor == pytest.approx(expected)


class TestEndToEnd:
    def test_factor_scales_times_up_and_rates_down(self):
        m = Measurement(calls=[Call(0.010, 0.001)], sent=1, tok_rates=[100.0], unit_rates=[10.0])
        measured = end_to_end(m, slo_ttft=0.1, slo_tpot=0.01)
        corrected = end_to_end(m, slo_ttft=0.1, slo_tpot=0.01, factor=0.5)
        assert corrected["ttft_p50_ms"] == pytest.approx(measured["ttft_p50_ms"] / 2) == pytest.approx(5.0)
        assert corrected["tok_s"] == pytest.approx(2 * measured["tok_s"]) == pytest.approx(200.0)

    def test_ntp_samples_use_their_own_factor(self):
        m = Measurement(calls=[Call(0.01, 0.001)], sent=1, tok_rates=[1.0], unit_rates=[1.0],
                        ntp_rates=[100.0], ntp_factors=[0.25])
        assert end_to_end(m, 0.1, 0.01, factor=0.5)["ntp_tok_s"] == pytest.approx(400.0)
        assert end_to_end(m, 0.1, 0.01)["ntp_tok_s"] == pytest.approx(100.0)

    def test_ntp_samples_without_their_own_factor_use_the_runs(self):
        m = Measurement(calls=[Call(0.01, 0.001)], sent=1, tok_rates=[1.0], unit_rates=[1.0], ntp_rates=[100.0])
        assert end_to_end(merge([m, m]), 0.1, 0.01, factor=0.5)["ntp_tok_s"] == pytest.approx(200.0)

    def test_reference_time_measurements_are_not_corrected_again(self):
        m = Measurement(calls=[Call(0.010, 0.001)], sent=1, tok_rates=[100.0], unit_rates=[10.0],
                        in_reference_time=True)
        assert end_to_end(m, 0.1, 0.01, factor=0.5) == end_to_end(m, 0.1, 0.01)

    def test_best_unit_reports_each_metrics_best_repetition(self):
        parts = [
            Measurement(calls=[Call(0.020, 0.002, unit=0), Call(0.010, 0.004, unit=1)], sent=2,
                        tok_rates=[50.0, 40.0], unit_rates=[5.0, 4.0], best_unit=True),
            Measurement(calls=[Call(0.030, 0.001, unit=0)], sent=1, tok_rates=[30.0], unit_rates=[3.0],
                        best_unit=True),
        ]
        metrics = end_to_end(merge(parts), slo_ttft=0.1, slo_tpot=0.01)
        assert metrics["ttft_p50_ms"] == pytest.approx(10.0)
        assert metrics["tpot_p50_ms"] == pytest.approx(1.0)
        assert metrics["tok_s"] == 50.0 and metrics["problems_s"] == 5.0
        corrected = end_to_end(merge(parts), slo_ttft=0.1, slo_tpot=0.01, factor=0.5)
        assert corrected["ttft_p50_ms"] == pytest.approx(5.0) and corrected["tok_s"] == pytest.approx(100.0)


class TestLayerMetrics:
    def test_unused_layers_report_zero(self):
        m = Measurement(calls=[], sent=1, tok_rates=[1.0], unit_rates=[1.0])
        metrics = layer_metrics(Tracer(), m, kv_block_nbytes=None, overhead=0.0)
        assert set(metrics) == set(PER_LAYER)
        assert all(value == 0 for value in metrics.values())


class TestInputs:
    def test_pipeline_matches_bench_default_size(self):
        if os.environ.get("REPRO_BENCH_SMOKE") == "1" or os.environ.get("REPRO_BENCH_FULL") == "1":
            pytest.skip("bench size overridden by the environment")
        spec = importlib.util.spec_from_file_location("bench_conftest", ROOT / "benchmarks" / "conftest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert vars(pipeline_config()) == vars(module.default_pipeline_config())

    def test_mutants_are_seeded_distinct_and_keep_the_interface(self):
        reference = "module m (\n    input [3:0] a,\n    output [3:0] y\n);\n    assign y = a + 4'b0001;\nendmodule\n"
        first = mutants(reference, np.random.default_rng(3), 4)
        assert first == mutants(reference, np.random.default_rng(3), 4)
        assert len(set(first)) == len(first) >= 2
        for mutant in first:
            assert mutant != reference
            assert mutant.startswith("module m (\n    input [3:0] a,\n    output [3:0] y\n);")


class TestBenchmarkFile:
    def test_gated_metrics_are_reported_with_the_same_units(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
        assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
        for metric in bench["end_to_end"]:
            assert run.END_TO_END[metric["name"]] == metric["unit"]
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())
