"""Traffic harness — SLO admission under a deterministic overload replay.

Not a paper table: this bench tracks the production-traffic tentpole.  A
seeded Poisson trace overloads a 2-slot engine on a **simulated clock**
(virtual step costs, so the whole scenario — arrivals, queueing, TTFT,
shedding — is deterministic and CI-stable), replayed twice:

* **without admission** — every request is accepted; bulk floods the queue
  and interactive TTFT degrades with it;
* **with SLO admission** — per-tenant token buckets plus the rolling-p95
  breach detector: bulk is shed while the interactive window p95 is in
  breach, deferred when its tenant bucket is dry, and never touched
  otherwise.  The detector trips on a tighter internal threshold
  (``TRIP_P95``) than the operator-facing SLO target (``TARGET_P95``), the
  usual early-warning headroom.

Assertions (all on deterministic virtual-time numbers):

* with admission, interactive p95 TTFT lands **under the SLO target**;
* without admission it is **strictly worse** than with (and over target —
  the scenario is a real overload, not a no-op);
* only bulk traffic is ever shed or deferred; interactive is never shed;
* the same replay repeated from scratch is **identical** (report-dict
  equality — the harness's reproducibility guarantee);
* the ops dashboard renders the final state headless (pure frame).

The scenario lands in ``traffic.json`` and, when ``REPRO_BENCH_RECORD=1``,
the headline numbers append to the tracked ``trend.json`` ledger under
``traffic_slo``.
"""

from __future__ import annotations

import pytest

from repro.serving import PriorityConfig, SchedulerConfig
from repro.traffic import (
    AdmissionController,
    OpsDashboard,
    SLOConfig,
    SimulatedClock,
    StepCostModel,
    TraceConfig,
    generate_trace,
    render_frame,
    snapshot_from_engine,
    replay_trace,
)

from conftest import SMOKE, emit_bench_json
from trend import append_trend_entry

_MODE = "smoke" if SMOKE else "default"

NUM_REQUESTS = 48 if SMOKE else 64
#: Operator-facing SLO: interactive p95 TTFT must stay under this.
TARGET_P95 = 0.50
#: Internal breach threshold the detector trips on (early warning).
TRIP_P95 = 0.03

TRACE_CONFIG = TraceConfig(
    num_requests=NUM_REQUESTS,
    seed=42,
    requests_per_second=16.0,
    arrival_process="poisson",
    num_tenants=4,
    preamble_groups=2,
    interactive_fraction=0.4,
    prompt_sentence_choices=(1, 2),
    max_new_token_choices=(8, 16),
)

COST_MODEL = StepCostModel(
    step_seconds=0.002, prefill_token_seconds=0.0005, decode_token_seconds=0.004
)


def _slo_controller() -> AdmissionController:
    return AdmissionController(
        SLOConfig(
            target_p95_ttft=TRIP_P95,
            window_seconds=5.0,
            recover_under=0.5,
            min_samples=2,
            tenant_rate=400.0,
            tenant_burst=128.0,
        )
    )


def _replay(pipeline, admission):
    """One overload replay on a fresh engine + fresh simulated clock."""
    clock = SimulatedClock()
    # aging_rounds=1 lets queued bulk age into the interactive band fast
    # enough that an un-shed bulk backlog genuinely delays interactive —
    # the degradation the admission controller exists to prevent.  (With the
    # default aging, this engine's speculation finishes requests in so few
    # steps that bulk never ages enough to interfere.)
    engine = pipeline.engine_for(
        "ours",
        scheduler_config=SchedulerConfig(
            max_active_requests=2, priorities=PriorityConfig(aging_rounds=1)
        ),
        clock=clock,
    )
    report = replay_trace(
        engine,
        generate_trace(TRACE_CONFIG),
        clock=clock,
        cost_model=COST_MODEL,
        admission=admission,
    )
    return engine, clock, report


@pytest.mark.benchmark(group="serving-traffic")
def test_traffic_slo_admission(benchmark, trained_pipeline):
    """Interactive p95 TTFT under target with SLO admission; worse without."""
    engine, clock, with_slo = _replay(trained_pipeline, _slo_controller())
    _, _, without = _replay(trained_pipeline, None)

    interactive_with = with_slo.class_summary("interactive")
    interactive_without = without.class_summary("interactive")
    bulk_with = with_slo.class_summary("bulk")

    # The SLO holds with admission, and dropping the controller strictly
    # degrades the very quantity it protects.
    p95_with = interactive_with["ttft"]["p95"]
    p95_without = interactive_without["ttft"]["p95"]
    assert p95_with <= TARGET_P95, (
        f"interactive p95 TTFT {p95_with:.3f}s exceeds the {TARGET_P95:.2f}s target "
        f"even with SLO admission"
    )
    assert p95_without > p95_with, (
        f"removing admission did not degrade interactive p95 TTFT "
        f"({p95_without:.3f}s vs {p95_with:.3f}s) — the scenario is not an overload"
    )
    assert p95_without > TARGET_P95, (
        f"without admission interactive p95 TTFT {p95_without:.3f}s is already under "
        f"target; the overload is too mild to exercise shedding"
    )

    # Only bulk is ever shed or deferred; nothing is shed without a breach.
    assert interactive_with["shed"] == 0
    assert bulk_with["shed"] > 0
    assert with_slo.admission["breach_count"] >= 1
    shed_outcomes = [o for o in with_slo.outcomes if o.status == "shed"]
    assert all(o.traffic_class == "bulk" for o in shed_outcomes)
    assert without.by_status().get("shed", 0) == 0

    # Reproducibility: the whole replay is a pure function of the trace.
    _, _, again = _replay(trained_pipeline, _slo_controller())
    assert again.to_dict() == with_slo.to_dict()

    # The dashboard renders the final state as a pure frame (no TTY).
    dashboard = OpsDashboard(engine=engine)
    for outcome in with_slo.outcomes:
        if outcome.status in ("finished", "cancelled", "deadline"):
            dashboard.note_finished(outcome.request_id)
    snapshot = snapshot_from_engine(
        engine,
        finished_ids=dashboard.finished_ids,
        window_seconds=with_slo.duration_seconds,
        admission_snapshot=with_slo.admission,
        now=clock.now,
    )
    frame = render_frame(snapshot, width=76)
    assert render_frame(snapshot, width=76) == frame
    assert "\x1b[" not in frame

    print(f"\n=== Traffic SLO admission ({NUM_REQUESTS} requests, simulated clock) ===")
    print(frame)
    print(
        f"interactive p95 TTFT: {p95_with * 1e3:.1f} ms with SLO admission vs "
        f"{p95_without * 1e3:.1f} ms without (target {TARGET_P95 * 1e3:.0f} ms); "
        f"bulk shed {bulk_with['shed']}, deferred attempts {bulk_with['deferred_attempts']}"
    )

    emit_bench_json(
        "traffic",
        {
            "num_requests": NUM_REQUESTS,
            "target_p95_ttft": TARGET_P95,
            "trip_p95_ttft": TRIP_P95,
            "cost_model": {
                "step_seconds": COST_MODEL.step_seconds,
                "prefill_token_seconds": COST_MODEL.prefill_token_seconds,
                "decode_token_seconds": COST_MODEL.decode_token_seconds,
            },
            "with_admission": with_slo.to_dict(),
            "without_admission": without.to_dict(),
            "dashboard_frame": frame,
        },
    )
    append_trend_entry(
        "traffic_slo",
        _MODE,
        {
            "p95_ttft_with_slo": p95_with,
            "p95_ttft_without_slo": p95_without,
            "target_p95_ttft": TARGET_P95,
            "bulk_shed": bulk_with["shed"],
            "bulk_deferred_attempts": bulk_with["deferred_attempts"],
            "interactive_served": interactive_with["served"],
            "requests_per_second": len(with_slo.outcomes) / with_slo.duration_seconds,
        },
    )

    # Timed kernel: one full SLO-admission replay (engine build included).
    benchmark.pedantic(
        lambda: _replay(trained_pipeline, _slo_controller()), rounds=1, iterations=1
    )
