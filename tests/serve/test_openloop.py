"""Open-loop (paced) fleet runs and SLO gating."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.scenarios import ScenarioSpec, get_scenario, run_scenario
from repro.serve.openloop import SloSpec, SloViolation


class TestSloSpec:
    def test_parse(self) -> None:
        spec = SloSpec.parse("p99=50, p99.9=200,max=500")
        assert spec.thresholds == (
            ("p99", 50.0),
            ("p99_9", 200.0),
            ("max", 500.0),
        )

    def test_parse_rejects_garbage(self) -> None:
        with pytest.raises(ValueError):
            SloSpec.parse("p99")
        with pytest.raises(ValueError):
            SloSpec.parse("p42=10")
        with pytest.raises(ValueError):
            SloSpec.parse("")
        with pytest.raises(ValueError):
            SloSpec.parse(" , ,")

    def test_evaluate_flags_only_misses(self) -> None:
        spec = SloSpec.parse("p50=10,p99=100")
        summary = {"p50": 12.0, "p99": 80.0}
        violations = spec.evaluate(summary)
        assert violations == (SloViolation("p50", 10.0, 12.0),)
        assert "12.00ms exceeds 10.00ms" in str(violations[0])
        assert spec.evaluate({"p50": 9.0, "p99": 100.0}) == ()

    def test_nan_summary_counts_as_miss(self) -> None:
        # A run that measured nothing must not pass its SLO gate.
        spec = SloSpec.parse("p99=100")
        violations = spec.evaluate({"p99": math.nan})
        assert len(violations) == 1
        assert math.isnan(violations[0].actual_ms)


# Generous wall-clock bound: these assert plumbing, never performance
# (CI machines are noisy; the real SLO gate runs in the bench job with
# a limit chosen for that runner).
LENIENT = SloSpec.parse("p99=60000")

#: A small clean fleet: 1.6 s of 50 Hz traffic per cabin.
SMALL = ScenarioSpec(
    "open-loop-small", "T0", "a small paced fleet",
    num_sessions=3, duration_s=1.6, rate_hz=50.0,
)


def test_open_loop_single_process() -> None:
    result = run_scenario(SMALL, speedup=40.0, workers=0, slo=LENIENT)
    assert result.sessions == 3
    assert result.workers == 0
    assert result.packets == 3 * len(range(int(1.6 * 50.0)))
    assert result.estimates > 0
    assert result.latency["count"] == result.estimates
    assert result.latency["p50"] > 0.0  # wall latency is never zero
    assert result.latency["p99"] >= result.latency["p50"]
    assert result.slo_checked and result.slo_met
    assert "open-loop 3 sessions" in result.summary()
    payload = result.as_dict()
    assert payload["slo_met"] is True
    assert payload["latency_ms"]["p99_9"] == result.latency["p99_9"]
    assert "estimates_served" in result.metrics_line


def test_open_loop_through_inline_fabric() -> None:
    # The T3 flagship carries every cabin kind, faults, churn and
    # batching: pacing must compose with all of it.
    for spec in (SMALL, get_scenario("t3-rush-hour-chaos")):
        result = run_scenario(
            spec, speedup=40.0, workers=2, processes=False, slo=LENIENT
        )
        assert result.workers == 2
        assert result.estimates > 0
        assert result.slo_met
        assert result.unhandled == 0, spec.name
        assert result.all_healthy, spec.name
        assert result.latency["count"] == result.estimates, spec.name


def test_open_loop_reports_violations() -> None:
    result = run_scenario(
        replace(SMALL, num_sessions=2),
        speedup=40.0,
        slo=SloSpec.parse("p50=0.000001"),
    )
    assert not result.slo_met
    assert result.violations[0].percentile == "p50"
    assert "exceeds" in result.summary()


def test_open_loop_validation() -> None:
    with pytest.raises(ValueError):
        run_scenario(replace(SMALL, num_sessions=0), speedup=10.0)
    with pytest.raises(ValueError):
        run_scenario(SMALL, speedup=0.0)
