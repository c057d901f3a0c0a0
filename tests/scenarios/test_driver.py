"""The fleet driver's own guarantees: one pass/fail rule, and a serving
fabric that is closed on every exit path."""

import multiprocessing
from dataclasses import replace

import pytest

from repro.analysis import process_contracts
from repro.scenarios import ScenarioSpec, get_scenario, run_scenario
from repro.serve.fabric import ServingFabric
from repro.serve.openloop import SloViolation
from repro.serve.session import HEALTHY, QUARANTINED


@pytest.fixture()
def shm_ledger():
    """The shared-memory ledger, active for one test (left as it is when
    the session already runs under ``--process-contracts``)."""
    was_active = process_contracts.active()
    if not was_active:
        process_contracts.activate()
    yield
    if not was_active:
        process_contracts.deactivate()
        process_contracts.clear_records()


def test_failed_open_stops_workers_and_releases_rings(shm_ledger, monkeypatch):
    """The third open raises mid-setup.  While that exception is still
    propagating (its traceback holds the driver's frames, as a pytest
    failure report would), no forked worker and no shm ring is left."""
    real_open = ServingFabric.open_session
    opens = 0

    def failing_open(self, *args, **kwargs):
        nonlocal opens
        opens += 1
        if opens == 3:
            raise RuntimeError("open failed")
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(ServingFabric, "open_session", failing_open)
    before = set(multiprocessing.active_children())
    with pytest.raises(RuntimeError, match="open failed"):
        try:
            run_scenario(get_scenario("t0-calm-commute"), workers=2)
        finally:
            assert set(multiprocessing.active_children()) <= before
            process_contracts.assert_balanced()
    assert opens == 3


def test_pass_fail_rule_names_every_broken_guarantee():
    spec = ScenarioSpec(
        "driver-rule", "T0", "a tiny clean fleet",
        num_sessions=2, duration_s=1.6, rate_hz=50.0,
    )
    result = run_scenario(spec)
    assert result.failures() == []
    assert result.as_dict()["failures"] == []
    broken = replace(
        result,
        bit_identical=False,
        unhandled=2,
        final_health={HEALTHY: 1, QUARANTINED: 1},
        violations=(SloViolation("p99", 50.0, 80.0),),
    )
    problems = broken.failures()
    assert len(problems) == 4
    assert any("standalone replay" in p for p in problems)
    assert any("2 exception(s)" in p for p in problems)
    assert any("did not recover" in p for p in problems)
    assert any("p99=80.00ms exceeds 50.00ms" in p for p in problems)
