"""Latency-percentile SLO gates for paced (open-loop) fleet runs.

A closed-loop run pushes packets as fast as the serving layer consumes
them, so it can never show queueing delay: a slow tick simply slows the
offered load down with it.  Production traffic does the opposite —
cabins transmit on their own clock whether the service keeps up or
not.  Paced runs (:func:`repro.scenarios.run_scenario` with
``speedup``) replay the fleet on that kind of wall-clock arrival
schedule and digest each estimate's arrival -> serve latency; a
:class:`SloSpec` (``"p99=50,p99.9=200"``) turns any percentile of that
digest into a hard gate.

Latencies are wall-clock measurements — real numbers about the machine,
not bit-reproducible ones — so SLO gates decide capacity claims while
the estimates themselves stay pinned by standalone replay.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Summary keys an SLO may gate on (``p99.9`` spelling normalised).
_SLO_KEYS = ("p50", "p90", "p99", "p99_9", "max")


@dataclass(frozen=True)
class SloViolation:
    """One missed objective: ``percentile`` came out ``actual_ms``
    against a ``limit_ms`` budget."""

    percentile: str
    limit_ms: float
    actual_ms: float

    def __str__(self) -> str:
        return (
            f"{self.percentile}={self.actual_ms:.2f}ms exceeds "
            f"{self.limit_ms:.2f}ms"
        )


@dataclass(frozen=True)
class SloSpec:
    """Latency objectives over the open-loop percentile digest.

    Parsed from the CLI syntax ``"p99=50,p99.9=200"`` (milliseconds);
    keys may be any of ``p50 / p90 / p99 / p99.9 / max``.
    """

    thresholds: tuple[tuple[str, float], ...]

    @classmethod
    def parse(cls, text: str) -> SloSpec:
        thresholds: list[tuple[str, float]] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"SLO clause {part!r} is not of the form p99=50"
                )
            key, _, limit = part.partition("=")
            key = key.strip().replace(".", "_")
            if key not in _SLO_KEYS:
                raise ValueError(
                    f"unknown SLO percentile {key!r}; known: "
                    f"{', '.join(_SLO_KEYS)}"
                )
            thresholds.append((key, float(limit)))
        if not thresholds:
            raise ValueError(f"empty SLO spec {text!r}")
        return cls(tuple(thresholds))

    def evaluate(
        self, summary: dict[str, float]
    ) -> tuple[SloViolation, ...]:
        """The objectives ``summary`` misses (empty tuple = SLO met)."""
        violations = []
        for key, limit in self.thresholds:
            actual = float(summary[key])
            # NaN (no observations) counts as a miss: an SLO gate that
            # passes because nothing was measured would hide a dead run.
            if not actual <= limit:
                violations.append(SloViolation(key, limit, actual))
        return tuple(violations)
