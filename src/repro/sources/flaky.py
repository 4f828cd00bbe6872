"""Availability simulation: sources that go offline.

Section 3.4: "In many applications, it's never the case that all sources
are available ... In the worst case, there may be so many data sources
that the probability that they are all available simultaneously is
nearly zero."  :class:`FlakySource` wraps any source with a
deterministic availability process so experiment E4 can sweep per-source
availability and observe exactly that collapse — and the engine's
partial-results recovery from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable

from repro.sources.base import Access, DataSource, Fragment, ValueDomain
from repro.xmldm.schema import RecordType
from repro.xmldm.values import Record


@dataclass
class AvailabilityModel:
    """A two-state (up/down) renewal process driven by a seeded RNG.

    ``availability`` is the long-run fraction of time up; the process
    alternates exponential up/down periods calibrated to that fraction
    with mean outage ``mean_outage_ms``.  Sampling is by virtual time,
    so two runs over the same query schedule see the same outages.
    """

    availability: float = 0.99
    mean_outage_ms: float = 5_000.0
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        self._rng = random.Random(self.seed)
        self._up = True
        self._boundary_ms = self._draw_duration(up=True)

    def _mean_uptime_ms(self) -> float:
        if self.availability == 1.0:
            return float("inf")
        return self.mean_outage_ms * self.availability / (1.0 - self.availability)

    def _draw_duration(self, up: bool) -> float:
        mean = self._mean_uptime_ms() if up else self.mean_outage_ms
        if mean == float("inf"):
            return float("inf")
        return self._rng.expovariate(1.0 / mean)

    def _advance_state(self, now_ms: float) -> None:
        # The current state ends at the boundary; cross boundaries one at
        # a time, flipping state and drawing the new state's duration.
        # An infinite boundary (availability=1.0) never ends — without
        # this guard, is_up(inf) would flip states forever.
        while self._boundary_ms <= now_ms and self._boundary_ms != float("inf"):
            self._up = not self._up
            self._boundary_ms += self._draw_duration(self._up)

    def is_up(self, now_ms: float) -> bool:
        self._advance_state(now_ms)
        return self._up


class FlakySource(DataSource):
    """Decorates any source with an availability process.

    ``faults`` additionally injects per-call transient failures, slow
    calls, and mid-stream drops (see
    :class:`repro.resilience.faults.FaultModel`) — outages model *down
    windows*, faults model *bad individual calls*.
    """

    def __init__(self, inner: DataSource, model: AvailabilityModel | None = None,
                 faults=None):
        super().__init__(inner.name, inner.clock, inner.network,
                         faults=faults or inner.faults)
        self.inner = inner
        self.model = model or AvailabilityModel()
        self.capabilities = inner.capabilities
        self.forced_offline = False

    def relations(self) -> dict[str, RecordType]:
        return self.inner.relations()

    def cardinality(self, relation: str) -> int:
        return self.inner.cardinality(relation)

    def value_domains(self, access: Access) -> dict[str, ValueDomain]:
        return self.inner.value_domains(access)

    def key_field(self, relation: str) -> str | None:
        return self.inner.key_field(relation)

    def available(self) -> bool:
        if self.forced_offline:
            return False
        return self.model.is_up(self.clock.now) and self.inner.available()

    def force_offline(self, offline: bool = True) -> None:
        """Manual outage switch (tests and demos)."""
        self.forced_offline = offline

    def _execute(self, fragment: Fragment, params: dict[str, Any]) -> Iterable[Record]:
        return self.inner._execute(fragment, params)

    def _fetch_all(self, relation: str):
        return self.inner._fetch_all(relation)

    def validate_fragment(self, fragment: Fragment) -> None:
        self.inner.validate_fragment(fragment)
