"""Machine-speed reference for wall times on a shared machine.

The benchmark runs on machines whose speed drifts by a quarter or more
over minutes as other work comes and goes.  A fixed pure-Python loop,
timed between operations, slows down with the program, so the ratio of
an operation's time to the loop's time stays put while both drift.
Reported times are measured times scaled to a machine on which the loop
takes ``REFERENCE_MS``; the raw times are printed beside them.

The loop does the kind of work the mediator does — small objects,
dictionary grouping, sorting with a key, string building — and chases
pointers through a few megabytes of objects in random order, as the
collector and large scans do, so it slows with cache contention as well
as with a busy core.  It touches nothing of the program, so a change to
the program never moves it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: the loop's time on the reference machine
REFERENCE_MS = 1.0
#: operation time between two loop samples
SAMPLE_EVERY_MS = 100.0
#: nodes in the pointer-chasing ring, and steps per loop
RING_NODES = 60_000
RING_STEPS = 10_000
#: samples taken when a probe starts, so every probe has a median
INITIAL_SAMPLES = 5


class _Row:
    __slots__ = ("k", "v")

    def __init__(self, k: int, v: int):
        self.k = k
        self.v = v


def _ring() -> _Row:
    """A ring of ``RING_NODES`` rows linked in a fixed random order."""
    nodes = [_Row(i, 0) for i in range(RING_NODES)]
    order = list(range(RING_NODES))
    random.Random(0).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].v = nodes[there]
    return nodes[order[0]]


_RING = _ring()


def reference_loop() -> int:
    node = _RING
    for _ in range(RING_STEPS):
        node = node.v
    rows = [_Row(i, (i * 7919) % 1000) for i in range(1500)]
    groups: dict[int, list[_Row]] = {}
    for row in rows:
        groups.setdefault(row.v % 50, []).append(row)
    kept = sorted((r for r in rows if r.v > 300), key=lambda r: (r.v, r.k))
    text = ",".join(f"{r.k}:{r.v}" for r in kept[:200])
    return len(groups) + len(kept) + len(text) + node.k


class SpeedProbe:
    """Samples the reference loop every ``SAMPLE_EVERY_MS`` of work."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._since = 0.0
        for _ in range(INITIAL_SAMPLES):
            self.sample()

    def sample(self) -> None:
        # no collections: they would time the program's heap, and move
        # when the program's own collections happen
        gc.disable()
        try:
            started = time.perf_counter()
            reference_loop()
            self.samples.append((time.perf_counter() - started) * 1000)
        finally:
            gc.enable()

    def after(self, work_ms: float) -> None:
        """Account ``work_ms`` of operation time; sample when it is due."""
        self._since += work_ms
        if self._since >= SAMPLE_EVERY_MS:
            self._since = 0.0
            self.sample()

    def loop_ms(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor from measured time to reference-machine time."""
        return REFERENCE_MS / self.loop_ms()
