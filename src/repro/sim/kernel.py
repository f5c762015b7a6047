"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock and a priority queue of
timestamped callbacks.  Components schedule callbacks at relative
delays; the kernel fires them in timestamp order, advancing the clock
discontinuously.  Equal timestamps fire in the order they were
scheduled, which — together with seeded random streams — makes every
simulation run bit-for-bit reproducible.

A scheduled event cannot be taken back: nothing the paper models
needs it (subscription expiry is checked lazily by the stores), and a
stopped :class:`~repro.sim.process.PeriodicTimer` lets its one
outstanding tick fire as a no-op instead.

Hot-path notes: the heap holds plain ``(time, seq, callback, args)``
tuples, so ordering is resolved by C tuple comparison (``seq`` is
unique, so the callback is never compared), ``pending`` is the heap's
length, and the drain loops bind the heap and ``heappop`` locally
instead of re-resolving attributes per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (e.g., scheduling in the past)."""


class Simulator:
    """Event-driven simulation kernel with a virtual clock.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> sim.schedule(1.5, fired.append, "a")
        >>> sim.schedule(0.5, fired.append, "b")
        >>> sim.run()
        2
        >>> fired
        ['b', 'a']
        >>> sim.now
        1.5

    Attributes:
        now: Current simulated time in seconds.  A plain attribute, not
            a property — every message and delivery reads it — that only
            the kernel's own loops assign.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq: int = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._events_processed: int = 0

    @property
    def pending(self) -> int:
        """Number of not-yet-fired events in the queue."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    def attach_telemetry(self, telemetry) -> None:
        """Expose kernel health as lazy gauges on a telemetry registry.

        Supplier gauges are only read when the registry is sampled, so
        this costs the event loops nothing: the drain code is untouched
        and no per-event work is added.
        """
        registry = telemetry.registry
        registry.gauge("sim.now", supplier=lambda: self.now)
        registry.gauge("sim.pending", supplier=lambda: float(self.pending))
        registry.gauge(
            "sim.events_processed",
            supplier=lambda: float(self._events_processed),
        )

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Args:
            delay: Non-negative relative delay in simulated seconds.
            callback: Function to invoke.
            *args: Positional arguments for the callback.

        Raises:
            SimulationError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``.

        Raises:
            SimulationError: If ``time`` precedes the current clock.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, args))

    def next_event_time(self) -> float | None:
        """Timestamp of the next event, or None when the queue is empty.

        Non-destructive peek used by the sharded coordinator to compute
        the global lower bound of the next barrier window.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def run_before(self, bound: float) -> int:
        """Run all events with timestamps strictly ``< bound``.

        The conservative-window sibling of :meth:`run_until`: a shard
        worker owns every event below the barrier bound (cross-shard
        messages cannot arrive earlier than one network delay past the
        window start), so it drains ``[now, bound)`` and leaves the
        clock at the last fired event — never advancing to ``bound``
        itself, where remote messages may still be injected.

        Returns:
            The number of events fired by this call.
        """
        if bound < self.now:
            raise SimulationError(
                f"cannot run backwards to t={bound} from t={self.now}"
            )
        heap = self._heap
        fired = 0
        while heap and heap[0][0] < bound:
            when, _, callback, args = heappop(heap)
            self.now = when
            self._events_processed += 1
            callback(*args)
            fired += 1
        return fired

    def run(self, max_events: int | None = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Args:
            max_events: Optional safety bound on the number of events.

        Returns:
            The number of events fired by this call.
        """
        heap = self._heap
        fired = 0
        while heap and (max_events is None or fired < max_events):
            when, _, callback, args = heappop(heap)
            self.now = when
            self._events_processed += 1
            callback(*args)
            fired += 1
        return fired

    def run_until(self, time: float) -> int:
        """Run all events with timestamps ``<= time``; set the clock to ``time``.

        Events scheduled during the run are processed too, provided they
        fall within the horizon.

        Returns:
            The number of events fired by this call.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run backwards to t={time} from t={self.now}"
            )
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= time:
            when, _, callback, args = heappop(heap)
            self.now = when
            self._events_processed += 1
            callback(*args)
            fired += 1
        self.now = time
        return fired
