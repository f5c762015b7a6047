"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock and a priority queue of
:class:`~repro.sim.events.ScheduledEvent` records.  Components schedule
callbacks at relative delays; the kernel fires them in timestamp order,
advancing the clock discontinuously.  Equal timestamps fire in the order
they were scheduled, which — together with seeded random streams — makes
every simulation run bit-for-bit reproducible.

Hot-path notes: the heap holds plain ``(time, seq, event)`` tuples so
ordering is resolved by C tuple comparison (``seq`` is unique, so the
event object itself is never compared), cancellation is lazy with a
live counter (``pending`` is O(1)), and the drain loops bind the heap
and ``heappop`` locally instead of re-resolving attributes per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.sim.events import ScheduledEvent


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (e.g., scheduling in the past)."""


class _PlainEvent:
    """Heap payload for :meth:`Simulator.call_at` (kernel use only).

    Shares the duck type the drain loops need from
    :class:`ScheduledEvent` — ``callback``, ``args``, ``cancelled``,
    ``_in_heap`` — but skips the cancellation machinery entirely:
    ``cancelled`` is a class attribute, so instances cost one small
    allocation and two attribute stores.  Used by high-rate schedulers
    (the network's one delivery wave per arrival instant) that never
    cancel.
    """

    __slots__ = ("callback", "args", "_in_heap")

    cancelled = False

    def __init__(self, callback: Callable[..., None], args: tuple) -> None:
        self.callback = callback
        self.args = args
        self._in_heap = True


class Simulator:
    """Event-driven simulation kernel with a virtual clock.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, fired.append, "a")
        >>> _ = sim.schedule(0.5, fired.append, "b")
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
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._cancelled_in_heap: int = 0
        self._events_processed: int = 0

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue.

        O(1): the kernel counts cancellations as they happen instead of
        scanning the heap.
        """
        return len(self._heap) - self._cancelled_in_heap

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    def _note_cancelled(self) -> None:
        """Bookkeeping upcall from ``ScheduledEvent.cancel`` (kernel use)."""
        self._cancelled_in_heap += 1

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
        registry.gauge(
            "sim.cancelled_in_heap",
            supplier=lambda: float(self._cancelled_in_heap),
        )

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Args:
            delay: Non-negative relative delay in simulated seconds.
            callback: Function to invoke.
            *args: Positional arguments for the callback.

        Returns:
            A cancellable handle for the scheduled event.

        Raises:
            SimulationError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
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
        event = ScheduledEvent(time=time, seq=seq, callback=callback, args=args)
        event._sim = self
        event._in_heap = True
        heappush(self._heap, (time, seq, event))
        return event

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a *non-cancellable* ``callback(*args)`` at ``time``.

        The cheap sibling of :meth:`schedule_at` for hot-path callers
        that never cancel: no :class:`ScheduledEvent` handle is created
        or returned.  Fires in the same ``(time, seq)`` order as any
        other event.

        Raises:
            SimulationError: If ``time`` precedes the current clock.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, _PlainEvent(callback, args)))

    def call_every(
        self,
        period: float,
        callback: Callable[..., None],
        *args: Any,
        horizon: float | None = None,
    ) -> None:
        """Fire ``callback(*args)`` every ``period`` seconds, starting one
        period from now.

        Built on the non-cancellable :meth:`call_at` chain, so callers
        that need periodic work without the
        :class:`~repro.sim.process.PeriodicTimer` handle machinery (the
        auditor's structural probes) pay one small allocation per tick.
        ``horizon`` bounds the chain: no tick is scheduled past it, so a
        bounded run's event queue still drains.  Without a horizon the
        chain reschedules forever — only appropriate under
        :meth:`run_until`.

        Raises:
            SimulationError: If ``period`` is not positive.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive (got {period})")

        def tick() -> None:
            callback(*args)
            following = self.now + period
            if horizon is None or following <= horizon:
                self.call_at(following, tick)

        first = self.now + period
        if horizon is None or first <= horizon:
            self.call_at(first, tick)

    def next_event_time(self) -> float | None:
        """Timestamp of the next live (non-cancelled) event, or None.

        Non-destructive peek used by the sharded coordinator to compute
        the global lower bound of the next barrier window.  Cancelled
        records found at the top of the heap are discarded on the way
        (the same lazy deletion every drain loop performs).
        """
        heap = self._heap
        while heap:
            when, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event._in_heap = False
                self._cancelled_in_heap -= 1
                continue
            return when
        return None

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
        while heap:
            when, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event._in_heap = False
                self._cancelled_in_heap -= 1
                continue
            if when >= bound:
                break
            heappop(heap)
            event._in_heap = False
            self.now = when
            self._events_processed += 1
            event.callback(*event.args)
            fired += 1
        return fired

    def step(self) -> bool:
        """Fire the next pending event, advancing the clock.

        Returns:
            True if an event fired, False if the queue was empty.
        """
        return self.run(max_events=1) == 1

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
            time, _, event = heappop(heap)
            event._in_heap = False
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self.now = time
            self._events_processed += 1
            event.callback(*event.args)
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
        while heap:
            when, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event._in_heap = False
                self._cancelled_in_heap -= 1
                continue
            if when > time:
                break
            heappop(heap)
            event._in_heap = False
            self.now = when
            self._events_processed += 1
            event.callback(*event.args)
            fired += 1
        self.now = time
        return fired
