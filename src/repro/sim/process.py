"""Recurring-timer helper built on the simulation kernel.

Several protocol components fire periodically: Chord stabilization,
notification-buffer flushes, subscription-renewal leases and the
auditor's structural probes. :class:`PeriodicTimer` packages the
re-scheduling pattern so each component only supplies its tick callback
and period.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.kernel import Simulator


class PeriodicTimer:
    """Fires a callback every ``period`` simulated seconds until stopped.

    The first tick fires ``period`` seconds after :meth:`start`.
    Re-arming happens *before* the callback runs, so a callback may
    safely call :meth:`stop` to end the series.

    The kernel cannot take an event back, so :meth:`stop` only lowers a
    flag: the chain's one outstanding tick still fires, as a no-op, and
    counts in the kernel's ``pending`` and ``events_processed`` until
    it does.  Each :meth:`start` opens a new generation, so a timer
    restarted before that tick fires runs one chain, not two.

    ``horizon`` bounds the chain: no tick is scheduled past it
    (inclusive), so a bounded run's event queue still drains.  Without
    a horizon the chain reschedules until stopped — under
    :meth:`~repro.sim.kernel.Simulator.run` that is forever.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        horizon: float | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"timer period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._horizon = horizon
        self._running = False
        self._generation = 0

    def start(self) -> None:
        """Arm the timer; its first tick fires one period from now."""
        if self._running:
            return
        self._running = True
        self._generation += 1
        self._arm(self._generation)

    def stop(self) -> None:
        """Disarm the timer; safe to call from within the tick callback."""
        self._running = False

    def _arm(self, generation: int) -> None:
        sim = self._sim
        time = sim.now + self._period
        horizon = self._horizon
        if horizon is None or time <= horizon:
            sim.schedule_at(time, self._tick, generation)

    def _tick(self, generation: int) -> None:
        if not self._running or generation != self._generation:
            return
        self._arm(generation)
        self._callback()
