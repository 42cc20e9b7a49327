"""Discrete-event simulation kernel.

A minimal but complete event-driven engine in the style of SimPy, built on
a binary heap.  Two abstractions matter:

``Event``
    A one-shot occurrence with a value.  Events are *triggered* (scheduled
    onto the queue) and later *processed* (callbacks run).  Processes wait
    on events by ``yield``-ing them.

``Simulator``
    The clock and event queue.  ``Simulator.process`` turns a generator
    function into a coroutine-style process; ``Simulator.run`` drains the
    queue until a deadline or until no events remain.

Time is a float in **nanoseconds** by library convention (see
:mod:`repro.util.units`), though the kernel itself is unit-agnostic.

Design notes
------------
* Events carry an integer ``priority`` so that simultaneous events have a
  deterministic order (lower first, FIFO within a priority).  Determinism
  is load-bearing: the PSCAN collision checker and the mesh router
  arbitration both rely on stable same-timestamp ordering.
* Failing an event with an exception propagates the exception into every
  waiting process at its ``yield`` — the standard way to model aborted
  transactions.

Event order
-----------
The queue is one binary heap of ``(time, priority, seq, event)`` tuples,
where ``seq`` is a per-simulator insertion counter.  That tuple order *is*
the kernel's documented total order: earliest time first, then lower
priority, then FIFO.  ``seq`` is unique, so the heap never compares two
events.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from heapq import heappop, heappush
from typing import Any

from ..util.errors import ProcessError, SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "AnyOf",
    "AllOf",
    "NORMAL",
    "URGENT",
    "LOW",
]

#: Priority for events that must fire before same-time normal events.
URGENT: int = 0
#: Default event priority.
NORMAL: int = 1
#: Priority for events that must fire after same-time normal events.
LOW: int = 2

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *untriggered* (just created),
    *triggered* (scheduled with a value, sitting in the queue) and
    *processed* (callbacks have run).  ``succeed``/``fail`` trigger it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked with this event when it is processed.
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed: bool = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise ProcessError("event value is not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, *, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self.triggered:
            raise ProcessError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(0.0, priority, self)
        return self

    def fail(self, exception: BaseException, *, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self.triggered:
            raise ProcessError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise ProcessError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._enqueue(0.0, priority, self)
        return self

    def trigger(self, event: "Event") -> None:
        """Chain helper: copy another event's outcome onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a delay."""

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        *,
        priority: int = NORMAL,
    ) -> None:
        # Written so NaN fails too: every comparison with NaN is False.
        if not delay >= 0:
            raise ProcessError(f"timeout delay must be >= 0, got {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._enqueue(delay, priority, self)


class Process(Event):
    """A running generator, driven by the events it yields.

    A ``Process`` is itself an :class:`Event` that triggers when the
    generator returns (with the return value) or raises (failure), so
    processes can wait on each other.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        self._generator = generator
        self._waiting_on: Event | None = None
        # Kick off the process at the current simulation time.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._enqueue(0.0, URGENT, init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield."""
        if self.triggered:
            raise ProcessError("cannot interrupt a finished process")
        if self._waiting_on is None:
            raise ProcessError("cannot interrupt a process that is not waiting")
        target = self._waiting_on
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        wake = Event(self.sim)
        wake._ok = False
        wake._value = Interrupt(cause)
        wake.callbacks.append(self._resume)
        self.sim._enqueue(0.0, URGENT, wake)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if not self._fail_soft(exc):
                raise
            return
        if not isinstance(target, Event):
            exc = ProcessError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
            self._generator.close()
            if not self._fail_soft(exc):
                raise exc
            return
        if target.processed:
            # The event already happened; resume immediately (same timestep).
            wake = Event(self.sim)
            wake._ok = target._ok
            wake._value = target._value
            wake.callbacks.append(self._resume)
            self.sim._enqueue(0.0, URGENT, wake)
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def _fail_soft(self, exc: BaseException) -> bool:
        """Fail this process-event if someone is waiting; else re-raise."""
        if self.callbacks:
            self._ok = False
            self._value = exc
            self.sim._enqueue(0.0, NORMAL, self)
            return True
        return False


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: list[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._observe(ev)
            else:
                ev.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.triggered}


class AnyOf(_Condition):
    """Triggers when any constituent event triggers."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(_Condition):
    """Triggers when every constituent event has triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)


class Simulator:
    """Event queue and simulation clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc(sim, log):
    ...     yield sim.timeout(5.0)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim, log))
    >>> sim.run()
    >>> log
    [5.0]
    """

    __slots__ = ("_now", "_heap", "_seq", "_event_count", "_obs")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._event_count: int = 0
        # Optional observability hook (duck-typed ObsSession); None keeps
        # the dispatch loop at a single pointer comparison per event.
        self._obs: Any = None

    def attach_observer(self, obs: Any) -> None:
        """Attach an observability session (see :mod:`repro.obs`).

        ``obs`` duck-types :class:`repro.obs.session.ObsSession`; its
        ``sim_event(name, ts, queue_depth)`` hook is called once per
        dispatched event when the session's ``sim_dispatch`` layer is
        enabled.  Pass ``None`` to detach.
        """
        self._obs = obs

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (for instrumentation)."""
        return self._event_count

    # -- event construction -----------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None, *, priority: int = NORMAL) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value, priority=priority)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Composite event triggering when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: list[Event]) -> AllOf:
        """Composite event triggering when all of ``events`` have."""
        return AllOf(self, events)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute ``time`` (must not be in the past)."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        ev = Timeout(self, time - self._now)
        ev.callbacks.append(lambda _ev: callback())
        return ev

    # -- queue internals ----------------------------------------------------

    def _enqueue(self, delay: float, priority: int, event: Event) -> None:
        self._seq += 1
        heappush(self._heap, (self._now + delay, priority, self._seq, event))

    # -- execution ------------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event; raises if the queue is empty."""
        if not self._heap:
            raise SimulationError("no events left to process")
        time, _priority, _seq, event = heappop(self._heap)
        if time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue went backwards in time")
        self._now = time
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        self._event_count += 1
        if self._obs is not None:
            # Depth is sampled post-pop, pre-callback.
            self._obs.sim_event(type(event).__name__, time, len(self._heap))
        if len(callbacks) == 1:
            # Fast path: the overwhelmingly common single-waiter case
            # (``yield sim.timeout(d)``) — skip loop setup.
            callbacks[0](event)
        else:
            for cb in callbacks:
                cb(event)

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(
        self,
        until: float | Event | None = None,
        *,
        max_events: int | None = None,
    ) -> Any:
        """Run until the deadline, an event triggers, or the queue drains.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            ``float`` — run until simulation time reaches the value
            (events scheduled exactly at the deadline are *not* executed;
            the clock is advanced to the deadline).
            ``Event`` — run until the event is processed and return its
            value (raising its exception if it failed).
        max_events:
            Watchdog budget: abort with :class:`SimulationError` after
            processing this many events in this call.  Converts livelocks
            (self-rescheduling event storms that never let ``until``
            trigger) into a structured failure the fault-report machinery
            (:mod:`repro.faults.report`) can catch; ``None`` disables it.
        """
        budget = max_events if max_events is not None else -1

        def tick() -> None:
            nonlocal budget
            if budget == 0:
                raise SimulationError(
                    f"watchdog: {max_events} events processed at t={self._now} "
                    "without reaching the run target — livelock suspected"
                )
            budget -= 1
            self.step()

        if until is None:
            while self._heap:
                tick()
            return None
        if isinstance(until, Event):
            sentinel: list[Any] = []
            if until.processed:
                if not until._ok:
                    raise until._value
                return until._value
            until.callbacks.append(lambda ev: sentinel.append(ev))
            while not sentinel:
                if not self._heap:
                    raise SimulationError(
                        "event queue drained before the awaited event triggered"
                    )
                tick()
            if not until._ok:
                raise until._value
            return until._value
        deadline = float(until)
        if not deadline >= self._now:
            raise SimulationError(
                f"cannot run until {deadline}, already at {self._now}"
            )
        heap = self._heap
        while heap and heap[0][0] < deadline:
            tick()
        self._now = deadline
        return None
