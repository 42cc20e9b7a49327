"""Tests for the discrete-event kernel (repro.sim.engine)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import LOW, NORMAL, URGENT, AllOf, AnyOf, Event, Interrupt, Simulator
from repro.util.errors import ProcessError, SimulationError


class TestTimeAdvance:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_run_until_time_stops_before_events(self):
        sim = Simulator()
        fired = []
        t = sim.timeout(10.0)
        t.callbacks.append(lambda ev: fired.append(sim.now))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert fired == []
        sim.run()
        assert fired == [10.0]

    def test_run_until_past_deadline_raises(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.timeout(-1.0)

    def test_nan_timeout_rejected(self):
        sim = Simulator()
        sim.timeout(3.0)
        with pytest.raises(ProcessError):
            sim.timeout(float("nan"))
        sim.run()
        assert sim.now == 3.0

    def test_run_until_nan_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert sim.now == 0.0

    def test_infinite_times_accepted(self):
        sim = Simulator()
        sim.timeout(2.0)
        sim.timeout(float("inf"))
        sim.run(until=float("inf"))
        assert sim.now == float("inf")

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 5

    def test_peek_empty_queue(self):
        assert Simulator().peek() == float("inf")

    def test_peek_next_event_time(self):
        sim = Simulator()
        sim.timeout(3.0)
        sim.timeout(1.0)
        assert sim.peek() == 1.0


class TestDeterminism:
    def test_same_time_events_fifo(self):
        sim = Simulator()
        order = []
        for i in range(10):
            t = sim.timeout(1.0)
            t.callbacks.append(lambda ev, i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_priority_orders_same_time_events(self):
        from repro.sim import LOW, URGENT

        sim = Simulator()
        order = []
        t_low = sim.timeout(1.0, priority=LOW)
        t_low.callbacks.append(lambda ev: order.append("low"))
        t_urgent = sim.timeout(1.0, priority=URGENT)
        t_urgent.callbacks.append(lambda ev: order.append("urgent"))
        sim.run()
        assert order == ["urgent", "low"]

    def test_priority_classes_order_one_instant(self):
        sim = Simulator()
        fired = []

        def note(tag):
            return lambda ev: fired.append(tag)

        # Insert in scrambled priority order at an identical timestamp;
        # processing must be URGENT, then NORMAL, then LOW, with insertion
        # order breaking ties inside each class.
        for tag, prio in [
            ("low-a", LOW),
            ("norm-a", NORMAL),
            ("urg-a", URGENT),
            ("low-b", LOW),
            ("urg-b", URGENT),
            ("norm-b", NORMAL),
        ]:
            sim.timeout(5.0, priority=prio).callbacks.append(note(tag))
        sim.run()
        assert fired == ["urg-a", "urg-b", "norm-a", "norm-b", "low-a", "low-b"]

    def test_zero_delay_chain_stays_at_same_instant(self):
        sim = Simulator()
        fired = []

        def chain():
            yield sim.timeout(1.0)
            fired.append(("a", sim.now))
            yield sim.timeout(0.0)
            fired.append(("b", sim.now))
            yield sim.timeout(0.0)
            fired.append(("c", sim.now))

        sim.process(chain())
        sim.run()
        assert fired == [("a", 1.0), ("b", 1.0), ("c", 1.0)]


_PRIORITIES = st.sampled_from((URGENT, NORMAL, LOW))
#: Few distinct delays so that same-instant ties are common.
_DELAYS = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0, 2.5)),
    st.floats(min_value=0.0, max_value=4.0),
)
#: One timeout per entry: ``(delay, priority, chain)``.  When the timeout
#: fires, its callback succeeds a zero-delay event at ``chain[0]``'s
#: priority, whose callback succeeds the next one, and so on.
_STORMS = st.lists(
    st.tuples(_DELAYS, _PRIORITIES, st.lists(_PRIORITIES, max_size=3)),
    min_size=1,
    max_size=25,
)


def _kernel_order(storm):
    sim = Simulator()
    fired = []

    def link(k, i):
        def fire(_ev):
            fired.append((sim.now, k, i))
            chain = storm[k][2]
            if i < len(chain):
                nxt = sim.event()
                nxt.callbacks.append(link(k, i + 1))
                nxt.succeed(priority=chain[i])

        return fire

    for k, (delay, prio, _chain) in enumerate(storm):
        sim.timeout(delay, priority=prio).callbacks.append(link(k, 0))
    sim.run()
    return fired


def _reference_order(storm):
    """Brute force: sort the pending set by (time, priority, insertion
    index) before every dispatch and take the head."""
    pending = [(delay, prio, k, k, 0) for k, (delay, prio, _) in enumerate(storm)]
    inserted = len(pending)
    fired = []
    while pending:
        pending.sort(key=lambda e: e[:3])
        time, _prio, _index, k, i = pending.pop(0)
        fired.append((time, k, i))
        chain = storm[k][2]
        if i < len(chain):
            pending.append((time, chain[i], inserted, k, i + 1))
            inserted += 1
    return fired


class TestTotalOrder:
    @settings(max_examples=150, deadline=None)
    @given(_STORMS)
    def test_dispatch_order_matches_brute_force_sort(self, storm):
        assert _kernel_order(storm) == _reference_order(storm)


class TestEvents:
    def test_succeed_carries_value(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(42)
        sim.run()
        assert ev.value == 42
        assert ev.ok and ev.processed

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            _ = sim.event().value

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(ProcessError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.event().fail("not an exception")


class TestProcesses:
    def test_simple_process(self):
        sim = Simulator()
        log = []

        def proc():
            yield sim.timeout(2.0)
            log.append(sim.now)
            yield sim.timeout(3.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [2.0, 5.0]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc())
        assert sim.run(p) == "done"

    def test_process_waits_on_process(self):
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(4.0)
            return 7

        def parent():
            value = yield sim.process(child())
            log.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert log == [(4.0, 7)]

    def test_timeout_value_passed_to_yield(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.timeout(1.0, "payload")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_process_exception_propagates_to_waiter(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def parent():
            with pytest.raises(ValueError, match="boom"):
                yield sim.process(bad())
            return "caught"

        p = sim.process(parent())
        assert sim.run(p) == "caught"

    def test_unwaited_process_exception_raises_at_run(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        sim.process(bad())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_yield_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(ProcessError):
            sim.run()

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.process(lambda: None)

    def test_yield_already_processed_event(self):
        sim = Simulator()
        pre = sim.timeout(0.5, "early")
        log = []

        def proc():
            yield sim.timeout(2.0)
            v = yield pre  # already processed by now
            log.append((sim.now, v))

        sim.process(proc())
        sim.run()
        assert log == [(2.0, "early")]

    def test_interrupt(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as itr:
                log.append((sim.now, itr.cause))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(3.0)
            p.interrupt("wake up")

        sim.process(interrupter())
        sim.run()
        assert log == [(3.0, "wake up")]

    def test_interrupt_finished_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(ProcessError):
            p.interrupt()


class TestConditions:
    def test_all_of_waits_for_all(self):
        sim = Simulator()
        done = []

        def proc():
            yield AllOf(sim, [sim.timeout(1.0), sim.timeout(5.0), sim.timeout(3.0)])
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [5.0]

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        done = []

        def proc():
            yield AnyOf(sim, [sim.timeout(4.0), sim.timeout(2.0)])
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [2.0]

    def test_empty_all_of_fires_immediately(self):
        sim = Simulator()
        cond = AllOf(sim, [])
        assert cond.triggered

    def test_all_of_collects_values(self):
        sim = Simulator()
        a = sim.timeout(1.0, "a")
        b = sim.timeout(2.0, "b")

        def proc():
            values = yield sim.all_of([a, b])
            return values

        p = sim.process(proc())
        result = sim.run(p)
        assert result == {a: "a", b: "b"}

    def test_schedule_at(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(7.5, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [7.5]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_nan_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        sim.run()
        assert sim.now == 0.0

    def test_run_until_event_value(self):
        sim = Simulator()
        assert sim.run(sim.timeout(2.0, "v")) == "v"

    def test_run_until_never_triggering_event_raises(self):
        sim = Simulator()
        orphan = sim.event()
        sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.run(orphan)

    def test_step_empty_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_event_trigger_copies_outcome(self):
        sim = Simulator()
        src = sim.event()
        dst = sim.event()
        src.succeed("payload")
        sim.run()
        dst.trigger(src)
        sim.run()
        assert dst.ok and dst.value == "payload"

    def test_event_trigger_copies_failure(self):
        sim = Simulator()
        src = sim.event()
        dst = sim.event()
        src.fail(ValueError("bad"))
        sim.run()
        dst.trigger(src)
        sim.run()
        assert not dst.ok
        assert isinstance(dst.value, ValueError)

    def test_any_of_propagates_failure(self):
        sim = Simulator()

        def failer():
            yield sim.timeout(1.0)
            raise RuntimeError("inner")

        def waiter():
            with pytest.raises(RuntimeError, match="inner"):
                yield sim.any_of([sim.process(failer()), sim.timeout(50.0)])
            return "handled"

        p = sim.process(waiter())
        assert sim.run(p) == "handled"
