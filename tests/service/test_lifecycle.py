"""The three lifecycle tables, driven directly: no workers, no threads.

Unit tests pin every transition and refusal; a hypothesis state machine
composes the tables the way ``SamplingService`` does and checks, after
every step, the invariants the tables exist to enforce: a future resolves
exactly once, an epoch is never released while pinned, a retiring epoch
refuses new pins, a unit ends exactly once, and the counters
``ServiceStats`` reads agree with what happened.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    multiple,
    rule,
)

from repro.api.requests import SampleRequest
from repro.service.lifecycle import (
    EpochTable,
    RequestRecord,
    RequestTable,
    Unit,
    UnitTable,
)
from repro.telemetry.metrics import MetricsRegistry


class CountingFuture(Future):
    """Counts resolutions so a double resolve cannot hide behind
    ``InvalidStateError`` being swallowed."""

    def __init__(self):
        super().__init__()
        self.resolutions = 0

    def set_result(self, result):
        self.resolutions += 1
        super().set_result(result)

    def set_exception(self, exception):
        self.resolutions += 1
        super().set_exception(exception)


class FakeStore:
    """The slice of ``SharedGraphStore`` the epoch table uses."""

    def __init__(self):
        self.live = {}
        self.released = []
        self.pins = {}  # the test's own pin model, checked at release

    def publish(self, name):
        epochs = self.live.setdefault(name, [])
        # The latest epoch is never retired, so numbers are never reused.
        epoch = epochs[-1] + 1 if epochs else 0
        epochs.append(epoch)
        return epoch

    def latest_epoch(self, name):
        return self.live[name][-1]

    def epochs(self, name):
        return list(self.live[name])

    def graph(self, name, epoch):
        if epoch not in self.live.get(name, ()):
            raise KeyError((name, epoch))
        return f"{name}@{epoch}"

    def release(self, name, epoch):
        assert self.pins.get((name, epoch), 0) == 0, "released while pinned"
        self.live[name].remove(epoch)
        self.released.append((name, epoch))


def make_record(graph="g", tenant="default", future=None):
    request = SampleRequest(graph=graph, algorithm="deepwalk", seeds=(1,),
                            tenant=tenant)
    return RequestRecord(request, future or CountingFuture(), time.perf_counter())


def counter(metrics, name, **labels):
    return metrics.counter(name, **labels).value


# --------------------------------------------------------------------------- #
# RequestTable
# --------------------------------------------------------------------------- #
class TestRequestTable:
    def test_open_then_resolve_counts_and_sets_the_future(self):
        metrics = MetricsRegistry()
        table = RequestTable(metrics)
        record = make_record(tenant="t")
        table.open(record)
        assert len(table) == 1
        assert table.get(record.request.request_id) is record
        assert table.records() == [record]
        assert table.resolve(record.request.request_id, result="answer") is record
        assert record.future.result(timeout=0) == "answer"
        assert len(table) == 0
        assert counter(metrics, "requests_submitted") == 1
        assert counter(metrics, "requests_completed") == 1
        assert counter(metrics, "requests_failed") == 0
        assert counter(metrics, "tenant_requests", tenant="t") == 1
        assert counter(metrics, "tenant_completed", tenant="t") == 1

    def test_double_resolve_is_refused(self):
        metrics = MetricsRegistry()
        table = RequestTable(metrics)
        record = make_record()
        table.open(record)
        rid = record.request.request_id
        assert table.resolve(rid, exception=RuntimeError("lost")) is record
        assert table.resolve(rid, result="late answer") is None
        assert record.future.resolutions == 1
        with pytest.raises(RuntimeError):
            record.future.result(timeout=0)
        assert counter(metrics, "requests_failed") == 1
        assert counter(metrics, "requests_completed") == 0

    def test_resolve_of_an_unknown_request_is_refused(self):
        assert RequestTable(MetricsRegistry()).resolve(12345, result=1) is None

    def test_resolve_after_caller_cancellation_does_not_raise(self):
        metrics = MetricsRegistry()
        table = RequestTable(metrics)
        record = make_record(future=Future())
        table.open(record)
        assert record.future.cancel()
        # The answer has nowhere to land; the request still leaves pending
        # and still counts (its epoch pin must be given back by the caller).
        assert table.resolve(record.request.request_id, result="x") is record
        assert record.future.cancelled()
        assert len(table) == 0
        assert counter(metrics, "requests_completed") == 1

    def test_paused_intake_refuses_entry_after_the_timeout(self):
        table = RequestTable(MetricsRegistry(), pause_timeout_s=0.01)
        assert table.enter_intake()
        table.leave_intake()
        with table.intake_paused():
            assert not table.enter_intake()
        assert table.enter_intake()

    def test_wait_idle_sees_pending_and_mid_intake_requests(self):
        table = RequestTable(MetricsRegistry())
        assert table.wait_idle("g", timeout=0.0)
        # Mid-intake: past the gate, not yet pending -- on any graph.
        assert table.enter_intake()
        assert not table.wait_idle("g", timeout=0.01)
        table.leave_intake()
        record = make_record(graph="g")
        table.open(record)
        assert not table.wait_idle("g", timeout=0.01)
        assert table.wait_idle("other", timeout=0.0)
        table.resolve(record.request.request_id, result=None)
        assert table.wait_idle("g", timeout=0.0)

    def test_entry_blocked_by_a_pause_lands_after_resume(self):
        table = RequestTable(MetricsRegistry(), pause_timeout_s=5.0)
        entered = []
        thread = threading.Thread(
            target=lambda: entered.append(table.enter_intake())
        )
        with table.intake_paused():
            thread.start()
            assert table.wait_idle("g", timeout=0.05)  # nobody is past the gate
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert entered == [True]
        assert not table.wait_idle("g", timeout=0.01)


# --------------------------------------------------------------------------- #
# UnitTable
# --------------------------------------------------------------------------- #
def make_unit(unit_id, request_ids=(1,), trace_ids=(), dispatched_at=0.0):
    return Unit(unit_id, list(request_ids), list(trace_ids), dispatched_at)


class TestUnitTable:
    def test_dispatch_finish(self):
        metrics = MetricsRegistry()
        table = UnitTable(metrics)
        unit = make_unit(7, request_ids=(1, 2, 3), trace_ids=("a", "b"))
        table.dispatch(unit, "in_memory")
        assert len(table) == 1
        assert unit.head_trace_id == "a"
        assert table.finish(7) is unit
        assert len(table) == 0
        assert table.finish(7) is None  # a unit ends once
        assert counter(metrics, "units_dispatched") == 1
        assert counter(metrics, "coalesced_requests") == 3
        assert counter(metrics, "route_requests", route="in_memory") == 3

    def test_solo_units_are_not_counted_coalesced(self):
        metrics = MetricsRegistry()
        table = UnitTable(metrics)
        table.dispatch(make_unit(0), "out_of_memory")
        assert counter(metrics, "coalesced_requests") == 0
        assert counter(metrics, "route_requests", route="out_of_memory") == 1
        assert make_unit(0).head_trace_id is None

    def test_reap_of_an_unknown_unit_is_refused(self):
        table = UnitTable(MetricsRegistry())
        assert table.reap([99]) == []
        assert len(table) == 0

    def test_crash_ends_the_reported_units_and_spares_the_rest(self):
        table = UnitTable(MetricsRegistry())
        held, other, queued = make_unit(0), make_unit(1), make_unit(2)
        for unit in (held, other, queued):
            table.dispatch(unit, "in_memory")
        # The pool reports the one unit the dead worker held.
        assert table.reap([0]) == [held]
        assert table.reap([0]) == []  # a unit ends once
        assert len(table) == 2
        # The last worker gone: the pool reports its unit and every pending
        # one, in that order.
        assert table.reap([1, 2]) == [other, queued]
        assert len(table) == 0

    def test_timeout_cutoff(self):
        table = UnitTable(MetricsRegistry())
        old, new = make_unit(0, dispatched_at=10.0), make_unit(1, dispatched_at=20.0)
        table.dispatch(old, "in_memory")
        table.dispatch(new, "in_memory")
        assert table.expire(cutoff=10.0) == []  # strictly before the cutoff
        assert table.expire(cutoff=15.0) == [old]
        assert table.finish(0) is None  # the late answer finds nothing
        assert table.finish(1) is new


# --------------------------------------------------------------------------- #
# EpochTable
# --------------------------------------------------------------------------- #
@pytest.fixture
def epochs():
    store = FakeStore()
    metrics = MetricsRegistry()
    table = EpochTable(store, metrics)
    table.admit("g", store.publish("g"), "in_memory", layout="layout-0")
    return store, metrics, table


class TestEpochTable:
    def test_pin_resolves_latest_and_unpin_releases_nothing(self, epochs):
        store, _, table = epochs
        assert table.pin("g") == 0
        assert table.pin("g", 0) == 0
        assert table.get("g").active == 2
        assert table.unpin("g", 0) is None
        assert table.unpin("g", 0) is None  # not retiring: stays admitted
        assert store.released == []

    def test_unknown_epoch_refuses_pins(self, epochs):
        _, _, table = epochs
        with pytest.raises(KeyError):
            table.pin("g", 5)
        with pytest.raises(KeyError):
            table.get("g", 5)

    def test_retire_releases_unpinned_epochs_on_the_spot(self, epochs):
        store, metrics, table = epochs
        table.admit("g", store.publish("g"), "in_memory", layout="layout-1")
        assert table.retire("g", keep=1) == [("g", 0, "g@0")]
        assert store.epochs("g") == [1]
        assert counter(metrics, "epoch_retirements") == 1
        with pytest.raises(KeyError):
            table.pin("g", 0)
        assert table.pin("g") == 1

    def test_pinned_epoch_is_not_released_until_its_last_unpin(self, epochs):
        store, _, table = epochs
        table.pin("g")
        table.pin("g")
        table.admit("g", store.publish("g"), "in_memory", layout="layout-1")
        assert table.retire("g", keep=1) == []  # release while pinned: refused
        assert table.retiring() == ["g@0"]
        assert store.epochs("g") == [0, 1]
        with pytest.raises(KeyError, match="retiring"):
            table.pin("g", 0)
        assert table.unpin("g", 0) is None
        assert table.unpin("g", 0) == ("g", 0, "g@0")
        assert table.retiring() == []
        assert store.epochs("g") == [1]

    def test_class_plans_are_cached_per_epoch_and_dropped_by_readmission(
            self, epochs):
        _, _, table = epochs
        builds = []

        def build(admitted):
            builds.append((admitted.route, admitted.layout))
            return f"plan-{len(builds)}"

        assert table.class_plan("g", 0, ("deepwalk",), build) == "plan-1"
        assert table.class_plan("g", 0, ("deepwalk",), build) == "plan-1"
        assert table.class_plan("g", 0, ("node2vec",), build) == "plan-2"
        table.pin("g")
        # replan re-admits in place: plans go, the pin stays.
        table.admit("g", 0, "out_of_memory", layout="layout-0b")
        assert table.get("g").active == 1
        assert table.class_plan("g", 0, ("deepwalk",), build) == "plan-3"
        assert builds[-1] == ("out_of_memory", "layout-0b")


# --------------------------------------------------------------------------- #
# The composed model
# --------------------------------------------------------------------------- #
class ServiceModel(RuleBasedStateMachine):
    """The tables composed as ``SamplingService`` composes them."""

    requests = Bundle("requests")      # opened, maybe resolved
    queued = Bundle("queued")          # opened, not yet dispatched
    units = Bundle("units")            # dispatched, maybe ended

    def __init__(self):
        super().__init__()
        self.metrics = MetricsRegistry()
        self.store = FakeStore()
        self.requests_table = RequestTable(self.metrics)
        self.units_table = UnitTable(self.metrics)
        self.epochs_table = EpochTable(self.store, self.metrics)
        self.records = {}    # request id -> record, every request ever opened
        self.resolved = set()
        self.ended = set()   # unit ids that finished / were reaped / expired
        self.dispatched = {}  # unit id -> Unit
        self.held = {}  # the pool's unit id -> pid of every handed unit
        self.clock = 0.0
        self.publish()

    # -- helpers -------------------------------------------------------- #
    def _resolve(self, request_id, **outcome):
        record = self.requests_table.resolve(request_id, **outcome)
        if request_id in self.resolved:
            assert record is None, "second resolve was not refused"
            return
        assert record is self.records[request_id]
        self.resolved.add(request_id)
        key = (record.request.graph, record.epoch)
        self.store.pins[key] -= 1
        released = self.epochs_table.unpin(*key)
        if released is not None:
            assert released[:2] == key
            assert self.store.pins[key] == 0

    def _end(self, unit, **outcome):
        assert unit.unit_id not in self.ended, "unit ended twice"
        self.ended.add(unit.unit_id)
        for request_id in unit.request_ids:
            self._resolve(request_id, **outcome)

    # -- epochs --------------------------------------------------------- #
    @rule()
    def publish(self):
        epoch = self.store.publish("g")
        self.epochs_table.admit("g", epoch, "in_memory", layout=None)
        for name, old, _ in self.epochs_table.retire("g", keep=epoch):
            assert self.store.pins.get((name, old), 0) == 0

    @rule(target=queued, back=st.integers(0, 3), cancel=st.booleans())
    def submit(self, back, cancel):
        """Open a request, unpinned (back=0) or pinned to an older epoch."""
        latest = self.store.latest_epoch("g")
        want = None if back == 0 else latest - back
        serving = want is None or (
            want in self.store.epochs("g")
            and f"g@{want}" not in self.epochs_table.retiring()
        )
        if not serving:
            with pytest.raises(KeyError):
                self.epochs_table.pin("g", want)
            return multiple()
        assert self.requests_table.enter_intake()
        epoch = self.epochs_table.pin("g", want)
        assert epoch == (latest if want is None else want)
        self.store.pins[("g", epoch)] = self.store.pins.get(("g", epoch), 0) + 1
        record = make_record()
        record.epoch = epoch
        self.requests_table.open(record)
        self.requests_table.leave_intake()
        self.records[record.request.request_id] = record
        if cancel:
            record.future.cancel()  # the caller gave up; resolve must cope
        return record.request.request_id

    # -- units ---------------------------------------------------------- #
    @rule(target=units, first=consumes(queued), second=consumes(queued))
    def dispatch_fused(self, first, second):
        return self._dispatch([first, second])

    @rule(target=units, only=consumes(queued))
    def dispatch_solo(self, only):
        return self._dispatch([only])

    def _dispatch(self, request_ids):
        self.clock += 1.0
        unit = Unit(len(self.dispatched), request_ids, [], self.clock)
        self.dispatched[unit.unit_id] = unit
        self.units_table.dispatch(unit, "in_memory")
        return unit.unit_id

    @rule(unit_id=units, pid=st.integers(1, 3))
    def hand_off(self, unit_id, pid):
        """The pool hands the unit to worker ``pid`` (the table is not
        told; a unit that already ended may still be handed and run)."""
        if unit_id not in self.held:
            self.held[unit_id] = pid

    @rule(unit_id=units)
    def finish(self, unit_id):
        unit = self.units_table.finish(unit_id)
        if unit_id in self.ended:
            assert unit is None  # a late answer for a unit already lost
        else:
            self._end(unit, result="answer")

    @rule(pid=st.integers(1, 3), pool_dead=st.booleans())
    def crash(self, pid, pool_dead):
        """Worker ``pid`` dies; the pool reports the units it held -- every
        unit not yet handed out too when it was the last worker."""
        lost = [u for u, holder in self.held.items() if holder == pid]
        if pool_dead:
            lost += [u for u in self.dispatched if u not in self.held]
        for unit_id in lost:
            self.held[unit_id] = None  # never reported twice by the pool
        reaped = self.units_table.reap(lost)
        assert [u.unit_id for u in reaped] == [
            u for u in lost if u not in self.ended]
        for unit in reaped:
            assert unit.unit_id in lost
            self._end(unit, exception=RuntimeError("worker process died"))

    @rule(age=st.floats(0.0, 4.0))
    def expire(self, age):
        cutoff = self.clock - age
        for unit in self.units_table.expire(cutoff):
            assert unit.dispatched_at < cutoff
            self._end(unit, exception=RuntimeError("unit unanswered"))

    @rule(request_id=consumes(queued))
    def fail_before_dispatch(self, request_id):
        self._resolve(request_id, exception=RuntimeError("dispatch failed"))

    # -- invariants ----------------------------------------------------- #
    @invariant()
    def futures_resolve_exactly_once(self):
        for request_id, record in self.records.items():
            done = request_id in self.resolved
            if not record.future.cancelled():
                assert record.future.resolutions == int(done)
            pending = self.requests_table.get(request_id) is not None
            assert pending == (not done)
        assert len(self.requests_table) == len(self.records) - len(self.resolved)

    @invariant()
    def units_end_exactly_once(self):
        assert len(self.units_table) == len(self.dispatched) - len(self.ended)

    @invariant()
    def epochs_release_only_when_unpinned(self):
        # FakeStore.release asserts the pin model at release time; here:
        # the latest epoch always serves, and nothing pinned is gone.
        live = self.store.epochs("g")
        assert self.store.latest_epoch("g") in live
        for (name, epoch), pins in self.store.pins.items():
            assert pins >= 0
            if pins:
                assert epoch in live
                assert self.epochs_table.get(name, epoch).active == pins
        for label in self.epochs_table.retiring():
            epoch = int(label.split("@")[1])
            assert self.store.pins.get(("g", epoch), 0) > 0

    @invariant()
    def counters_agree_with_the_history(self):
        value = lambda name: counter(self.metrics, name)  # noqa: E731
        assert value("requests_submitted") == len(self.records)
        assert (value("requests_completed") + value("requests_failed")
                == len(self.resolved))
        assert value("units_dispatched") == len(self.dispatched)
        assert value("epoch_retirements") == len(self.store.released)


ServiceModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestServiceModel = ServiceModel.TestCase
