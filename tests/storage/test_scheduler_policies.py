"""Tests for the scheduler policies: plugging, deadlines, read preference,
sync-request semantics and per-spindle dispatch."""

import pytest

from repro.sim import Environment
from repro.core.kernel.events import Event
from repro.storage.scheduler import READ, BlockRequest, ElevatorScheduler


def make_request(env, start, length=4096, op="write", sync=False, file_id=0):
    return BlockRequest(
        op=op,
        start=start,
        length=length,
        client_id=0,
        file_id=file_id,
        submit_time=env.now,
        completion=Event(env),
        sync=sync,
    )


def one_spindle(_start):
    return 0


@pytest.fixture
def env():
    return Environment()


def test_plug_holds_young_async_writes(env):
    sched = ElevatorScheduler(env, 0)
    sched.submit(make_request(env, 0))
    got = sched.pop_next_for_spindle(0, 0, one_spindle, write_plug=0.01)
    assert got is None  # plugged

    def later(env):
        yield env.timeout(0.02)

    env.process(later(env))
    env.run()
    got = sched.pop_next_for_spindle(0, 0, one_spindle, write_plug=0.01)
    assert got is not None  # plug expired


def test_sync_writes_never_plugged(env):
    sched = ElevatorScheduler(env, 0)
    sched.submit(make_request(env, 0, sync=True))
    got = sched.pop_next_for_spindle(0, 0, one_spindle, write_plug=0.01)
    assert got is not None


def test_reads_never_plugged(env):
    sched = ElevatorScheduler(env, 0)
    sched.submit(make_request(env, 0, op=READ, sync=True))
    got = sched.pop_next_for_spindle(
        0, 0, one_spindle, op=READ, write_plug=0.01
    )
    assert got is not None


def test_op_filter(env):
    sched = ElevatorScheduler(env, 0)
    sched.submit(make_request(env, 0, op="write", sync=True))
    sched.submit(make_request(env, 8192, op=READ))
    got = sched.pop_next_for_spindle(0, 0, one_spindle, op=READ)
    assert got.op == READ
    got = sched.pop_next_for_spindle(0, 0, one_spindle, op="write")
    assert got.op == "write"


def test_spindle_filter(env):
    sched = ElevatorScheduler(env, 0)
    sched.submit(make_request(env, 0, sync=True))
    sched.submit(make_request(env, 1 << 20, sync=True))
    by_mb = lambda start: start // (1 << 20)  # noqa: E731
    got = sched.pop_next_for_spindle(0, 1, by_mb)
    assert got.start == 1 << 20
    assert sched.pop_next_for_spindle(0, 1, by_mb) is None
    assert sched.has_request_for_spindle(0, by_mb)
    assert not sched.has_request_for_spindle(1, by_mb)


def test_expired_request_served_first(env):
    sched = ElevatorScheduler(env, 0, read_deadline=0.01)
    old = make_request(env, 1 << 30, op=READ)  # far away, will expire
    sched.submit(old)

    def later(env):
        yield env.timeout(0.05)
        sched.submit(make_request(env, 0, op=READ))  # near the head

    env.process(later(env))
    env.run()
    got = sched.pop_next_for_spindle(0, 0, one_spindle)
    assert got is old  # expired beats C-LOOK order


def test_earliest_plug_expiry(env):
    sched = ElevatorScheduler(env, 0)
    assert sched.earliest_plug_expiry(0, one_spindle, 0.01) is None
    sched.submit(make_request(env, 0))
    assert sched.earliest_plug_expiry(0, one_spindle, 0.01) == pytest.approx(
        0.01
    )
    # Sync requests do not count (already dispatchable).
    sched2 = ElevatorScheduler(env, 0)
    sched2.submit(make_request(env, 0, sync=True))
    assert sched2.earliest_plug_expiry(0, one_spindle, 0.01) is None


def test_expedite_file_unplugs(env):
    sched = ElevatorScheduler(env, 0)
    notified = []
    sched.on_submit = lambda: notified.append(1)
    sched.submit(make_request(env, 0, file_id=7))
    sched.submit(make_request(env, 1 << 20, file_id=8))
    sched.expedite_file(7)
    got = sched.pop_next_for_spindle(0, 0, one_spindle, write_plug=1.0)
    assert got is not None and got.file_id == 7
    # File 8 remains plugged.
    assert (
        sched.pop_next_for_spindle(0, 0, one_spindle, write_plug=1.0) is None
    )
    assert len(notified) >= 3  # two submits + expedite
