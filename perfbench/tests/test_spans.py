"""Span wrappers: self-time arithmetic, generator forwarding, restoration.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import importlib
import itertools

import pytest

from perfbench import layermap, simwork, spans
from perfbench.spans import Patcher, Tracer, wrap


@pytest.fixture
def ticking_clock(monkeypatch):
    """Each clock read returns the next whole second."""
    ticks = itertools.count()
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))


def test_self_time_of_nested_spans(ticking_clock):
    tracer = Tracer()
    inner = wrap(tracer, "storage", "inner", lambda: "leaf")
    middle = wrap(tracer, "client", "middle", lambda: (inner(), inner()))
    outer = wrap(tracer, "kernel", "outer", lambda: middle())
    tracer.open_root()  # t=0
    # outer [1, 8): middle [2, 7): inner [3, 4) and [5, 6)
    assert outer() == ("leaf", "leaf")
    tracer.close_root()  # t=9
    ledger = tracer.ledger()
    assert ledger.wall_s == 9.0
    assert ledger.self_s == {
        "storage": 2.0,
        "client": 3.0,
        "kernel": 2.0,
        "unattributed": 2.0,
    }
    assert sum(ledger.self_s.values()) == ledger.wall_s
    assert ledger.calls["storage:inner"] == 2
    assert ledger.count("client") == 1


def test_generator_spans_cover_each_resumption(ticking_clock):
    def steps():
        yield 1
        yield 2
        return "done"

    tracer = Tracer()
    traced = wrap(tracer, "client", "steps", steps, new_op=True)
    tracer.open_root()  # t=0
    gen = traced()
    assert list(gen) == [1, 2]  # resumptions [1, 2), [3, 4), [5, 6)
    tracer.close_root()  # t=7
    ledger = tracer.ledger()
    assert ledger.self_s["client"] == 3.0
    assert ledger.spans["client:steps"] == 3
    assert ledger.calls["client:steps"] == 1
    assert set(tracer.op[1:]) == {1}
    assert gen.__name__ == "steps"


def test_throw_and_close_reach_the_wrapped_generator():
    seen = []

    def daemon():
        while True:
            try:
                yield "waiting"
            except KeyError as exc:
                seen.append(exc.args[0])
                yield "recovered"
            finally:
                seen.append("unwound")

    tracer = Tracer()
    traced = wrap(tracer, "core.daemon", "daemon", daemon)
    tracer.open_root()
    gen = traced()
    assert next(gen) == "waiting"
    assert gen.throw(KeyError("retire")) == "recovered"
    assert seen == ["retire"]
    gen.close()
    assert seen == ["retire", "unwound"]
    with pytest.raises(ValueError):
        wrapped = traced()
        next(wrapped)
        wrapped.throw(ValueError("not handled"))
    tracer.close_root()
    assert tracer.stack == []


def test_kernel_interrupt_through_a_wrapped_process():
    from repro.core.kernel.process import Interrupt
    from repro.sim.engine import Environment

    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))
        return "retired"

    def retire(victim):
        yield env.timeout(1.0)
        victim.interrupt("surplus")

    tracer = Tracer()
    traced = wrap(tracer, "core.daemon", "sleeper", sleeper)
    tracer.open_root()
    victim = env.process(traced())
    env.process(retire(victim))
    env.run()
    tracer.close_root()
    assert log == [(1.0, "surplus")]
    assert victim.value == "retired"
    assert tracer.ledger().spans["core.daemon:sleeper"] == 2


def _snapshot():
    """Every attribute the benchmark may replace, as currently bound."""
    import repro.fs
    from repro.analysis.metrics import OpMetrics
    from repro.rt import smoke
    from repro.sim.engine import Environment

    found = {}
    for _, module_name, class_name, attrs in layermap.LAYERS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for attr in attrs:
            found[(module_name, class_name, attr)] = vars(owner)[attr]
    for owner, attr in (
        (repro.fs, "build_cluster"),
        (Environment, "run"),
        (OpMetrics, "record"),
        (smoke, "_workload"),
        (smoke, "ctl_request"),
    ):
        found[(owner.__name__, None, attr)] = vars(owner)[attr]
    return found


def test_every_original_is_restored():
    before = _snapshot()
    with Patcher() as patcher:
        layermap.install(patcher, Tracer())
        assert _snapshot() != before
    assert _snapshot() == before


def test_traced_cell_matches_untraced_and_restores():
    before = _snapshot()
    cell = dict(simwork.cells("sim-xcdn", seed=3, seconds=1)[0], duration=0.05)
    plain = simwork.run_cell(cell)
    tracer = Tracer()
    traced = simwork.run_cell(cell, tracer)
    assert _snapshot() == before
    assert simwork._program_counts(traced) == simwork._program_counts(plain)
    assert traced.samples == plain.samples
    ledger = tracer.ledger()
    assert sum(ledger.self_s.values()) == pytest.approx(ledger.wall_s, abs=1e-9)
    assert ledger.self_s["kernel"] > 0 and ledger.self_s["storage.elevator"] > 0


def test_live_pass_restores_and_leaves_no_shard(tmp_path):
    from perfbench import livework

    before = _snapshot()
    tracer = Tracer()
    walls, _, live = livework._pass(str(tmp_path), seed=5, files=3, setups=2, tracer=tracer)
    assert _snapshot() == before
    assert len(walls) == 2
    assert live.failures() == []
    assert all(child.poll() is not None for child in live.shards.children)
    assert len(live.shards.samples) == livework.SHARDS
    assert list(tmp_path.iterdir()) == []
    assert tracer.ledger().calls["net.wire:repro.rt.transport.encode_frame"] > 0
