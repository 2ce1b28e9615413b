"""Discrete-event simulation kernel.

This package is the foundation substrate for the whole reproduction: every
node, daemon thread, disk head and network link in the simulated cluster is
a process running against the virtual clock provided here.

The design follows the classic event-calendar architecture (and borrows its
user-facing idioms from SimPy): an :class:`~repro.sim.engine.Environment`
owns a heap of scheduled events, and *processes* are Python generators that
``yield`` events to suspend until those events fire.

The event, process and resource primitives live in the substrate-neutral
:mod:`repro.core.kernel` (shared with the asyncio substrate) and
:class:`StreamRNG` in :mod:`repro.util.rng`; this package adds the
virtual-time calendar and re-exports the rest for convenience.

Public API
----------
- :class:`Environment` -- the virtual clock and event calendar.
- :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` -- events.
- :class:`Process`, :class:`Interrupt` -- generator-backed processes.
- :class:`Resource`, :class:`Store`, :class:`PriorityStore`,
  :class:`FilterStore`, :class:`Container` -- shared-resource primitives.
- :class:`StreamRNG` -- reproducible, stream-split random numbers.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(1.5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[1.5]
"""

from repro.core.kernel import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Container,
    Event,
    FilterStore,
    Interrupt,
    PriorityItem,
    PriorityStore,
    Process,
    Resource,
    Store,
    Timeout,
)
from repro.sim.effects import SimEffects
from repro.sim.engine import Environment, SimulationError
from repro.util.rng import StreamRNG

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "Environment",
    "Event",
    "FilterStore",
    "Interrupt",
    "PriorityItem",
    "PriorityStore",
    "Process",
    "Resource",
    "SimEffects",
    "SimulationError",
    "Store",
    "StreamRNG",
    "Timeout",
]
