"""Span recording, layer wrappers and the self-time ledger.

The traced run wraps each layer's entry points from outside the program
(:class:`Patcher` replaces class and module attributes and puts every
original back).  Each call -- or, for a generator, each *resumption* --
records one span: a label (layer and function), a start, an end, the
enclosing span and an op id shared by every span of one client
operation.  Spans stay in parallel arrays until the run ends; the ledger
is computed from them afterwards.

A span's self time is its duration minus the durations of the spans it
encloses.  Everything runs on one thread, so spans nest strictly and the
children of a span never overlap: summing the self times of all spans,
the root included, telescopes to the root's duration.  The root's self
time is the time no wrapped layer accounts for (``unattributed``).
"""

from __future__ import annotations

import functools
import inspect
import time
import typing as _t
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

_clock = time.perf_counter

#: Layer name of the root span.
UNATTRIBUTED = "unattributed"

#: ``hook(tallies, args, kwargs, result)``: adds named counts for one call.
Hook = _t.Callable[[Counter, tuple, dict, _t.Any], None]


class Tracer:
    """Spans of one traced run, kept in memory until :meth:`ledger`."""

    def __init__(self) -> None:
        #: Label id -> (layer, function).  Label 0 is the root.
        self.labels: _t.List[_t.Tuple[str, str]] = [(UNATTRIBUTED, "root")]
        #: Label id -> calls (a generator counts once, however often it
        #: resumes).
        self.calls: _t.List[int] = [0]
        #: Named counts added by hooks (elevator hits, wire bytes, ...).
        self.tallies: Counter = Counter()
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: Indices of the open spans, innermost last.  Empty outside the
        #: root: wrappers that outlive the traced window (bound methods
        #: cached by objects built during it) then pass calls through.
        self.stack: _t.List[int] = []
        self._ops = 0

    def label(self, layer: str, function: str) -> int:
        self.labels.append((layer, function))
        self.calls.append(0)
        return len(self.labels) - 1

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    def open_root(self) -> None:
        if len(self.start):
            raise RuntimeError("a tracer records one root span")
        self.name.append(0)
        self.parent.append(-1)
        self.op.append(0)
        self.end.append(0.0)
        self.stack.append(0)
        self.start.append(_clock())

    def close_root(self) -> None:
        self.end[0] = _clock()
        if self.stack != [0]:
            raise RuntimeError(f"spans still open at the root: {self.stack}")
        self.stack.pop()

    def ledger(self) -> "Ledger":
        """Self time per layer, span and call counts per label."""
        n = len(self.start)
        if n == 0 or self.stack:
            raise RuntimeError("the root span is not closed")
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.uint16)
        self_time = end - start
        if (self_time < 0).any():
            raise RuntimeError("a span ended before it started")
        self_time -= np.bincount(parent[1:], weights=self_time[1:], minlength=n)
        layers = sorted({layer for layer, _ in self.labels})
        layer_of = np.array(
            [layers.index(layer) for layer, _ in self.labels], dtype=np.uint8
        )
        per_layer = np.bincount(
            layer_of[names], weights=self_time, minlength=len(layers)
        )
        spans = np.bincount(names, minlength=len(self.labels))
        return Ledger(
            wall_s=float(end[0] - start[0]),
            self_s={
                layer: float(per_layer[i]) for i, layer in enumerate(layers)
            },
            spans={
                f"{layer}:{fn}": int(spans[i])
                for i, (layer, fn) in enumerate(self.labels)
            },
            calls={
                f"{layer}:{fn}": self.calls[i]
                for i, (layer, fn) in enumerate(self.labels)
            },
            tallies=dict(self.tallies),
        )


@dataclass
class Ledger:
    """What the traced run attributes to each layer."""

    wall_s: float
    #: Layer -> self seconds; sums to ``wall_s`` (root included).
    self_s: _t.Dict[str, float]
    #: ``layer:function`` -> spans recorded (resumptions for generators).
    spans: _t.Dict[str, int]
    #: ``layer:function`` -> calls.
    calls: _t.Dict[str, int]
    tallies: _t.Dict[str, int]

    def count(self, layer: str) -> int:
        """Calls into every function wrapped for ``layer``."""
        prefix = layer + ":"
        return sum(n for k, n in self.calls.items() if k.startswith(prefix))


def wrap_call(
    tracer: Tracer,
    label: int,
    fn: _t.Callable[..., _t.Any],
    hook: _t.Optional[Hook] = None,
) -> _t.Callable[..., _t.Any]:
    """``fn`` recording one span per call."""
    names, starts, ends = tracer.name, tracer.start, tracer.end
    parents, ops, stack = tracer.parent, tracer.op, tracer.stack
    calls, tallies = tracer.calls, tracer.tallies

    @functools.wraps(fn)
    def traced(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
        if not stack:
            return fn(*args, **kwargs)
        calls[label] += 1
        i = len(starts)
        p = stack[-1]
        names.append(label)
        parents.append(p)
        ops.append(ops[p])
        ends.append(0.0)
        stack.append(i)
        starts.append(_clock())
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tallies, args, kwargs, result)
            return result
        finally:
            ends[i] = _clock()
            stack.pop()

    return traced


def wrap_generator(
    tracer: Tracer,
    label: int,
    fn: _t.Callable[..., _t.Generator],
    new_op: bool = False,
) -> _t.Callable[..., _t.Generator]:
    """Generator function ``fn`` recording one span per resumption.

    ``new_op`` gives each call a fresh op id that its spans, and the
    spans they enclose, carry.
    """
    calls = tracer.calls

    @functools.wraps(fn)
    def traced(*args: _t.Any, **kwargs: _t.Any) -> _t.Generator:
        inner = fn(*args, **kwargs)
        if not tracer.stack:
            return inner
        calls[label] += 1
        outer = _resumptions(
            tracer, label, tracer.new_op() if new_op else 0, inner
        )
        # Processes take their default name from the generator.
        outer.__name__ = inner.__name__
        outer.__qualname__ = inner.__qualname__
        return outer

    return traced


def _resumptions(
    tracer: Tracer, label: int, op: int, inner: _t.Generator
) -> _t.Generator:
    """Drive ``inner``, timing each resumption; forward send/throw/close.

    Nothing here keeps a reference to a yielded or sent value while
    suspended: the kernel recycles and cancels timeouts by reference
    count, and an extra reference would change the event calendar.
    """
    names, starts, ends = tracer.name, tracer.start, tracer.end
    parents, ops, stack = tracer.parent, tracer.op, tracer.stack
    send, throw = inner.send, inner.throw
    box: _t.List[_t.Any] = []
    value: _t.Any = None
    error: _t.Optional[BaseException] = None
    while True:
        i = -1
        if stack:
            i = len(starts)
            p = stack[-1]
            names.append(label)
            parents.append(p)
            ops.append(op or ops[p])
            ends.append(0.0)
            stack.append(i)
            starts.append(_clock())
        try:
            if error is None:
                box.append(send(value))
            else:
                box.append(throw(error))
        except StopIteration as stop:
            return stop.value
        finally:
            if i >= 0:
                ends[i] = _clock()
                stack.pop()
        value = error = None
        try:
            value = yield box.pop()
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:
            error = exc


def wrap(
    tracer: Tracer,
    layer: str,
    qualname: str,
    fn: _t.Callable[..., _t.Any],
    hook: _t.Optional[Hook] = None,
    new_op: bool = False,
) -> _t.Callable[..., _t.Any]:
    """The span-recording wrapper matching ``fn``'s kind."""
    label = tracer.label(layer, qualname)
    if inspect.isgeneratorfunction(fn):
        if hook is not None:
            raise ValueError(f"{qualname}: hooks need a plain function")
        return wrap_generator(tracer, label, fn, new_op=new_op)
    return wrap_call(tracer, label, fn, hook)


class Patcher:
    """Replaces attributes of classes and modules; restores every one.

    Patches go on the class (instances of ``__slots__`` classes take no
    attribute assignment) or on the module that *uses* a name it
    imported.  Only attributes the owner itself defines may be patched,
    so restoring never shadows an inherited one.
    """

    def __init__(self) -> None:
        self._saved: _t.List[_t.Tuple[_t.Any, str, _t.Any]] = []

    def replace(
        self,
        owner: _t.Any,
        attr: str,
        make: _t.Callable[[_t.Callable[..., _t.Any]], _t.Callable[..., _t.Any]],
    ) -> None:
        """Set ``owner.attr`` to ``make(original function)``."""
        raw = vars(owner)[attr]
        setattr(owner, attr, make(raw))
        self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.restore()
