"""Which functions the traced run wraps, and the layer each belongs to.

Every entry names the module, the class (or ``None`` for a module-level
name) and the attributes to wrap.  A name another module imported is
patched where it is used (``repro.rt.transport`` binds the wire codec
functions, ``repro.core.thread_pool`` binds ``commit_daemon``,
``repro.fs.base`` binds ``aggregate_thread``), because patching the
defining module would leave those bindings untouched.

Functions of layers a workload does not load are wrapped all the same;
their spans and counts read zero there.
"""

from __future__ import annotations

import importlib
import typing as _t
from collections import Counter

from perfbench.spans import Hook, Ledger, Patcher, Tracer, wrap

#: (layer, module, class or None, attributes).
LAYERS: _t.Tuple[_t.Tuple[str, str, _t.Optional[str], _t.Tuple[str, ...]], ...] = (
    ("setup", "repro.fs", None, ("build_cluster",)),
    ("kernel", "repro.sim.engine", "Environment", ("run",)),
    ("kernel", "repro.core.kernel.process", "Process", ("__init__",)),
    ("storage.disk", "repro.storage.disk", "DiskArray", ("_serve", "_notify")),
    (
        "storage.elevator",
        "repro.storage.scheduler",
        "ElevatorScheduler",
        (
            "submit",
            "pop_next_for_spindle",
            "earliest_plug_expiry",
            "has_request_for_spindle",
        ),
    ),
    (
        "storage.blockdev",
        "repro.storage.blockdev",
        "BlockDevice",
        ("submit_write", "submit_read", "expedite_file"),
    ),
    (
        "core.commit_queue",
        "repro.core.commit_queue",
        "CommitQueue",
        ("insert", "checkout_stable"),
    ),
    ("core.daemon", "repro.core.thread_pool", None, ("commit_daemon",)),
    (
        "client",
        "repro.client.client",
        "RedbudClient",
        ("create", "write", "read", "fsync", "close", "unlink"),
    ),
    ("mds", "repro.mds.server", "MetadataServer", ("_daemon_iterations",)),
    (
        "mds",
        "repro.mds.namespace",
        "Namespace",
        (
            "create",
            "get",
            "lookup",
            "commit_extents",
            "mapping_matches",
            "layout",
            "unlink",
        ),
    ),
    (
        "mds",
        "repro.mds.allocation",
        "SpaceManager",
        (
            "alloc",
            "alloc_chunk",
            "free",
            "note_uncommitted",
            "note_committed",
            "release_uncommitted",
            "holds_uncommitted",
            "reclaim_if_uncommitted",
            "reclaim_uncommitted",
        ),
    ),
    ("net.rpc", "repro.net.rpc", "RpcClient", ("call", "_call_with_retry")),
    ("net.rpc", "repro.net.rpc", "RpcServerPort", ("deliver", "reply")),
    ("net.rpc", "repro.net.rpc", "RpcTransport", ("send_request", "send_reply")),
    ("net.link", "repro.net.link", "Link", ("send",)),
    (
        "net.wire",
        "repro.rt.transport",
        None,
        ("encode_frame", "request_to_wire", "result_from_wire"),
    ),
    ("net.wire", "repro.net.wire", "FrameDecoder", ("feed",)),
    (
        "rt.transport",
        "repro.rt.transport",
        "RtClusterTransport",
        ("send_request", "_dispatch_reply"),
    ),
    (
        "rt.disk",
        "repro.rt.disk",
        "RtBlockDevice",
        ("submit_write", "submit_read", "fsync_volume"),
    ),
    ("obs", "repro.obs.registry", "Histogram", ("observe",)),
    ("workloads", "repro.workloads.xcdn", "XcdnWorkload", ("setup", "op")),
    ("workloads", "repro.fs.base", None, ("aggregate_thread",)),
)

#: Layers whose calls each start a new op id.
OP_LAYERS = frozenset({"client"})


def _elevator_hit(tallies: Counter, args: tuple, kwargs: dict, result: _t.Any) -> None:
    if result is not None:
        tallies["storage.elevator.hits"] += 1


def _rt_write(tallies: Counter, args: tuple, kwargs: dict, result: _t.Any) -> None:
    sync = kwargs["sync"] if "sync" in kwargs else len(args) > 4 and args[4]
    if sync:
        tallies["rt.disk.fsyncs"] += 1


def _rt_fsync(tallies: Counter, args: tuple, kwargs: dict, result: _t.Any) -> None:
    tallies["rt.disk.fsyncs"] += 1


def _frame_out(tallies: Counter, args: tuple, kwargs: dict, result: _t.Any) -> None:
    tallies["net.wire.frames"] += 1
    tallies["net.wire.bytes"] += len(result)


def _frames_in(tallies: Counter, args: tuple, kwargs: dict, result: _t.Any) -> None:
    tallies["net.wire.frames"] += len(result)
    tallies["net.wire.bytes"] += len(args[1])


#: (module, class or None, attribute) -> hook run after each call.
HOOKS: _t.Dict[_t.Tuple[str, _t.Optional[str], str], Hook] = {
    (
        "repro.storage.scheduler",
        "ElevatorScheduler",
        "pop_next_for_spindle",
    ): _elevator_hit,
    ("repro.rt.disk", "RtBlockDevice", "submit_write"): _rt_write,
    ("repro.rt.disk", "RtBlockDevice", "fsync_volume"): _rt_fsync,
    ("repro.rt.transport", None, "encode_frame"): _frame_out,
    ("repro.net.wire", "FrameDecoder", "feed"): _frames_in,
}


def install(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYERS` for ``tracer``."""
    for layer, module_name, class_name, attrs in LAYERS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for attr in attrs:
            qualname = f"{class_name or module_name}.{attr}"
            hook = HOOKS.get((module_name, class_name, attr))
            patcher.replace(
                owner,
                attr,
                lambda fn, q=qualname, h=hook, l=layer: wrap(
                    tracer, l, q, fn, hook=h, new_op=l in OP_LAYERS
                ),
            )


def metrics(ledger: Ledger, untraced_wall: float) -> _t.Dict[str, float]:
    """Per-layer metrics read off a traced run's ledger (both substrates)."""
    calls = ledger.calls
    tallies = ledger.tallies
    polls = calls["storage.elevator:ElevatorScheduler.pop_next_for_spindle"]
    hits = tallies.get("storage.elevator.hits", 0)
    # Self times as shares of the traced wall: comparable across hosts
    # and run lengths, and a bypassed layer reads a zero share.
    found: _t.Dict[str, float] = {
        f"{layer}.self_share": seconds / ledger.wall_s
        for layer, seconds in ledger.self_s.items()
    }
    found["unattributed_share"] = found.pop("unattributed.self_share")
    found.update(
        {
            "kernel.processes": calls["kernel:Process.__init__"],
            "storage.elevator.polls": polls,
            "storage.elevator.poll_hit_ratio": hits / polls if polls else 0.0,
            "storage.blockdev.submits": (
                calls["storage.blockdev:BlockDevice.submit_write"]
                + calls["storage.blockdev:BlockDevice.submit_read"]
            ),
            "core.commit_queue.inserts": calls[
                "core.commit_queue:CommitQueue.insert"
            ],
            "client.ops": ledger.count("client"),
            "net.link.sends": calls["net.link:Link.send"],
            "net.wire.frames": tallies.get("net.wire.frames", 0),
            "net.wire.bytes": tallies.get("net.wire.bytes", 0),
            "rt.disk.writes": calls["rt.disk:RtBlockDevice.submit_write"],
            "rt.disk.fsyncs": tallies.get("rt.disk.fsyncs", 0),
            "obs.observes": calls["obs:Histogram.observe"],
            "trace.wall_s": ledger.wall_s,
            "trace.overhead_ratio": ledger.wall_s / untraced_wall,
            "trace.spans": sum(ledger.spans.values()),
        }
    )
    return found
