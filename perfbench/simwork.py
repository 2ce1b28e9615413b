"""The simulator workloads: one harness cell at a time, in this process.

The cells come from ``benchmarks/harness.py`` unchanged apart from the
seed and the virtual duration, and run through its ``run_cell``; the
harness's process pool and result cache are never used, so every number
is measured now.  Three phase hooks observe the run from outside:
``build_cluster`` is timed and its cluster kept, ``Environment.run`` is
timed per call (the first call is the setup barrier, the second the
warm-up plus the measured window), and ``OpMetrics.record`` keeps each
measured op's virtual latency, so tails are exact rather than histogram
buckets, and the wall clock of its completion, which bounds the measured
window in wall time.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import typing as _t
from dataclasses import dataclass

from perfbench import layermap
from perfbench.spans import Patcher, Tracer

_clock = time.perf_counter


#: Workload -> (harness figure, what picks its cell, virtual seconds
#: per cell, virtual seconds simulated per requested wall second).  A
#: run is as many cells as fill ``--seconds``, one after another, on
#: consecutive seeds of the harness's own seed axis starting at ``seed``
#: times the cell count.  Pooling short independent cells keeps one
#: seed's disk-queue regime from deciding the run, and the median over
#: cells keeps one slow stretch of a shared host from deciding the wall
#: rate; each cell is also one set-up.  The rates size a run to about
#: ``--seconds`` of wall time on a 2-vCPU x86 host; the work depends on
#: ``--seconds`` and the seed alone, so a seed replays the same run.
SIM_WORKLOADS: _t.Dict[str, _t.Tuple[str, _t.Dict[str, _t.Any], float, float]] = {
    "sim-xcdn": (
        "fig3",
        {"system": "redbud-delayed", "workload": "xcdn-32K", "clients": 7},
        0.625,
        0.5,
    ),
    "sim-1k-clients": (
        "scale-smoke",
        {"scheduler": "calendar", "processes": 8},
        1.075,
        0.43,
    ),
}


def cells(name: str, seed: int, seconds: int) -> _t.List[_t.Dict[str, _t.Any]]:
    """The harness cells one run of ``name`` executes."""
    from benchmarks.harness import sweep_cells

    figure, match, duration, rate = SIM_WORKLOADS[name]
    count = max(1, round(seconds * rate / duration))
    return [
        dict(cell, duration=duration)
        for cell in sweep_cells(figure, count, base_seed=seed * count)
        if all(cell.get(k) == v for k, v in match.items())
    ]


@dataclass
class CellRun:
    """One executed cell: what the program reported and the phase walls."""

    record: _t.Dict[str, _t.Any]
    extras: _t.Dict[str, _t.Any]
    cluster: _t.Any
    build_s: float
    #: Wall seconds of each ``Environment.run`` call inside the cell.
    runs: _t.List[float]
    #: (op, virtual latency seconds) of every measured op.
    samples: _t.List[_t.Tuple[str, float]]
    #: Wall clock at the first and the last measured op's completion.
    first_s: float
    last_s: float

    @property
    def setup_s(self) -> float:
        return self.build_s + self.runs[0]

    @property
    def ops_per_wall_s(self) -> float:
        """Measured ops completed per wall second of the measured window."""
        return (len(self.samples) - 1) / (self.last_s - self.first_s)


def run_cell(
    cell: _t.Dict[str, _t.Any], tracer: _t.Optional[Tracer] = None
) -> CellRun:
    """Run one harness cell, traced when ``tracer`` is given."""
    import repro.fs
    from benchmarks import harness
    from repro.analysis.metrics import OpMetrics
    from repro.sim.engine import Environment

    built: _t.Dict[str, _t.Any] = {}
    runs: _t.List[float] = []
    samples: _t.List[_t.Tuple[str, float]] = []
    walls: _t.List[float] = []

    def time_build(build: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
        def timed_build(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            t0 = _clock()
            cluster = build(*args, **kwargs)
            built["s"] = _clock() - t0
            built["cluster"] = cluster
            return cluster

        return timed_build

    def time_run(run: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
        def timed_run(self: _t.Any, until: _t.Any = None) -> _t.Any:
            t0 = _clock()
            try:
                return run(self, until)
            finally:
                runs.append(_clock() - t0)

        return timed_run

    def keep(record: _t.Callable[..., None]) -> _t.Callable[..., None]:
        def record_and_keep(
            self: _t.Any, op: str, latency: float, *args: _t.Any, **kwargs: _t.Any
        ) -> None:
            samples.append((op, latency))
            record(self, op, latency, *args, **kwargs)
            walls.append(_clock())

        return record_and_keep

    with Patcher() as patcher:
        patcher.replace(repro.fs, "build_cluster", time_build)
        patcher.replace(Environment, "run", time_run)
        patcher.replace(OpMetrics, "record", keep)
        if tracer is not None:
            layermap.install(patcher, tracer)
            tracer.open_root()
        try:
            record = harness.run_cell(cell)
        finally:
            if tracer is not None:
                tracer.close_root()
    cluster = built["cluster"]
    # Before anything else runs on the cluster, so the extras are the
    # ones run_workload saw when the measured window closed.
    extras = cluster.collect_extras()
    return CellRun(
        record=record,
        extras=extras,
        cluster=cluster,
        build_s=built["s"],
        runs=runs,
        samples=samples,
        first_s=walls[0],
        last_s=walls[-1],
    )


def judge(cluster: _t.Any) -> _t.List[str]:
    """Settle, then the safety and liveness checks of ``repro run --check``.

    Returns one ``kind: detail`` line per violation.
    """
    from repro.check import judge_converged, judge_live

    cluster.settle()
    verdict = judge_live(cluster)
    converged = judge_converged(cluster)
    return [
        f"{kind}: {detail}"
        for kind, detail in verdict.violations + converged.violations
    ]


def quantile(values: _t.Sequence[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def _program_counts(run: CellRun) -> _t.Dict[str, float]:
    """Counts the program keeps itself; these must not depend on tracing."""
    extras = run.extras
    clients = run.cluster.clients
    seeks = extras["seek_analysis"]
    hits, misses = extras["cache_hits"], extras["cache_misses"]
    return {
        "kernel.events": run.record["events"],
        "storage.dispatches": seeks.dispatches,
        "storage.seeks": seeks.seeks,
        "storage.merge_ratio": extras["merge_ratio"],
        "storage.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.ops_per_commit_rpc": (
            extras["ops_committed"] / extras["commit_rpcs"]
            if extras.get("commit_rpcs")
            else 0.0
        ),
        "core.compound_degree": extras.get("mean_compound_degree", 0.0),
        "mds.requests": extras["mds_requests"],
        "mds.duplicates_suppressed": (
            run.cluster.metadata.duplicate_requests_suppressed
        ),
        "net.rpc.calls": sum(c.rpc.calls_sent for c in clients),
        "net.rpc.retries": sum(c.rpc.retries for c in clients),
        "net.rpc.timeouts": sum(c.rpc.timeouts for c in clients),
        "virt_ops_per_s": run.record["ops_per_second"],
    }


#: Counts a traced run must reproduce exactly: proof the wrappers change
#: nothing the simulation does.
IDENTICAL = (
    "kernel.events",
    "storage.dispatches",
    "storage.merge_ratio",
    "core.ops_per_commit_rpc",
    "mds.requests",
    "virt_ops_per_s",
)


def run(name: str, seed: int, seconds: int, trace: bool) -> _t.Dict[str, _t.Any]:
    """One benchmark run of a simulator workload."""
    if trace:
        return _traced(cells(name, seed, seconds)[0])
    failures: _t.List[str] = []
    setups, rates, samples = [], [], []
    ops = duration = 0.0
    for cell in cells(name, seed, seconds):
        done = run_cell(cell)
        failures += judge(done.cluster)
        setups.append(done.setup_s)
        rates.append(done.ops_per_wall_s)
        samples += done.samples
        ops += done.record["ops_completed"]
        duration += cell["duration"]
        del done
        gc.collect()
    latencies = [lat for _, lat in samples]
    creates = [lat for op, lat in samples if op == "create"]
    return {
        "metrics": {
            "ops_per_wall_s": statistics.median(rates),
            "ops_per_s": ops / duration,
            "op_mean_ms": statistics.fmean(latencies) * 1e3,
            "op_p99_ms": quantile(latencies, 0.99) * 1e3,
            "create_p99_ms": quantile(creates, 0.99) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_fail_ratio": 0.0,
        },
        "attempted": len(latencies),
        "failed": 0,
        "failures": failures,
        "samples": {"all ops": len(latencies), "create": len(creates)},
    }


def _traced(cell: _t.Dict[str, _t.Any]) -> _t.Dict[str, _t.Any]:
    """One cell untraced, then traced: the per-layer ledger."""
    base = run_cell(cell)
    failures = judge(base.cluster)
    counts = _program_counts(base)
    untraced_wall = base.build_s + sum(base.runs[:2])
    phases = {
        "kernel.events_per_s": counts["kernel.events"] / sum(base.runs[:2]),
        "setup.build_s": base.build_s,
        "setup.seed_s": base.runs[0],
    }
    attempted = len(base.samples)
    del base
    gc.collect()
    tracer = Tracer()
    traced = run_cell(cell, tracer)
    ledger = tracer.ledger()
    traced_counts = _program_counts(traced)
    for key in IDENTICAL:
        if traced_counts[key] != counts[key]:
            failures.append(
                f"trace-perturbation: traced {key} = {traced_counts[key]} "
                f"!= untraced {counts[key]}"
            )
    failures += judge(traced.cluster)
    layers = layermap.metrics(ledger, untraced_wall)
    layers.update(counts)
    del layers["virt_ops_per_s"]
    layers.update(phases)
    layers["mds.shard_cpu_ratio"] = 0.0
    layers["rt.client_cpu_ratio"] = 0.0
    return {
        "layers": layers,
        "ledger": ledger,
        "attempted": attempted,
        "failed": 0,
        "failures": failures,
    }
