"""One run: the workload preset table and the spec that assembles a cluster.

Every result in the paper is one cell of a single sweep -- system x
workload x clients -- and every front end here runs such a cell: the
``run``/``compare``/``trace``/``stats``/``slo`` verbs, the bench harness
(``benchmarks/harness.py``) and, through the same preset table, the
pytest figure benches.  :data:`PRESETS` is the only place a workload
preset is defined; :class:`RunSpec` is the only place a cluster is
assembled from a run's knobs.

>>> spec = RunSpec(workload="varmail", clients=2, duration=0.2)
>>> spec.run().result.ops_completed > 0
True
"""

from __future__ import annotations

import dataclasses
import importlib
import typing as _t

import repro.fs
from repro.fs.factory import SYSTEMS

__all__ = ["PRESETS", "RunSpec", "Run", "make_workload", "require_redbud"]

#: Workload presets: name -> (dotted class path, constructor kwargs).
#: Plain data, so a bench cell naming a preset stays JSON-serialisable
#: (the result cache hashes it) and picklable (workers receive it).
PRESETS: _t.Dict[str, _t.Tuple[str, _t.Dict[str, _t.Any]]] = {
    "fileserver": (
        "repro.workloads.FileserverWorkload",
        {"seed_files_per_client": 15},
    ),
    "varmail": ("repro.workloads.VarmailWorkload", {"seed_files_per_client": 15}),
    "webproxy": (
        "repro.workloads.WebproxyWorkload",
        {"seed_files_per_client": 20},
    ),
    "xcdn-32K": (
        "repro.workloads.XcdnWorkload",
        {"file_size": 32 * 1024, "seed_files_per_client": 25},
    ),
    "xcdn-64K": (
        "repro.workloads.XcdnWorkload",
        {"file_size": 64 * 1024, "seed_files_per_client": 15},
    ),
    "xcdn-1M": (
        "repro.workloads.XcdnWorkload",
        {"file_size": 1024 * 1024, "seed_files_per_client": 8},
    ),
    # Lean per-personality footprint for the client-count scaling sweep:
    # at 10k clients the default seed corpus and thread count would
    # swamp the volume and the calendar before measurement starts.
    "xcdn-scale": (
        "repro.workloads.XcdnWorkload",
        {
            "file_size": 32 * 1024,
            "seed_files_per_client": 2,
            "threads_per_client": 2,
        },
    ),
    "npb-bt": ("repro.workloads.NpbBtIoWorkload", {}),
    # The soak harness's slow-trickle check mix, so a shrunk soak
    # counterexample replays under ``repro run --workload soak``.
    "soak": ("repro.check.soak.SoakWorkload", {}),
}


def make_workload(name: str) -> _t.Any:
    """A fresh workload instance of preset ``name``.

    The class is imported on demand, which keeps the checker package
    out of every run that does not ask for the ``soak`` preset.
    """
    path, kwargs = PRESETS[name]
    module, _, cls = path.rpartition(".")
    return getattr(importlib.import_module(module), cls)(**kwargs)


def require_redbud(system: str, flag: str) -> None:
    """Raise the one "redbud systems only" error, naming ``flag``."""
    if not system.startswith("redbud"):
        raise ValueError(f"{flag} supports the redbud systems only")


@dataclasses.dataclass(frozen=True)
class Run:
    """A built cluster, its fault injector and (once run) its result."""

    cluster: _t.Any
    injector: _t.Optional[_t.Any]
    result: _t.Optional[_t.Any] = None


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything that decides one simulated run.

    Field names match the CLI option names (``delegation_chunk`` is
    ``--delegation-chunk``), so a validation error names the flag.  The
    redbud-only knobs -- ``faults``, ``shards``, ``replication``,
    ``seed_bug`` -- raise :class:`ValueError` on ``pvfs2``/``nfs3``.
    Left at their defaults, they build the byte-identical unsharded,
    unreplicated, fault-free cluster.
    """

    system: str = "redbud-delayed"
    workload: str = "xcdn-32K"
    clients: int = 7
    seed: int = 11
    duration: float = 3.0
    warmup: float = 0.25
    #: Aggregate client nodes (``None``: one node per client).
    processes: _t.Optional[int] = None
    shards: int = 1
    replication: str = "none"
    #: ``--faults`` clause text (see :class:`repro.faults.FaultSpec`).
    faults: _t.Optional[str] = None
    scheduler: _t.Optional[str] = None
    delegation_chunk: _t.Optional[int] = None
    seed_bug: str = "none"
    #: The parsed ``faults``; ``None`` when it injects nothing and
    #: carries no crash cut.
    fault_spec: _t.Optional[_t.Any] = dataclasses.field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; choose from "
                f"{', '.join(SYSTEMS)}"
            )
        if self.workload not in PRESETS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from "
                f"{', '.join(sorted(PRESETS))}"
            )
        fault_spec = None
        if self.faults:
            from repro.faults import FaultSpec

            try:
                fault_spec = FaultSpec.parse(self.faults)
            except ValueError as exc:
                raise ValueError(f"bad --faults spec: {exc}") from None
            if fault_spec.empty and fault_spec.crash_at is None:
                # Injects nothing: behaves (and traces) byte-identically
                # to a run without faults, retry machinery included.
                fault_spec = None
        object.__setattr__(self, "fault_spec", fault_spec)
        for flag, armed in (
            ("--faults", fault_spec is not None),
            ("--shards", self.shards > 1),
            ("--replication", self.replication != "none"),
            ("--seed-bug", self.seed_bug != "none"),
        ):
            if armed:
                require_redbud(self.system, flag)
        if (
            self.processes is not None
            and fault_spec is not None
            and fault_spec.client_deaths
        ):
            # client_death addresses one workload personality by index;
            # under aggregation a node hosts many personalities and that
            # indexing is meaningless.  Every other clause family
            # targets links, shards or storage members, which
            # aggregation leaves intact -- so only deaths are refused.
            death = fault_spec.client_deaths[0]
            raise ValueError(
                "--processes cannot be combined with a --faults spec "
                "containing client_death clauses (offending clause: "
                f"client_death={death.client_id}@{death.at!r}; client "
                "indexing assumes one node per client)"
            )

    @classmethod
    def from_cell(cls, cell: _t.Mapping[str, _t.Any]) -> "RunSpec":
        """The spec of one bench-harness cell (see ``FIGURE_SWEEPS``):
        its keys are field names, its ``config`` dict holds the rest."""
        fields = {k: v for k, v in cell.items() if k != "config"}
        return cls(**fields, **(cell.get("config") or {}))

    @property
    def crash_at(self) -> _t.Optional[float]:
        """The crash cut of ``faults`` (a check-harness replay), if any."""
        faults = self.fault_spec
        return faults.crash_at if faults is not None else None

    @property
    def injects(self) -> bool:
        """True when a fault injector is attached to the cluster."""
        return self.fault_spec is not None and not self.fault_spec.empty

    def build(self, obs: _t.Optional[_t.Any] = None) -> Run:
        """Assemble the cluster: config, seeded bug, then the injector."""
        config_kw: _t.Dict[str, _t.Any] = {}
        if self.injects:
            from repro.net.rpc import RetryPolicy

            config_kw["retry"] = RetryPolicy()
        if self.shards > 1:
            config_kw["shards"] = self.shards
        if self.replication != "none":
            config_kw["replication"] = self.replication
        if self.processes is not None:
            config_kw["client_processes"] = self.processes
        if self.scheduler is not None:
            config_kw["scheduler"] = self.scheduler
        if self.delegation_chunk is not None:
            config_kw["delegation_chunk"] = self.delegation_chunk
        # Looked up on the module at call time: benchmark tooling wraps
        # ``repro.fs.build_cluster`` there to time the build.
        cluster = repro.fs.build_cluster(
            self.system,
            num_clients=self.clients,
            seed=self.seed,
            obs=obs,
            **config_kw,
        )
        if self.seed_bug != "none":
            from repro.check.soak import seed_bug_tweak

            tweak = seed_bug_tweak(self.seed_bug)
            if tweak is not None:
                tweak(cluster)
        injector = None
        if self.injects:
            from repro.faults import FaultInjector

            injector = FaultInjector(cluster, self.fault_spec)
        return Run(cluster, injector)

    def run(self, obs: _t.Optional[_t.Any] = None) -> Run:
        """Build, run the workload, then stop injecting and settle."""
        built = self.build(obs)
        result = built.cluster.run_workload(
            make_workload(self.workload),
            duration=self.duration,
            warmup=self.warmup,
        )
        if built.injector is not None:
            # Post-schedule settling: stop injecting, let retries drain.
            built.injector.stop()
            built.cluster.settle()
        return dataclasses.replace(built, result=result)
