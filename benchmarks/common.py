"""Shared helpers for the benchmark harness.

Every ``bench_fig*.py`` module reproduces one table or figure of the
paper: it runs the simulation, prints the same rows/series the paper
reports (via :class:`repro.analysis.Table`), and asserts the *shape*
claims from DESIGN.md §4.  ``pytest-benchmark`` wraps each simulation in
``pedantic(rounds=1)`` -- the interesting output is the virtual-time
measurement, not host wall time, so repetition adds nothing.
"""

from __future__ import annotations

import typing as _t

from repro.fs import ClusterConfig, RedbudCluster
from repro.workloads import XcdnWorkload

#: The three Redbud configurations Figs. 4 and 5 compare.
REDBUD_CONFIGS = {
    "original": ClusterConfig.original_redbud,
    "delayed": ClusterConfig.delayed_commit,
    "delegation": ClusterConfig.space_delegation_config,
}


def size_label(size: int) -> str:
    return f"{size // 1024}KB"


def run_xcdn_cell(
    config_name: str, file_size: int, seed: int, duration: float
) -> _t.Tuple[RedbudCluster, _t.Any]:
    """One Figs. 4/5 cell: 7 clients of 8-thread xcdn at ``file_size``
    (at least 256 KiB seeded per client) on a ``REDBUD_CONFIGS`` entry."""
    cluster = RedbudCluster(
        REDBUD_CONFIGS[config_name](num_clients=7), seed=seed
    )
    workload = XcdnWorkload(
        file_size=file_size,
        seed_files_per_client=max(6, (256 * 1024) // file_size),
        threads_per_client=8,
    )
    return cluster, cluster.run_workload(
        workload, duration=duration, warmup=0.3
    )


BENCH_KW = dict(rounds=1, iterations=1, warmup_rounds=0)


def run_once(benchmark, fn: _t.Callable[[], _t.Any]) -> _t.Any:
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, **BENCH_KW)


class ResultBoard:
    """Accumulates per-cell results across parametrised bench cases.

    The last test of a module calls :meth:`render` to print the
    assembled paper table.
    """

    def __init__(self) -> None:
        self.cells: _t.Dict[_t.Tuple[str, str], _t.Any] = {}

    def put(self, row: str, col: str, value: _t.Any) -> None:
        self.cells[(row, col)] = value

    def get(self, row: str, col: str) -> _t.Any:
        return self.cells[(row, col)]

    def has(self, row: str, col: str) -> bool:
        return (row, col) in self.cells

    def rows(self) -> _t.List[str]:
        seen: _t.List[str] = []
        for row, _ in self.cells:
            if row not in seen:
                seen.append(row)
        return seen

    def cols(self) -> _t.List[str]:
        seen: _t.List[str] = []
        for _, col in self.cells:
            if col not in seen:
                seen.append(col)
        return seen
