"""Figure 5: disk-seek traces under the three Redbud configurations.

The paper plots dispatched block addresses over time for 32 KB and 1 MB
xcdn runs: panels (a,b) show dense seek waves for original Redbud and
delayed commit, panel (c) "exposes few seek operations except some long
disk seeks shown as spikes" under space delegation; (d,e,f) repeat the
pattern at 1 MB with "less dense waves".

Reproduction: collect the blktrace of each run, export it alongside the
bench (``fig5_<config>_<size>.csv``), and assert on the quantities the
panels convey: write-seek fraction and sequential-run length.
"""

import os

import pytest

from benchmarks.common import REDBUD_CONFIGS, ResultBoard, run_once
from benchmarks.common import run_xcdn_cell, size_label
from repro.analysis import Table, scatter
from repro.analysis.traceio import dump_trace
from repro.storage.blktrace import BlkTrace, SeekAnalysis, placement_analysis

FILE_SIZES = [32 * 1024, 1024 * 1024]
DURATION = 2.0
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

_board = ResultBoard()


@pytest.fixture(scope="module")
def board():
    return _board


def write_analysis(trace: BlkTrace, since: float) -> SeekAnalysis:
    """Write-placement analysis from the measurement window only.

    Per-client distances between consecutive write dispatches -- the
    sequentiality the Fig. 5 panels convey -- excluding the setup-phase
    scattered seed writes.
    """
    return placement_analysis(trace, op="write", since=since)


@pytest.mark.parametrize("file_size", FILE_SIZES, ids=size_label)
@pytest.mark.parametrize("config_name", list(REDBUD_CONFIGS))
def test_fig5_cell(benchmark, board, config_name, file_size):
    def run():
        cluster, result = run_xcdn_cell(config_name, file_size, 23, DURATION)
        return cluster.blktrace, result.metrics.start_time or 0.0

    trace, measure_start = run_once(benchmark, run)
    assert len(trace) > 0
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"fig5_{config_name}_{size_label(file_size)}.csv"
    )
    dump_trace(trace, path)
    if file_size == 32 * 1024:
        # Render the panel itself: dispatched write addresses over time.
        writes = [
            r
            for r in trace.records
            if r.op == "write" and r.time >= measure_start
        ]
        print()
        print(
            scatter(
                [r.time for r in writes],
                [r.start for r in writes],
                title=(
                    f"Fig. 5 panel -- {config_name}, 32KB "
                    "(write dispatch address vs time)"
                ),
                x_label="time (s)",
                y_label="volume address",
                width=68,
                height=12,
            )
        )
    board.put(
        size_label(file_size),
        config_name,
        write_analysis(trace, measure_start),
    )


def test_fig5_report_and_shape(benchmark, board):
    run_once(benchmark, lambda: None)  # keep this report under --benchmark-only
    table = Table(
        ["panel", "config", "size", "dispatches", "seek fraction",
         "mean run len", "mean seek (MB)", "max seek (MB)"],
        title="Fig. 5 -- write-stream seek behaviour (traces in benchmarks/out/)",
    )
    panels = [
        ("a", "original", "32KB"),
        ("b", "delayed", "32KB"),
        ("c", "delegation", "32KB"),
        ("d", "original", "1024KB"),
        ("e", "delayed", "1024KB"),
        ("f", "delegation", "1024KB"),
    ]
    for panel, config, size in panels:
        a: SeekAnalysis = board.get(size, config)
        table.add_row(
            panel,
            config,
            size,
            a.dispatches,
            a.seek_fraction,
            a.mean_run_length,
            a.mean_seek_distance / 1e6,
            a.max_seek_distance / 1e6,
        )
    table.print()

    for size in ("32KB", "1024KB"):
        original = board.get(size, "original")
        delayed = board.get(size, "delayed")
        delegation = board.get(size, "delegation")
        # Delayed commit alone keeps seeking volume-wide ("no significant
        # difference between Figure 5(a) and (b)").
        assert (
            delayed.mean_seek_distance > 0.5 * original.mean_seek_distance
        )
        # The delegation panels keep occasional *long* seeks (the spikes:
        # hops to a freshly delegated chunk elsewhere on the volume).
        assert delegation.max_seek_distance > 16 * 1024 * 1024

    # Panel (c), 32 KB: delegation "exposes few seek operations except
    # some long disk seeks shown as spikes" -- near-sequential dispatch
    # with collapsed amplitude.
    c = board.get("32KB", "delegation")
    a = board.get("32KB", "original")
    assert c.mean_seek_distance < 0.15 * a.mean_seek_distance, (
        f"32KB: delegation hop {c.mean_seek_distance:.0f} vs original "
        f"{a.mean_seek_distance:.0f}"
    )
    assert c.seek_fraction < 0.5
    assert c.mean_run_length > 2.0

    # Panel (f), 1 MB: delegation shows "less dense waves" -- the waves
    # remain (chunks turn over every 16 files) but their amplitude and
    # density drop relative to original.
    f = board.get("1024KB", "delegation")
    d = board.get("1024KB", "original")
    assert f.mean_seek_distance < 0.85 * d.mean_seek_distance
