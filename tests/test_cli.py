"""Tests for the command-line interface."""

import argparse
import hashlib
import json

import pytest

from repro.cli import build_parser, main
from repro.runspec import PRESETS, RunSpec, make_workload


def test_parser_builds_and_validates():
    parser = build_parser()
    args = parser.parse_args(
        ["run", "--system", "nfs3", "--workload", "varmail"]
    )
    assert args.system == "nfs3"
    assert args.workload == "varmail"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--system", "gfs"])
    with pytest.raises(SystemExit):
        parser.parse_args([])


def _cli_workload_choices():
    (verbs,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        choice
        for verb in verbs.choices.values()
        for action in verb._actions
        if action.dest == "workload"
        for choice in action.choices
    }


def test_all_workload_factories_construct():
    """Every workload the figure sweeps, the fig3/fig6 benches and the
    CLI name is an entry of the one preset table, and constructs."""
    from benchmarks import bench_fig3_overall, bench_fig6_threads
    from benchmarks.harness import FIGURE_SWEEPS

    named = {cell["workload"] for cells in FIGURE_SWEEPS.values()
             for cell in cells}
    named |= set(bench_fig3_overall.WORKLOADS)
    named |= set(bench_fig6_threads.WORKLOADS)
    named |= _cli_workload_choices()
    assert named <= set(PRESETS), named - set(PRESETS)
    for name in sorted(named | set(PRESETS)):
        workload = make_workload(name)
        assert workload.threads_per_client >= 1, name


REDBUD_ONLY = {
    "faults": ("loss=0.1", "--faults"),
    "shards": (2, "--shards"),
    "replication": ("mirror3", "--replication"),
    "seed_bug": ("dedup", "--seed-bug"),
}


@pytest.mark.parametrize("system", ["pvfs2", "nfs3"])
@pytest.mark.parametrize("field", sorted(REDBUD_ONLY))
def test_runspec_rejects_redbud_only_fields(capsys, system, field):
    value, flag = REDBUD_ONLY[field]
    with pytest.raises(ValueError, match=f"^{flag} supports the redbud"):
        RunSpec(system=system, **{field: value})
    RunSpec(system="redbud-delayed", **{field: value})
    code = main(["run", "--system", system, flag, str(value)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {flag} supports the redbud systems only\n"
    )


@pytest.mark.parametrize(
    "argv, long_step",
    [
        (["slo", "--duration", "0.2"], "repro.runspec.RunSpec.run"),
        (["check", "--budget", "2"], "repro.check.explore"),
    ],
    ids=["slo", "check"],
)
def test_missing_output_directory_fails_before_the_run(
    capsys, monkeypatch, tmp_path, argv, long_step
):
    # Before the fix the whole run was simulated and then open() raised,
    # exiting 1 -- the same code as "violation found".
    def never(*_args, **_kwargs):
        raise AssertionError("ran before validating --out")

    monkeypatch.setattr(long_step, never)
    out = tmp_path / "missing" / "report.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--out output directory does not exist: {out.parent}" in err


#: sha256 of the stdout of ``repro run --clients 3 --duration 0.6
#: --shards 2 --replication mirror3 --faults 'loss=0.05,mds_restart@0.3:0.1'
#: --check --json``, recorded before the verbs moved onto RunSpec: faults,
#: shards, replication and the checker together through the CLI.
ARMED_RUN_DIGEST = (
    "bf4653fdb4f69f6173004eb2de0886b77cecc861a855b544e89109b51094c6f3"
)


def test_armed_run_cli_golden(capsys):
    code = main(
        [
            "run", "--clients", "3", "--duration", "0.6",
            "--shards", "2", "--replication", "mirror3",
            "--faults", "loss=0.05,mds_restart@0.3:0.1",
            "--check", "--json",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ARMED_RUN_DIGEST


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "bench_fig4_merge_ratio.py" in out


def test_run_command_small(capsys):
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ops/s" in out
    assert "merge_ratio" in out


def test_run_command_json(capsys):
    code = main(
        [
            "run",
            "--system",
            "nfs3",
            "--workload",
            "varmail",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"] == "nfs3"
    assert payload["workload"] == "varmail"
    assert payload["ops_completed"] > 0
    assert payload["latency"]["p95"] >= payload["latency"]["p50"]
    assert all(
        isinstance(v, (int, float, str, bool))
        for v in payload["extras"].values()
    )


def test_run_command_with_trace(capsys, tmp_path):
    trace_path = str(tmp_path / "run-trace.json")
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--trace",
            trace_path,
        ]
    )
    assert code == 0
    with open(trace_path) as fh:
        trace = json.load(fh)
    assert any(
        e.get("name") == "commit_queued" for e in trace["traceEvents"]
    )


def test_trace_command_produces_complete_chains(capsys, tmp_path):
    out_path = str(tmp_path / "trace.json")
    code = main(
        [
            "trace",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--out",
            out_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "complete enqueue->dispatch chains" in out
    with open(out_path) as fh:
        trace = json.load(fh)
    names = {e.get("name") for e in trace["traceEvents"]}
    for stage in (
        "commit_queued",
        "compound_assembly",
        "rpc:commit",
        "mds_handle",
        "disk_dispatch",
    ):
        assert stage in names, stage


def test_trace_command_jsonl_format(tmp_path):
    out_path = str(tmp_path / "trace.jsonl")
    code = main(
        [
            "trace",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--out",
            out_path,
            "--format",
            "jsonl",
        ]
    )
    assert code == 0
    with open(out_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    assert records
    assert {r["type"] for r in records} <= {"span", "instant"}


def test_stats_command(capsys):
    code = main(
        [
            "stats",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for name in (
        "commit_queue.depth",
        "elevator.merge_ratio",
        "mds.utilization",
        "commit.compound_degree",
    ):
        assert name in out


def test_stats_command_json(capsys):
    code = main(
        [
            "stats",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--json",
        ]
    )
    assert code == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["commit.rpcs"] > 0
    assert snap["commit.compound_degree"]["count"] > 0


def test_crash_command_delayed_consistent(capsys):
    code = main(
        [
            "crash",
            "--mode",
            "delayed",
            "--clients",
            "2",
            "--workload",
            "xcdn-32K",
            "--at",
            "0.15",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "CONSISTENT" in out
    assert "recovery reclaimed" in out


def test_run_command_with_aggregate_processes(capsys):
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "6",
            "--processes",
            "2",
            "--duration",
            "0.4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ops/s" in out


def test_run_command_scheduler_choice(capsys):
    for scheduler in ("heap", "calendar"):
        code = main(
            [
                "run",
                "--system",
                "redbud-delayed",
                "--workload",
                "xcdn-32K",
                "--clients",
                "2",
                "--duration",
                "0.3",
                "--scheduler",
                scheduler,
            ]
        )
        assert code == 0
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["run", "--system", "nfs3", "--scheduler", "splay"]
        )


def test_processes_rejects_only_client_death_faults(capsys):
    # client_death addresses one workload personality by index, which
    # aggregation makes meaningless -- the error names the clause.
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "4",
            "--processes",
            "2",
            "--faults",
            "loss=0.05,client_death=3@0.1",
            "--duration",
            "0.2",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "client_death clauses" in err
    assert "client_death=3@0.1" in err


def test_processes_allows_faults_without_client_death(capsys):
    # Link/MDS-level faults survive aggregation: every other clause
    # family targets links, shards, or storage members.
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "4",
            "--processes",
            "2",
            "--faults",
            "loss=0.02,mds_restart@0.1:0.05",
            "--duration",
            "0.3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fault summary" in out
