"""Command-line interface: ``python -m repro <command>``.

Every simulation verb (``run``, ``compare``, ``trace``, ``stats``,
``slo``) is a thin adapter: its options become one
:class:`repro.runspec.RunSpec`, which assembles and runs the cluster.
``python -m repro --help`` lists the verbs and ``python -m repro <verb>
--help`` their options; options shared by several verbs are declared
once, in ``_OPTIONS``.

Examples
--------
::

    python -m repro run --system redbud-delayed --workload xcdn-32K
    python -m repro run --system nfs3 --json
    python -m repro run --faults 'loss=0.1,mds_restart@0.5:0.2' --check
    python -m repro compare --workload varmail --duration 3
    python -m repro trace --system redbud-delayed --out t.json
    python -m repro stats --system redbud-delayed --workload varmail
    python -m repro slo --systems redbud-delayed,nfs3 \
        --slo 'write:p99<=0.05,*:p999<=0.5'
    python -m repro slo --systems redbud-delayed --shards 2 \
        --faults 'mds_restart@0.5:0.2' --timeline --trace slo.json
    python -m repro crash --at 0.4 --mode unordered
    python -m repro check --budget 200 --seed 0 --out check.json
    python -m repro soak --hours 2 --seed 0 --out soak.jsonl
    python -m repro bench --figure fig3 --seeds 8
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import sys
import typing as _t

from repro.analysis import Table
from repro.consistency import (
    check_ordered_writes,
    crash_cluster,
    fsck,
    recover,
)
from repro.fs.factory import SYSTEMS
from repro.runspec import PRESETS, RunSpec, make_workload, require_redbud
from repro.util import fmt_rate, fmt_time

FIGURES = {
    "fig1": "benchmarks/bench_fig1_overlap.py -- computing/I-O overlap",
    "fig3": "benchmarks/bench_fig3_overall.py -- 4 systems x 5 workloads",
    "fig4": "benchmarks/bench_fig4_merge_ratio.py -- I/O merge ratios",
    "fig5": "benchmarks/bench_fig5_seeks.py -- seek traces",
    "fig6": "benchmarks/bench_fig6_threads.py -- adaptive thread pool",
    "fig7": "benchmarks/bench_fig7_compound.py -- compound degree x daemons",
    "ablations": "benchmarks/bench_ablations.py -- design-knob ablations",
}


class UsageError(Exception):
    """A bad option combination: ``main`` prints it and exits 2."""


def _run_spec(args: argparse.Namespace, **overrides: _t.Any) -> RunSpec:
    """The :class:`RunSpec` a sim verb's options describe.

    Option dests match the spec's field names, so every verb hands over
    whichever of them it declares; the rest keep their defaults.
    """
    kw = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunSpec)
        if f.init and hasattr(args, f.name)
    }
    kw.update(overrides)
    try:
        return RunSpec(**kw)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _result_dict(result: _t.Any) -> _t.Dict[str, _t.Any]:
    latency = result.latency()
    return {
        "system": result.system,
        "workload": result.workload,
        "duration": result.duration,
        "ops_completed": result.ops_completed,
        "ops_per_second": result.ops_per_second,
        "bytes_per_second": result.bytes_per_second,
        "latency": latency.as_dict(),
        # JSON-friendly scalars only (drop objects/samples).
        "extras": {
            k: v
            for k, v in result.extras.items()
            if isinstance(v, (int, float, str, bool))
        },
    }


def _shard_table(result: _t.Any, counts: _t.List[str], title: str) -> None:
    """Print the per-metadata-shard rows of a sharded run, if any."""
    per_shard = result.extras.get("mds_per_shard")
    if not per_shard:
        return
    tails = ["svc_p50", "svc_p99", "svc_p999"]
    table = Table(["shard", *counts, *tails], title=title)
    for row in per_shard:
        table.add_row(
            row["shard"],
            *(row[c] for c in counts),
            *(fmt_time(row[q]) for q in tails),
        )
    table.print()


def _settle(cluster: _t.Any) -> None:
    """Let in-flight background commits land so trace chains complete."""
    if hasattr(cluster, "settle"):
        cluster.settle()


def _trace_path(path: str, system: str) -> str:
    """``t.json`` + ``nfs3`` -> ``t-nfs3.json`` (for compare --trace)."""
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}-{system}"
    return f"{stem}-{system}.{ext}"


def _check_writable(path: _t.Optional[str], flag: str) -> None:
    """Fail before the (long) simulation, not at export time."""
    parent = os.path.dirname(path or "") or "."
    if path and not os.path.isdir(parent):
        raise UsageError(f"{flag} output directory does not exist: {parent}")


def _write_json(path: str, payload: _t.Any, what: str, indent: int = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True)
    print(f"wrote {what} to {path}", file=sys.stderr)


def _build_obs(args: argparse.Namespace) -> _t.Optional[_t.Any]:
    if not args.trace:
        return None
    from repro.obs import Instrumentation

    return Instrumentation()


def _parse_slo(text: _t.Optional[str]) -> _t.Any:
    """Parse ``--slo`` (``None`` when not given)."""
    if not text:
        return None
    from repro.obs import SloSpec

    try:
        return SloSpec.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad --slo spec: {exc}") from None


def _evaluate_slo(
    spec: _t.Any, result: _t.Any, obs: _t.Optional[_t.Any]
) -> _t.Tuple[_t.List[_t.Any], _t.FrozenSet[int]]:
    """Judge ``spec`` against a run, fault-excusing traced windows."""
    from repro.obs import Timeline

    tracer = obs.tracer if obs is not None else None
    timeline = Timeline.build(result.metrics, tracer)
    excused = timeline.fault_window_indexes
    return spec.evaluate(result.metrics, excused), excused


def _print_verdict(verdict: _t.Any) -> None:
    for line in verdict.summaries:
        print(f"check: {line}")
    for kind, detail in verdict.violations:
        print(f"check VIOLATION [{kind}]: {detail}")


def _replay_crash(spec: RunSpec) -> int:
    """Replay a crash-cut schedule (e.g. a shrunken counterexample from
    `repro check`) through the check harness, which drives the
    deterministic check workload, pulls the plug at the requested
    instant, and judges recovery against the full invariant suite."""
    from repro.check import run_schedule

    outcome = run_schedule(
        spec.fault_spec, seed=spec.seed, clients=spec.clients,
        shards=spec.shards, replication=spec.replication,
    )
    print(
        f"crash schedule {spec.fault_spec.serialize()!r} replayed on the "
        f"check harness (seed={spec.seed}, clients={spec.clients}, "
        f"shards={spec.shards}, replication={spec.replication})"
    )
    _print_verdict(outcome.verdict)
    print("PASS" if outcome.verdict.ok else "FAIL")
    return 0 if outcome.verdict.ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    _check_writable(args.trace, "--trace")
    slo_spec = _parse_slo(args.slo)
    spec = _run_spec(args)
    if args.check:
        try:
            require_redbud(spec.system, "--check")
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if spec.crash_at is not None:
        return _replay_crash(spec)
    obs = _build_obs(args)
    done = spec.run(obs)
    cluster, injector, result = done.cluster, done.injector, done.result
    check_verdict = None
    if args.check:
        from repro.check import judge_converged, judge_live

        if injector is None:
            _settle(cluster)
        check_verdict = judge_live(cluster)
        # Liveness side: after settling, clients must be back on the
        # delayed path, GC running, witnesses draining -- the oracle a
        # shrunk soak counterexample fails on replay.
        converged = judge_converged(cluster)
        for kind, detail in converged.violations:
            check_verdict.add(kind, detail)
        check_verdict.summaries.extend(converged.summaries)
    if obs is not None:
        from repro.obs import write_chrome_trace

        _settle(cluster)
        count = write_chrome_trace(obs.tracer, args.trace)
        print(
            f"wrote {count} trace events to {args.trace}", file=sys.stderr
        )
    slo_results: _t.List[_t.Any] = []
    slo_excused: _t.FrozenSet[int] = frozenset()
    if slo_spec is not None:
        slo_results, slo_excused = _evaluate_slo(slo_spec, result, obs)
    slo_ok = all(r.passed for r in slo_results)
    check_ok = check_verdict is None or check_verdict.ok
    if args.json:
        payload = _result_dict(result)
        if "mds_per_shard" in result.extras:
            # Per-shard breakdown is a list of dicts, which the scalar
            # filter drops; it is JSON-friendly, so carry it through.
            payload["extras"]["mds_per_shard"] = result.extras[
                "mds_per_shard"
            ]
        if injector is not None:
            payload["faults"] = injector.summary()
        if check_verdict is not None:
            payload["check"] = check_verdict.as_dict()
        if slo_spec is not None:
            payload["slo"] = {
                "spec": slo_spec.describe(),
                "excused_windows": sorted(slo_excused),
                "results": [r.as_dict() for r in slo_results],
                "ok": slo_ok,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if check_ok and slo_ok else 1
    table = Table(
        ["metric", "value"],
        title=f"{spec.system} / {spec.workload} "
        f"({spec.clients} clients, {spec.duration:.1f}s virtual)",
    )
    table.add_row("ops completed", result.ops_completed)
    table.add_row("ops/s", result.ops_per_second)
    table.add_row("throughput", fmt_rate(result.bytes_per_second))
    table.add_row("mean op latency", fmt_time(result.latency().mean))
    table.add_row("p95 op latency", fmt_time(result.latency().p95))
    for key in ("merge_ratio", "array_utilization", "mean_compound_degree"):
        if key in result.extras:
            table.add_row(key, result.extras[key])
    table.print()
    for op in result.metrics.op_types():
        stats = result.latency(op)
        print(
            f"  {op:>12}: n={stats.count:<7} mean={fmt_time(stats.mean)} "
            f"p95={fmt_time(stats.p95)} p99={fmt_time(stats.p99)} "
            f"p999={fmt_time(stats.p999)}"
        )
    _shard_table(
        result, ["mds_requests", "mds_ops", "files", "free_bytes"],
        "metadata shards",
    )
    if injector is not None:
        fault_table = Table(["fault metric", "value"], title="fault summary")
        for key, value in injector.summary().items():
            fault_table.add_row(key, value)
        for key in (
            "rpc_retries",
            "rpc_timeouts",
            "degraded_writes",
            "duplicate_commits_suppressed",
            "lease_gc_bytes_reclaimed",
        ):
            if key in result.extras:
                fault_table.add_row(key, result.extras[key])
        fault_table.print()
    if slo_spec is not None:
        from repro.obs import slo_table

        slo_table(
            slo_results,
            title=f"SLO: {spec.system}",
            excused_windows=len(slo_excused),
        ).print()
    if check_verdict is not None:
        _print_verdict(check_verdict)
    return 0 if check_ok and slo_ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    _check_writable(args.trace, "--trace")
    slo_spec = _parse_slo(args.slo)
    # NPB's op granularity differs per system, so compare its bytes/s.
    npb = args.workload.startswith("npb")
    metric = operator.attrgetter(
        "bytes_per_second" if npb else "ops_per_second"
    )
    results = {}
    slo_verdicts: _t.Dict[str, _t.List[_t.Any]] = {}
    for system in SYSTEMS:
        obs = _build_obs(args)
        done = _run_spec(args, system=system).run(obs)
        results[system] = done.result
        if slo_spec is not None:
            slo_verdicts[system], _ = _evaluate_slo(
                slo_spec, results[system], obs
            )
        if obs is not None:
            from repro.obs import write_chrome_trace

            _settle(done.cluster)
            path = _trace_path(args.trace, system)
            count = write_chrome_trace(obs.tracer, path)
            print(
                f"  {system}: done ({count} trace events -> {path})",
                file=sys.stderr,
            )
        else:
            print(f"  {system}: done", file=sys.stderr)
    base = metric(results["redbud-original"])
    slo_ok = all(
        r.passed for verdicts in slo_verdicts.values() for r in verdicts
    )
    if args.json:
        payload = {
            "workload": args.workload,
            "baseline": "redbud-original",
            "systems": {
                system: dict(
                    _result_dict(r),
                    normalised=metric(r) / base if base else 0.0,
                )
                for system, r in results.items()
            },
        }
        if slo_spec is not None:
            payload["slo"] = {
                "spec": slo_spec.describe(),
                "ok": slo_ok,
                "systems": {
                    system: [r.as_dict() for r in verdicts]
                    for system, verdicts in slo_verdicts.items()
                },
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if slo_ok else 1
    table = Table(
        ["system", "ops/s", "throughput", "normalised"],
        title=f"{args.workload}: all systems (normalised to original Redbud)",
    )
    for system in SYSTEMS:
        r = results[system]
        table.add_row(
            system,
            r.ops_per_second,
            fmt_rate(r.bytes_per_second),
            metric(r) / base if base else 0.0,
        )
    table.print()
    if slo_spec is not None:
        from repro.obs import slo_table

        for system in SYSTEMS:
            slo_table(
                slo_verdicts[system], title=f"SLO: {system}"
            ).print()
    return 0 if slo_ok else 1


def _instrumented_run(args: argparse.Namespace) -> _t.Tuple[RunSpec, _t.Any]:
    """Run with tracing and metrics on, then let background daemons
    drain so in-flight updates finish their enqueue->dispatch chains."""
    from repro.obs import Instrumentation

    spec = _run_spec(args)
    obs = Instrumentation()
    _settle(spec.run(obs).cluster)
    return spec, obs


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        complete_chains,
        trace_summary,
        write_chrome_trace,
        write_jsonl,
    )

    _check_writable(args.out, "--out")
    spec, obs = _instrumented_run(args)
    if args.format == "chrome":
        count = write_chrome_trace(obs.tracer, args.out)
    else:
        count = write_jsonl(obs.tracer, args.out)
    print(trace_summary(obs.tracer))
    print(f"wrote {count} {args.format} records to {args.out}")
    # A delayed-commit run that produced no complete causal chain means
    # the instrumentation broke; flag it.
    if spec.system == "redbud-delayed" and not complete_chains(obs.tracer):
        return 1
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import stats_table

    spec, obs = _instrumented_run(args)
    if args.json:
        print(
            json.dumps(obs.registry.snapshot(), indent=2, sort_keys=True)
        )
        return 0
    stats_table(
        obs.registry,
        title=f"{spec.system} / {spec.workload} metrics",
    ).print()
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs import (
        Instrumentation,
        Timeline,
        critical_path_table,
        decompose_updates,
        slo_table,
        timeline_counter_events,
        write_chrome_trace,
    )

    _check_writable(args.trace, "--trace")
    _check_writable(args.out, "--out")
    spec = _parse_slo(args.slo)
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    runs = [_run_spec(args, system=system) for system in systems]
    if any(run_spec.crash_at is not None for run_spec in runs):
        raise UsageError("crash@T schedules belong to `repro run --check`")

    violated = False
    report: _t.Dict[str, _t.Any] = {
        "workload": args.workload,
        "clients": args.clients,
        "seed": args.seed,
        "duration": args.duration,
        "slo": spec.describe() if spec is not None else None,
        "faults": args.faults or None,
        "shards": args.shards,
        "systems": {},
    }
    for run_spec in runs:
        system = run_spec.system
        obs = Instrumentation()
        done = run_spec.run(obs)
        result, injector = done.result, done.injector
        if injector is None:
            _settle(done.cluster)

        breakdowns = decompose_updates(obs.tracer)
        timeline = Timeline.build(result.metrics, obs.tracer, breakdowns)
        excused = timeline.fault_window_indexes
        verdicts = (
            spec.evaluate(result.metrics, excused)
            if spec is not None
            else []
        )
        violated |= any(not r.passed for r in verdicts)

        entry: _t.Dict[str, _t.Any] = {
            "result": _result_dict(result),
            "per_op": {
                op: result.latency(op).as_dict()
                for op in result.metrics.op_types()
            },
            "excused_windows": sorted(excused),
            "slo": [r.as_dict() for r in verdicts],
            "critical_path_updates": len(breakdowns),
            "timeline": timeline.as_dicts(),
        }
        if injector is not None:
            entry["fault_summary"] = injector.summary()
        report["systems"][system] = entry

        if not args.json:
            tails = Table(
                ["op", "n", "p50", "p99", "p999", "max"],
                title=f"{system} / {args.workload}: op latency tails",
            )
            for op in result.metrics.op_types():
                stats = result.latency(op)
                tails.add_row(
                    op,
                    stats.count,
                    fmt_time(stats.p50),
                    fmt_time(stats.p99),
                    fmt_time(stats.p999),
                    fmt_time(stats.max),
                )
            tails.print()
            _shard_table(
                result, [], f"{system}: metadata shard service tails"
            )
            if breakdowns:
                critical_path_table(
                    breakdowns,
                    title=f"{system}: critical path, slowest decile "
                    "vs median cohort",
                ).print()
            if spec is not None:
                slo_table(
                    verdicts,
                    title=f"SLO: {system}",
                    excused_windows=len(excused),
                ).print()
            if args.timeline:
                timeline.table(title=f"{system} timeline").print()
        if args.trace:
            path = (
                _trace_path(args.trace, system)
                if len(systems) > 1
                else args.trace
            )
            count = write_chrome_trace(
                obs.tracer,
                path,
                extra_events=timeline_counter_events(timeline),
            )
            print(
                f"wrote {count} trace events (incl. SLO counter "
                f"tracks) to {path}",
                file=sys.stderr,
            )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, report, "SLO report")
    return 1 if violated else 0


def _load_harness() -> _t.Any:
    """Import ``benchmarks.harness``, tolerating source-tree layouts.

    The benchmarks directory sits next to ``src/`` rather than inside
    the package, so running from an installed ``repro`` needs the repo
    root pushed onto ``sys.path`` first.
    """
    try:
        from benchmarks import harness
    except ImportError:
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        if not (root / "benchmarks" / "harness.py").is_file():
            raise
        sys.path.insert(0, str(root))
        from benchmarks import harness
    return harness


def cmd_bench(args: argparse.Namespace) -> int:
    return _load_harness().run_from_args(args)


def cmd_figures(_args: argparse.Namespace) -> int:
    table = Table(["figure", "bench"], title="Paper figures -> benches")
    for fig, bench in FIGURES.items():
        table.add_row(fig, bench)
    table.print()
    print("\nRun one with: pytest <bench file> --benchmark-only -s")
    return 0


def cmd_crash(args: argparse.Namespace) -> int:
    from repro.check.explorer import workload_contexts
    from repro.fs import ClusterConfig, RedbudCluster

    config = ClusterConfig(
        num_clients=args.clients,
        commit_mode=args.mode,
        space_delegation=(args.mode != "synchronous"),
    )
    cluster = RedbudCluster(config, seed=args.seed)
    env = cluster.env
    workload = make_workload(args.workload)
    contexts = workload_contexts(cluster)
    setups = [env.process(workload.setup(ctx)) for ctx in contexts]
    env.run(until=env.all_of(setups))

    def forever(ctx, tid):
        while True:
            yield from workload.op(ctx, tid)

    for ctx in contexts:
        for tid in range(workload.threads_per_client):
            env.process(forever(ctx, tid))

    state = crash_cluster(cluster, at_time=env.now + args.at)
    print(
        f"crash at t={state.crash_time:.3f}s: lost "
        f"{state.lost_commit_records} commit records, "
        f"{state.lost_block_requests} in-flight block writes"
    )
    report = check_ordered_writes(
        state.namespace, state.stable, state.space
    )
    print(report.summary())
    for violation in report.violations[:5]:
        print(f"  - {violation.detail}")
    recovery = recover(state)
    print(
        f"recovery reclaimed {recovery.orphan_bytes_reclaimed} orphan "
        f"bytes; post-GC: {recovery.post_check.summary()}"
    )
    print(fsck(state.namespace, state.space).summary())
    return 0 if recovery.recovered_consistent else 1


def cmd_check(args: argparse.Namespace) -> int:
    from repro.check import explore
    from repro.check.soak import seed_bug_tweak

    _check_writable(args.out, "--out")
    # Self-test hook: plant a deliberate bug (e.g. disable the MDS's
    # durable commit dedup table) and prove the checker finds it and
    # shrinks it to a minimal replayable schedule.
    tweak = seed_bug_tweak(args.seed_bug)
    report = explore(
        budget=args.budget,
        seed=args.seed,
        clients=args.clients,
        mode=args.mode,
        shards=args.shards,
        replication=args.replication,
        tweak=tweak,
        max_counterexamples=args.max_counterexamples,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    payload = report.as_dict()
    if args.out:
        _write_json(args.out, payload, "report")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary())
        cov = report.coverage
        print(
            f"coverage: {len(cov['covered'])}/{len(cov['universe'])} "
            f"transition points"
            + (f" (missed: {', '.join(cov['missed'])})" if cov["missed"]
               else "")
        )
        for schedule in report.schedules:
            if not schedule["ok"]:
                print(
                    f"FAIL [{schedule['kind']}] {schedule['describe']} "
                    f"-> {', '.join(schedule['violation_kinds'])}"
                )
        for ce in report.counterexamples:
            d = ce.as_dict()
            print(
                f"counterexample ({d['minimal_clauses']} clauses, "
                f"{', '.join(d['kinds'])}): {d['minimal']}"
            )
            print(f"  replay: {d['replay']}")
        if args.seed_bug != "none" and report.counterexamples:
            print(
                f"note: schedules fail only with the seeded bug "
                f"({args.seed_bug}); the replay commands PASS on the "
                f"healthy system"
            )
    return 0 if report.ok else 1


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.check.soak import run_soak

    if args.hours <= 0:
        raise UsageError("--hours must be positive")
    _check_writable(args.out, "--out")
    out_fh = open(args.out, "w", encoding="utf-8") if args.out else None

    def emit(payload: _t.Dict[str, _t.Any]) -> None:
        line = json.dumps(payload, sort_keys=True)
        if out_fh is not None:
            out_fh.write(line + "\n")
            out_fh.flush()
        if args.json:
            print(line)

    try:
        report = run_soak(
            args.hours,
            seed=args.seed,
            intensity=args.intensity,
            clients=args.clients,
            shards=args.shards,
            replication=args.replication,
            scheduler=args.scheduler,
            seed_bug=args.seed_bug,
            emit=emit,
        )
    finally:
        if out_fh is not None:
            out_fh.close()
    if args.out:
        print(f"wrote JSONL report to {args.out}", file=sys.stderr)
    if not args.json:
        print(report.summary())
        for violation in report.violations:
            tag = (
                f"excused by faults {violation.excused_by}"
                if violation.excused
                else "UNEXCUSED"
            )
            print(
                f"  t={violation.time:.3f} [{violation.source}/"
                f"{violation.kind}] {violation.detail} -- {tag}"
            )
        if report.counterexample is not None:
            ce = report.counterexample
            print(f"counterexample window: {ce['schedule']}")
            if ce["minimal"] is not None:
                print(f"  minimal: {ce['minimal']}")
                print(f"  replay: {ce['replay']}")
            else:
                print(
                    "  (window did not reproduce on the short-horizon "
                    "harness; see the JSONL timeline)"
                )
        print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot a live sharded metadata cluster: one process per shard."""
    import subprocess

    os.makedirs(args.data_dir, exist_ok=True)
    children: _t.List[subprocess.Popen] = []
    addresses: _t.List[_t.List[_t.Any]] = []
    try:
        for shard in range(args.shards):
            cmd = [
                sys.executable, "-m", "repro", "serve-shard",
                "--shard", str(shard), "--port", "0",
            ]
            for flag in _SHARD_FLAGS:
                cmd += [flag, str(getattr(args, _dest(flag)))]
            children.append(
                subprocess.Popen(
                    cmd,
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            )
        for shard, child in enumerate(children):
            assert child.stdout is not None
            while True:
                line = child.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"shard {shard} exited before READY "
                        f"(rc={child.poll()})"
                    )
                line = line.strip()
                if line.startswith("READY "):
                    fields = dict(
                        part.split("=", 1)
                        for part in line.split()[1:]
                    )
                    addresses.append(
                        ["127.0.0.1", int(fields["port"])]
                    )
                    print(line, flush=True)
                    break
        cluster = {
            "addresses": addresses,
            "shards": args.shards,
            "volume_size": args.volume_size,
        }
        cluster_path = os.path.join(args.data_dir, "cluster.json")
        with open(cluster_path, "w") as handle:
            json.dump(cluster, handle, indent=1)
        print(f"cluster up: {cluster_path}", flush=True)
        # Run until the shards exit (a `repro smoke` shutdown) or ^C.
        for child in children:
            child.wait()
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        for child in children:
            if child.poll() is None:
                child.terminate()
        for child in children:
            try:
                child.wait(timeout=5)
            except Exception:
                child.kill()


def cmd_serve_shard(args: argparse.Namespace) -> int:
    """Internal: run one metadata shard process (used by ``serve``)."""
    import asyncio

    from repro.rt.server import ShardConfig, serve_shard

    config = ShardConfig(
        shard=args.shard,
        shards=args.shards,
        data_dir=args.data_dir,
        port=args.port,
        volume_size=args.volume_size,
        num_daemons=args.daemons,
        drop_every=args.drop_every,
    )

    def ready(port: int) -> None:
        print(f"READY shard={args.shard} port={port}", flush=True)

    asyncio.run(serve_shard(config, ready=ready))
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    """Drive a workload against a live cluster and audit its state."""
    import asyncio

    from repro.rt.smoke import SmokeConfig, run_smoke

    _check_writable(args.report, "--report")
    cluster_path = os.path.join(args.data_dir, "cluster.json")
    try:
        with open(cluster_path) as handle:
            cluster = json.load(handle)
    except FileNotFoundError:
        raise UsageError(
            f"{cluster_path} not found -- is `repro serve` "
            "running with this --data-dir?"
        ) from None
    config = SmokeConfig(
        addresses=[(host, port) for host, port in cluster["addresses"]],
        data_dir=args.data_dir,
        shards=cluster["shards"],
        volume_size=cluster["volume_size"],
        clients=args.clients,
        files_per_client=args.files,
        file_size=args.file_size,
        seed=args.seed,
        timeout=args.timeout,
    )
    report = asyncio.run(run_smoke(config))
    if args.report:
        _write_json(args.report, report, "smoke report", indent=1)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(
            f"smoke: {config.clients} clients x {config.files_per_client} "
            f"files over {config.shards} shard(s): "
            f"{report['files_persisted']} files persisted, "
            f"{report['committed_bytes']} bytes committed"
        )
        for name, violations in sorted(report["oracles"].items()):
            state = "ok" if not violations else f"{len(violations)} violations"
            print(f"  oracle {name}: {state}")
            for detail in violations[:5]:
                print(f"    {detail}")
        print("PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


_SEED_BUGS = ("none", "dedup", "degrade")

#: Options several verbs share, declared once: flag -> ``add_argument``
#: keywords.  :func:`_add_options` attaches them verb by verb.
_OPTIONS: _t.Dict[str, _t.Dict[str, _t.Any]] = {
    "--system": {"choices": SYSTEMS, "default": "redbud-delayed"},
    "--json": {
        "action": "store_true",
        "help": "print the result as JSON (soak: the JSONL timeline)",
    },
    "--out": {"metavar": "PATH", "help": "also write the report here"},
    "--trace": {
        "metavar": "PATH",
        "help": "also record a causal trace (Chrome trace_event JSON, "
        "Perfetto-loadable; the system name is suffixed to the path "
        "when several systems run)",
    },
    "--slo": {
        "metavar": "SPEC",
        "default": None,
        "help": "judge the run against SLO rules '[op:]metric<=seconds' "
        "(comma-separated, e.g. 'write:p99<=0.05,*:p999<=0.5'; metrics "
        "p50 p90 p95 p99 p999 mean max); exit nonzero on violation. "
        "Traced fault-active windows are excused",
    },
    "--shards": {
        "type": int,
        "default": 1,
        "help": "metadata shards (redbud systems only; default "
        "%(default)s, which is byte-identical to the single MDS). Under "
        "check/soak, >1 also arms the shard nemesis families and the "
        "cross-shard disjointness oracle",
    },
    "--replication": {
        "choices": ("none", "mirror3", "block4-2"),
        "default": "none",
        "help": "replicated storage group arrangement (redbud systems "
        "only; default %(default)s, which is byte-identical to the "
        "unreplicated array). mirror3/block4-2 also arm CURP witnesses "
        "and, under check/soak, the disk-loss nemesis family and the "
        "replica oracles",
    },
    "--faults": {
        "metavar": "SPEC",
        "default": None,
        "help": "inject faults (redbud systems only); comma-separated "
        "clauses: loss=P, delay=P:MAX, partition=CID@T0-T1, "
        "mds_restart@T:D[:shard=K], client_death=CID@T, "
        "shard_partition=K@T0-T1, disk_loss=M@T[:R], crash@T -- e.g. "
        "'loss=0.05,mds_restart@0.5:0.2,disk_loss=1@0.3:0.2' "
        "(disk_loss needs --replication)",
    },
    "--scheduler": {
        "choices": ("calendar", "heap"),
        "default": None,
        "help": "event-calendar implementation (default calendar); both "
        "dispatch in the identical order, heap is the reference "
        "baseline for scaling comparisons",
    },
    "--seed-bug": {
        "choices": _SEED_BUGS,
        "default": "none",
        "help": "deliberately plant a bug (self-tests; redbud systems "
        "only): 'dedup' disables the MDS commit dedup table, 'degrade' "
        "suppresses the delayed->sync reversion so clients stay "
        "degraded after faults heal",
    },
    "--volume-size": {"type": int, "default": 256 * 1024 * 1024},
    "--daemons": {"type": int, "default": 4},
    "--drop-every": {
        "type": int,
        "default": 0,
        "help": "drop every Nth request frame before delivery (0 = off): "
        "forces real retransmissions through the retry machinery",
    },
}

#: What ``serve`` forwards to each ``serve-shard`` child unchanged.
_SHARD_FLAGS = (
    "--shards", "--data-dir", "--volume-size", "--daemons", "--drop-every"
)


def _dest(flag: str) -> str:
    """``--seed-bug`` -> ``seed_bug`` (argparse's attribute name)."""
    return flag[2:].replace("-", "_")


def _add_options(
    p: argparse.ArgumentParser, *flags: str, **overrides: _t.Any
) -> None:
    """Attach shared options; ``overrides`` maps a dest to kwargs."""
    for flag in flags:
        p.add_argument(flag, **{**_OPTIONS[flag], **overrides.get(_dest(flag), {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Delayed Commit Protocol reproduction (CLUSTER 2012) -- "
            "simulated Redbud parallel file system"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--clients", type=int, default=7)
        p.add_argument("--seed", type=int, default=11)
        p.add_argument("--duration", type=float, default=3.0)
        p.add_argument(
            "--workload", choices=sorted(PRESETS), default="xcdn-32K"
        )

    p_run = sub.add_parser("run", help="run one workload on one system")
    common(p_run)
    _add_options(
        p_run, "--system", "--json", "--trace", "--shards", "--replication",
        "--faults",
    )
    p_run.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="P",
        help="simulated client nodes to multiplex --clients workload "
        "personalities onto (aggregate clients; default: one node per "
        "client). --clients 10000 --processes 16 runs a 10k-client "
        "population on 16 nodes. A --faults spec with client_death "
        "clauses is refused (client indexing assumes one node per "
        "client); every other clause family is allowed",
    )
    _add_options(p_run, "--scheduler")
    p_run.add_argument(
        "--delegation-chunk",
        type=int,
        default=None,
        metavar="BYTES",
        help="space-delegation chunk size (default 16 MiB). Lower it "
        "for huge --clients runs: every client pools two chunks, so "
        "10000 clients need chunks small enough to fit the volume "
        "(e.g. 1048576)",
    )
    _add_options(p_run, "--slo")
    p_run.add_argument(
        "--check",
        action="store_true",
        help="after the run (and settling), run fsck + the full "
        "invariant suite (safety + convergence); exit nonzero on any "
        "violation (redbud systems only)",
    )
    _add_options(p_run, "--seed-bug")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run one workload on all systems")
    common(p_cmp)
    _add_options(p_cmp, "--json", "--trace", "--slo")
    p_cmp.set_defaults(func=cmd_compare)

    p_slo = sub.add_parser(
        "slo",
        help="tail-latency report: per-op quantiles, SLO verdicts, "
        "critical-path breakdown, fault-annotated timeline",
    )
    common(p_slo)
    p_slo.add_argument(
        "--systems",
        default="redbud-delayed,nfs3",
        help="comma-separated systems to run (default %(default)s)",
    )
    _add_options(p_slo, "--slo", "--shards", "--faults")
    p_slo.add_argument(
        "--timeline",
        action="store_true",
        help="print the windowed telemetry timeline",
    )
    _add_options(p_slo, "--trace", "--json", "--out")
    p_slo.set_defaults(func=cmd_slo)

    p_trace = sub.add_parser(
        "trace", help="run with causal tracing and export span trees"
    )
    common(p_trace)
    _add_options(
        p_trace, "--system", "--out",
        out={"default": "trace.json", "help": "output path (default "
             "%(default)s)"},
    )
    p_trace.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="chrome: Perfetto-loadable trace_event JSON; jsonl: one "
        "span/instant per line",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="run with metrics and print the registry"
    )
    common(p_stats)
    _add_options(p_stats, "--system", "--json")
    p_stats.set_defaults(func=cmd_stats)

    p_fig = sub.add_parser("figures", help="list figure benches")
    p_fig.set_defaults(func=cmd_figures)

    try:
        harness = _load_harness()
    except ImportError:  # installed without the benchmarks tree
        harness = None
    if harness is not None:
        p_bench = sub.add_parser(
            "bench",
            help="parallel, cached benchmark sweeps -> BENCH_sim.json",
        )
        harness.add_bench_arguments(p_bench)
        p_bench.set_defaults(func=cmd_bench)

    p_crash = sub.add_parser("crash", help="crash + verify + recover")
    common(p_crash)
    p_crash.add_argument(
        "--mode",
        choices=("synchronous", "delayed", "unordered"),
        default="delayed",
    )
    p_crash.add_argument(
        "--at", type=float, default=0.3, help="crash after this many seconds"
    )
    p_crash.set_defaults(func=cmd_crash)

    p_check = sub.add_parser(
        "check",
        help="crash-schedule exploration + invariant checking + "
        "counterexample shrinking",
    )
    p_check.add_argument(
        "--budget",
        type=int,
        default=200,
        help="schedules to explore (default %(default)s)",
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--clients", type=int, default=3)
    _add_options(p_check, "--shards", "--replication")
    p_check.add_argument(
        "--mode",
        choices=("synchronous", "delayed", "unordered"),
        default="delayed",
        help="commit-protocol scope to check (unordered is the "
        "deliberately broken control)",
    )
    p_check.add_argument(
        "--max-counterexamples",
        type=int,
        default=3,
        help="failures to shrink (default %(default)s)",
    )
    _add_options(p_check, "--seed-bug", "--out", "--json")
    p_check.set_defaults(func=cmd_check)

    p_soak = sub.add_parser(
        "soak",
        help="long-horizon soak: tracked nemesis + continuous "
        "liveness/safety oracles + counterexample shrinking",
    )
    p_soak.add_argument(
        "--hours",
        type=float,
        default=2.0,
        help="virtual hours of soak (default %(default)s)",
    )
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="nemesis action rate multiplier (default %(default)s: "
        "one action per ~30 virtual seconds)",
    )
    p_soak.add_argument("--clients", type=int, default=4)
    _add_options(
        p_soak, "--shards", "--replication", "--scheduler", "--seed-bug",
        "--out", "--json",
        out={"help": "write the incremental JSONL timeline (inject/heal/"
             "violation/sweep events + final summary) here"},
    )
    p_soak.set_defaults(func=cmd_soak)

    p_serve = sub.add_parser(
        "serve",
        help="boot a live sharded metadata cluster on localhost "
        "(one asyncio process per shard, real TCP)",
    )
    p_serve.add_argument("--shards", type=int, default=2)
    p_serve.add_argument(
        "--data-dir",
        default="./repro-data",
        help="volume file, cluster.json and shard dumps live here",
    )
    _add_options(p_serve, "--volume-size", "--daemons", "--drop-every")
    p_serve.set_defaults(func=cmd_serve)

    p_shard = sub.add_parser(
        "serve-shard", help="internal: one shard process of `serve`"
    )
    p_shard.add_argument("--shard", type=int, required=True)
    p_shard.add_argument("--shards", type=int, required=True)
    p_shard.add_argument("--data-dir", required=True)
    p_shard.add_argument("--port", type=int, default=0)
    _add_options(p_shard, "--volume-size", "--daemons", "--drop-every")
    p_shard.set_defaults(func=cmd_serve_shard)

    p_smoke = sub.add_parser(
        "smoke",
        help="drive the delayed-commit client stack against a live "
        "`serve` cluster, shut it down, and run the fsck/exactly-once/"
        "data-pattern oracle subset on its on-disk state",
    )
    p_smoke.add_argument("--data-dir", default="./repro-data")
    p_smoke.add_argument("--clients", type=int, default=4)
    p_smoke.add_argument(
        "--files", type=int, default=6, help="files per client"
    )
    p_smoke.add_argument("--file-size", type=int, default=32 * 1024)
    p_smoke.add_argument("--seed", type=int, default=11)
    p_smoke.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="workload deadline in real seconds",
    )
    p_smoke.add_argument(
        "--report", metavar="PATH", help="write the JSON report here"
    )
    _add_options(p_smoke, "--json")
    p_smoke.set_defaults(func=cmd_smoke)
    return parser


def main(argv: _t.Optional[_t.List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
