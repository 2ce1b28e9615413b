"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-xcdn --seed 11 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, prints the
traced run's per-layer self-time ledger and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
import typing as _t

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("sim-xcdn", "sim-1k-clients", "live-2shard")

#: Figures printed beside the declared metrics but not gated: tails move
#: too much with the host's speed from one run to the next to hold a
#: bound.
EXTRA_UNITS = {
    "op_p99_ms": "ms",
    "create_p99_ms": "ms",
    "fsync_p50_ms": "ms",
    "fsync_p99_ms": "ms",
    "op_fail_ratio": "ratio",
}


def _declared() -> _t.Dict[str, _t.List[_t.Dict[str, str]]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, seed: int, seconds: int, trace: bool) -> _t.Dict[str, _t.Any]:
    if workload == "live-2shard":
        from perfbench import livework

        return livework.run(seed, seconds, trace)
    from perfbench import simwork

    return simwork.run(workload, seed, seconds, trace)


def _print_ledger(result: _t.Dict[str, _t.Any], workload: str) -> None:
    ledger = result["ledger"]
    wall = ledger.wall_s
    print(f"\nper-layer ledger: {workload}, traced wall {wall:.4f} s")
    print(f"  {'layer':<20} {'self s':>10} {'share':>7} {'calls':>10} {'spans':>10}")
    for layer, seconds in sorted(ledger.self_s.items(), key=lambda kv: -kv[1]):
        calls = ledger.count(layer)
        spans = sum(
            n for k, n in ledger.spans.items() if k.startswith(layer + ":")
        )
        print(
            f"  {layer:<20} {seconds:>10.4f} {seconds / wall:>7.1%} "
            f"{calls:>10} {spans:>10}"
        )
    total = sum(ledger.self_s.values())
    print(
        f"  self times + unattributed = {total:.6f} s "
        f"(traced wall {wall:.6f} s)"
    )
    if abs(total - wall) > 1e-6 * wall:
        result["failures"].append(
            f"ledger: self times sum to {total} s, traced wall is {wall} s"
        )


def main(argv: _t.Optional[_t.List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for needed in ("src/repro", "benchmarks/harness.py", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    # A terminated run still unwinds: shard processes are killed and
    # shard data removed by the ``finally`` blocks on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    declared = _declared()["per_layer" if args.trace else "end_to_end"]

    try:
        result = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    values = result["layers"] if args.trace else result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"{args.workload} does not produce {missing}")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    rows = [(m["name"], m["unit"]) for m in declared]
    if not args.trace:
        rows += [(name, unit) for name, unit in EXTRA_UNITS.items() if name in values]
    for name, unit in rows:
        print(f"  {name:<34} {values[name]:>16.6f} {unit}")
    if args.trace:
        _print_ledger(result, args.workload)
    else:
        print("  samples: " + ", ".join(f"{k} {v}" for k, v in result["samples"].items()))
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    correct = not result["failures"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, result["attempted"]),
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
