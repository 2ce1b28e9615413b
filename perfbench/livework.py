"""The live workload: two ``repro serve-shard`` processes and this client.

This process is the client: ``repro.rt.smoke.run_smoke`` runs four
delayed-commit ``RedbudClient``s on one asyncio loop, one TCP connection
per shard, each client creating, writing, overwriting, fsyncing and
unlinking its files.  The benchmark adds only observers:

- a timer around each op the smoke script runs (wall clock);
- a probe on the smoke run's control requests that reads each
  shard's CPU time and peak RSS from ``/proc`` just before shutdown;
- the clients the script drives are kept, so their commit and RPC
  counters can be read.

Shards listen on port 0 in a fresh data directory under the checkout,
never drop requests, and are killed if anything goes wrong.

The client and the shards share one CPU.  Spread over two vCPUs of a
shared host, every op waited on cross-CPU wake-ups, and otherwise
identical runs minutes apart differed by 2.4x in throughput; on one CPU
the run is bound by the CPU time the stack spends per op, and repeats
within a few percent.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import typing as _t

from perfbench import layermap
from perfbench.simwork import quantile
from perfbench.spans import Patcher, Tracer

_clock = time.perf_counter

SHARDS = 2
CLIENTS = 4
VOLUME_BYTES = 512 * 1024 * 1024
#: Files each client handles per requested wall second, and the floor
#: that keeps at least 1000 creates and fsyncs in a run, so their p99
#: has ten samples beyond it.
FILES_PER_SECOND = 75
MIN_FILES = 250
SETUPS = 3
#: Seconds a shard may take to print READY or to exit after shutdown.
SHARD_DEADLINE = 60.0
#: The client ops the smoke script runs.
OPS = ("create", "write", "fsync", "unlink")
#: Per-layer metrics of simulator-only layers; the live run bypasses them.
SIM_ONLY = (
    "kernel.events",
    "kernel.events_per_s",
    "storage.dispatches",
    "storage.seeks",
    "storage.merge_ratio",
    "storage.cache.hit_ratio",
)


class OpClock:
    """Wall-clock latency of each client op, plus attempted and failed."""

    def __init__(self) -> None:
        self.latencies: _t.Dict[str, _t.List[float]] = {op: [] for op in OPS}
        self.attempted = 0
        self.failed = 0
        self.first = float("inf")
        self.last = 0.0

    def view(self, client: _t.Any) -> "_TimedClient":
        return _TimedClient(client, self)

    def _time(self, op: str, inner: _t.Generator) -> _t.Generator:
        self.attempted += 1
        t0 = _clock()
        try:
            result = yield from inner
        except GeneratorExit:
            raise
        except BaseException:
            self.failed += 1
            raise
        t1 = _clock()
        self.latencies[op].append(t1 - t0)
        self.first = min(self.first, t0)
        self.last = max(self.last, t1)
        return result

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())


class _TimedClient:
    """A client as the smoke script sees it: the script's ops are timed.

    Timing the script's calls, not the client class, leaves out the ops
    the client starts itself (``unlink`` and ``shutdown`` fsync first).
    """

    def __init__(self, client: _t.Any, clock: OpClock) -> None:
        self._client = client
        self._clock = clock

    def __getattr__(self, name: str) -> _t.Any:
        attr = getattr(self._client, name)
        if name not in OPS:
            return attr
        return lambda *args, **kwargs: self._clock._time(name, attr(*args, **kwargs))


def _proc_sample(pid: int) -> _t.Tuple[float, float]:
    """(utime + stime seconds, VmHWM MiB) of a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    hwm_kib = 0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                hwm_kib = int(line.split()[1])
    return cpu, hwm_kib / 1024


def _die_with_parent() -> None:
    """In a forked shard: have the kernel kill it when this process dies.

    Covers what no ``finally`` can: this process killed outright.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    pr_set_pdeathsig = 1
    if libc.prctl(pr_set_pdeathsig, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


class Shards:
    """The shard processes of one cluster; killed on exit if still up."""

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        self.children: _t.List[subprocess.Popen] = []
        self.addresses: _t.List[_t.Tuple[str, int]] = []
        #: (cpu seconds, VmHWM MiB) per shard, read before shutdown.
        self.samples: _t.List[_t.Tuple[float, float]] = []

    def start(self) -> None:
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for shard in range(SHARDS):
            self.children.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "serve-shard",
                        "--shard", str(shard),
                        "--shards", str(SHARDS),
                        "--data-dir", self.data_dir,
                        "--port", "0",
                        "--volume-size", str(VOLUME_BYTES),
                        "--drop-every", "0",
                    ],
                    stdout=subprocess.PIPE,
                    env=env,
                    preexec_fn=_die_with_parent,
                )
            )
        for child in self.children:
            self.addresses.append(("127.0.0.1", self._ready_port(child)))

    @staticmethod
    def _ready_port(child: subprocess.Popen) -> int:
        assert child.stdout is not None
        deadline = time.monotonic() + SHARD_DEADLINE
        buffered = b""
        while b"\n" not in buffered:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([child.stdout], [], [], left)[0]:
                raise RuntimeError("shard did not print READY in time")
            chunk = os.read(child.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"shard exited before READY (rc={child.wait()})"
                )
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        if not line.startswith("READY "):
            raise RuntimeError(f"unexpected shard output {line!r}")
        return int(dict(f.split("=", 1) for f in line.split()[1:])["port"])

    def sample(self) -> None:
        if not self.samples:
            self.samples = [_proc_sample(c.pid) for c in self.children]

    def __enter__(self) -> "Shards":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        for child in self.children:
            try:
                child.wait(timeout=SHARD_DEADLINE if exc[0] is None else 0)
            except subprocess.TimeoutExpired:
                pass
            if child.poll() is None:
                child.kill()
                child.wait()
            if child.stdout is not None:
                child.stdout.close()


async def _ctl_all(addresses: _t.Sequence[_t.Tuple[str, int]], op: str) -> None:
    from repro.rt.transport import ctl_request

    for host, port in addresses:
        reply = await ctl_request(host, port, {"op": op})
        if not reply.get("ok"):
            raise RuntimeError(f"shard {op} failed: {reply!r}")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class LivePass:
    """One cluster driven through the smoke script."""

    def __init__(self, shards: Shards, data_dir: str, seed: int, files: int) -> None:
        from repro.rt.smoke import SmokeConfig

        self.shards = shards
        self.config = SmokeConfig(
            addresses=shards.addresses,
            data_dir=data_dir,
            shards=SHARDS,
            volume_size=VOLUME_BYTES,
            clients=CLIENTS,
            files_per_client=files,
            seed=seed,
        )
        self.clock = OpClock()
        self.clients: _t.List[_t.Any] = []
        self.report: _t.Dict[str, _t.Any] = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def drive(self, tracer: _t.Optional[Tracer] = None) -> None:
        from repro.rt import smoke

        shards = self.shards

        def probe(ctl: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
            async def probe_then_ctl(
                host: str, port: int, request: _t.Dict[str, _t.Any], *a: _t.Any
            ) -> _t.Dict[str, _t.Any]:
                if request.get("op") == "shutdown":
                    shards.sample()
                return await ctl(host, port, request, *a)

            return probe_then_ctl

        def timed(script: _t.Callable[..., _t.Generator]) -> _t.Callable[..., _t.Any]:
            def timed_script(client: _t.Any, *args: _t.Any) -> _t.Generator:
                self.clients.append(client)
                return script(self.clock.view(client), *args)

            return timed_script

        with Patcher() as patcher:
            patcher.replace(smoke, "_workload", timed)
            patcher.replace(smoke, "ctl_request", probe)
            if tracer is not None:
                layermap.install(patcher, tracer)
                tracer.open_root()
            cpu0, t0 = _cpu_s(), _clock()
            try:
                self.report = asyncio.run(smoke.run_smoke(self.config))
            finally:
                self.wall_s = _clock() - t0
                self.cpu_s = _cpu_s() - cpu0
                if tracer is not None:
                    tracer.close_root()

    def failures(self) -> _t.List[str]:
        found = [
            f"{oracle}: {details[0]} ({len(details)} violations)"
            for oracle, details in sorted(self.report["oracles"].items())
            if details
        ]
        for stats in self.report["shard_stats"]:
            if stats["requests_dropped"]:
                found.append(
                    f"requests_dropped: shard {stats['shard']} dropped "
                    f"{stats['requests_dropped']} requests"
                )
        if self.clock.failed:
            found.append(f"client-ops: {self.clock.failed} ops raised")
        return found

    def shard_stat(self, key: str) -> int:
        return sum(s["stats"][key] for s in self.report["shard_stats"])


def _pass(
    workdir: str, seed: int, files: int, setups: int, tracer: _t.Optional[Tracer]
) -> _t.Tuple[_t.List[float], float, LivePass]:
    """``setups`` cluster start-ups; the last one is driven.

    Returns the set-up walls, the last spawn-to-READY wall and the pass.
    """
    walls = []
    for k in range(setups):
        data_dir = tempfile.mkdtemp(prefix="live-", dir=workdir)
        try:
            with Shards(data_dir) as shards:
                t0 = _clock()
                shards.start()
                ready_s = _clock() - t0
                asyncio.run(_ctl_all(shards.addresses, "ping"))
                walls.append(_clock() - t0)
                if k < setups - 1:
                    asyncio.run(_ctl_all(shards.addresses, "shutdown"))
                    continue
                live = LivePass(shards, data_dir, seed, files)
                live.drive(tracer)
                return walls, ready_s, live
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
    raise ValueError("setups must be positive")


def run(seed: int, seconds: int, trace: bool) -> _t.Dict[str, _t.Any]:
    """One benchmark run of the live workload, on one CPU."""
    allowed = os.sched_getaffinity(0)
    # Shards inherit the affinity when they are spawned.
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _run(seed, seconds, trace)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(seed: int, seconds: int, trace: bool) -> _t.Dict[str, _t.Any]:
    files = max(MIN_FILES, seconds * FILES_PER_SECOND)
    workdir = os.path.join(os.getcwd(), ".perfbench-tmp")
    # Runs remove their data directories; one killed outright cannot, so
    # the next run clears what it left.  One live run per checkout.
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    walls, ready_s, live = _pass(workdir, seed, files, 1 if trace else SETUPS, None)
    clock = live.clock
    everything = [lat for lats in clock.latencies.values() for lat in lats]
    fsyncs = clock.latencies["fsync"]
    client_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops_per_s = clock.completed / (clock.last - clock.first)
    metrics = {
        "ops_per_wall_s": ops_per_s,
        "ops_per_s": ops_per_s,
        "op_mean_ms": statistics.fmean(everything) * 1e3,
        "op_p99_ms": quantile(everything, 0.99) * 1e3,
        "create_p99_ms": quantile(clock.latencies["create"], 0.99) * 1e3,
        "setup_s": statistics.median(walls),
        "peak_rss_mb": client_rss + sum(hwm for _, hwm in live.shards.samples),
        "op_fail_ratio": clock.failed / clock.attempted,
        "fsync_p50_ms": quantile(fsyncs, 0.50) * 1e3,
        "fsync_p99_ms": quantile(fsyncs, 0.99) * 1e3,
    }
    result: _t.Dict[str, _t.Any] = {
        "metrics": metrics,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "failures": live.failures(),
        "samples": {
            "all ops": len(everything),
            "create": len(clock.latencies["create"]),
            "fsync": len(fsyncs),
        },
    }
    if not trace:
        return result

    untraced = live
    tracer = Tracer()
    _, _, traced = _pass(workdir, seed, files, 1, tracer)
    ledger = tracer.ledger()
    result["failures"] += traced.failures()
    layers = layermap.metrics(ledger, untraced.wall_s)
    clients = untraced.clients
    rpcs = sum(c.daemon_ctx.stats.rpcs_sent for c in clients)
    layers.update({name: 0.0 for name in SIM_ONLY})
    layers.update(
        {
            "core.ops_per_commit_rpc": (
                sum(c.daemon_ctx.stats.ops_committed for c in clients) / rpcs
                if rpcs
                else 0.0
            ),
            "core.compound_degree": statistics.mean(
                c.daemon_ctx.stats.mean_degree for c in clients
            ),
            "mds.requests": untraced.shard_stat("requests_processed"),
            "mds.duplicates_suppressed": untraced.shard_stat(
                "duplicate_requests_suppressed"
            ),
            "mds.shard_cpu_ratio": (
                sum(cpu for cpu, _ in untraced.shards.samples) / untraced.wall_s
            ),
            "net.rpc.calls": sum(c.rpc.calls_sent for c in clients),
            "net.rpc.retries": sum(c.rpc.retries for c in clients),
            "net.rpc.timeouts": sum(c.rpc.timeouts for c in clients),
            "rt.client_cpu_ratio": untraced.cpu_s / untraced.wall_s,
            "setup.build_s": ready_s,
            "setup.seed_s": walls[-1] - ready_s,
        }
    )
    result["layers"] = layers
    result["ledger"] = ledger
    return result
