"""Figure 7: compound degree x MDS server daemon threads.

The paper varies the number of MDS daemon threads (1, 8, 16) and the
fixed compound degree (1, 3, 6) under xcdn and reports per-client output
(MB/s): ~2.3 MB/s at one daemon rising to ~2.6 at eight; compounding
three requests adds ~0.2/0.2/0.1 MB/s for 1/8/16 daemons; degree six
matches degree three ("High compound degree more than three does little
help"); and sixteen daemons dip below eight ("probably caused by
multi-thread contention").

The absolute MB/s of the simulation differ from the testbed's; the
asserted shape is the ordering.
"""


import pytest

from benchmarks.common import ResultBoard, run_once
from repro.analysis import Table
from repro.fs import ClusterConfig, RedbudCluster
from repro.mds.server import MdsParameters
from repro.runspec import make_workload

DAEMONS = [1, 8, 16]
DEGREES = [1, 3, 6]
NUM_CLIENTS = 7
DURATION = 2.5

_board = ResultBoard()


@pytest.fixture(scope="module")
def board():
    return _board


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("daemons", DAEMONS)
def test_fig7_cell(benchmark, board, daemons, degree):
    def run():
        config = ClusterConfig.space_delegation_config(
            num_clients=NUM_CLIENTS,
            fixed_compound_degree=degree,
            mds=MdsParameters(num_daemons=daemons),
        )
        cluster = RedbudCluster(config, seed=37)
        workload = make_workload("xcdn-32K")
        result = cluster.run_workload(workload, duration=DURATION, warmup=0.3)
        per_client = result.bytes_per_second / NUM_CLIENTS / (1024 * 1024)
        return {
            "mbps": per_client,
            "rpcs": result.extras["commit_rpcs"],
            "mean_degree": result.extras["mean_compound_degree"],
        }

    cell = run_once(benchmark, run)
    board.put(f"daemons={daemons}", f"degree={degree}", cell)


def test_fig7_report_and_shape(benchmark, board):
    run_once(benchmark, lambda: None)  # keep this report under --benchmark-only
    table = Table(
        ["server daemons"]
        + [f"degree {d} (MB/s)" for d in DEGREES]
        + ["commit RPCs @1", "@3", "@6"],
        title="Fig. 7 -- per-client output vs compound degree and MDS daemons",
    )
    cells = {}
    for daemons in DAEMONS:
        row = [str(daemons)]
        for degree in DEGREES:
            cell = board.get(f"daemons={daemons}", f"degree={degree}")
            cells[(daemons, degree)] = cell
            row.append(cell["mbps"])
        for degree in DEGREES:
            row.append(cells[(daemons, degree)]["rpcs"])
        table.add_row(*row)
    table.print()

    mbps = {k: v["mbps"] for k, v in cells.items()}

    # Compounding (degree 3) reduces commit RPCs dramatically...
    for daemons in DAEMONS:
        assert (
            cells[(daemons, 3)]["rpcs"] < 0.6 * cells[(daemons, 1)]["rpcs"]
        )
    # ...and helps throughput most where the server is weakest: the
    # paper's +0.2 MB/s at one daemon.
    assert mbps[(1, 3)] > 1.03 * mbps[(1, 1)], (
        "compounding must help a 1-daemon MDS"
    )
    # It never hurts materially anywhere.
    for daemons in DAEMONS:
        assert mbps[(daemons, 3)] > 0.93 * mbps[(daemons, 1)], (
            f"degree 3 should not hurt at {daemons} daemons"
        )

    # Degree 6 is about the same as degree 3 ("High compound degree more
    # than three does little help").
    for daemons in DAEMONS:
        ratio = mbps[(daemons, 6)] / mbps[(daemons, 3)]
        assert 0.85 < ratio < 1.25, (
            f"degree 6 vs 3 at {daemons} daemons: {ratio:.2f}"
        )

    # At the uncompounded baseline -- where the MDS actually binds --
    # more daemons help up to 8, and 16 buys nothing (contention).
    # Once compounding removes the MDS from the critical path the
    # daemon count stops mattering, which is itself the paper's point.
    assert mbps[(8, 1)] > 1.05 * mbps[(1, 1)]
    assert mbps[(16, 1)] < 1.02 * mbps[(8, 1)]
