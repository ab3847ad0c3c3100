#!/usr/bin/env python
"""Partition-aggregate (web-search style) query latency under fan-out.

The workload that motivates the paper's introduction: a front-end
aggregator asks n workers for shards of a 1 MB result and must wait for
the slowest one.  The completion-time distribution is what the user
sees; its tail is dominated by incast losses once the fan-out outgrows
the switch buffer.

Sweeps the fan-out for DCTCP and DT-DCTCP on the testbed topology and
prints mean / p95 / p99 completion times (paper Figure 15).

Run:  python examples/web_search_aggregator.py
"""

from repro.experiments.fig15_completion_time import run_completion_point
from repro.experiments.protocols import dctcp_testbed, dt_dctcp_testbed
from repro.experiments.tables import print_table


def main() -> None:
    fanouts = [8, 16, 24, 30, 33, 34, 36, 40]
    rows = []
    for n in fanouts:
        dc = run_completion_point(dctcp_testbed(), n, n_queries=10)
        dt = run_completion_point(dt_dctcp_testbed(), n, n_queries=10)
        rows.append(
            (
                n,
                dc.mean_time * 1e3,
                dc.p99_time * 1e3,
                dt.mean_time * 1e3,
                dt.p99_time * 1e3,
            )
        )
    print_table(
        [
            "workers",
            "DCTCP mean (ms)",
            "DCTCP p99 (ms)",
            "DT-DCTCP mean (ms)",
            "DT-DCTCP p99 (ms)",
        ],
        rows,
        title="1 MB partition-aggregate query completion "
        "(ideal ~8.4 ms at 1 Gbps; a 200 ms jump = one min-RTO)",
    )
    print(
        "DT-DCTCP's steadier queue keeps the tail flat for a few more "
        "workers before incast catches it too (paper Figure 15)."
    )


if __name__ == "__main__":
    main()
