"""Benchmark: Figure 12 — the congestion-extent estimate alpha versus N.

The paper's claim: alpha grows with N for both protocols (the network
gets more congested) and DT-DCTCP's alpha stays at or below DCTCP's.
"""

from repro.experiments import queue_sweep


def test_fig12_alpha_paper_pipe(run_once, bench_scale):
    sweep = run_once(queue_sweep.run, bench_scale)
    rows = [
        (a.n_flows, round(a.mean_alpha, 3), round(b.mean_alpha, 3))
        for a, b in zip(sweep.points["DCTCP"], sweep.points["DT-DCTCP"])
    ]
    print(f"\nFigure 12 (N, alpha_dc, alpha_dt): {rows}")
    assert sweep.grows_with_n("DCTCP", "mean_alpha")
    assert sweep.grows_with_n("DT-DCTCP", "mean_alpha")
    assert sweep.fraction_dt_not_higher() >= 0.7


def test_fig12_alpha_deep_pipe(run_once, bench_scale):
    sweep = run_once(queue_sweep.run, bench_scale, rtt=400e-6)
    frac = sweep.fraction_dt_not_higher()
    print(f"\nFigure 12 (deep pipe): DT alpha not higher at {frac:.0%}")
    assert frac >= 0.7
