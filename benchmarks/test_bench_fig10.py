"""Benchmark: Figure 10 — average queue length versus flow count.

Runs the paper-parameter sweep and the deep-pipe variant (see
EXPERIMENTS.md for why both).  The assertable claim: in the regime where
ECN, not the minimum window, governs behaviour, DT-DCTCP's normalised
mean stays at least as flat as DCTCP's.
"""

from repro.experiments import queue_sweep


def test_fig10_average_queue_paper_pipe(run_once, bench_scale):
    sweep = run_once(queue_sweep.run, bench_scale)
    dc = sweep.normalized("DCTCP")
    dt = sweep.normalized("DT-DCTCP")
    print(f"\nFigure 10 (paper pipe): DCTCP {dc}\n            DT-DCTCP {dt}")
    # Baselines regulate near the setpoint.
    assert 25 < sweep.baseline("DCTCP") < 60
    assert 25 < sweep.baseline("DT-DCTCP") < 60


def test_fig10_average_queue_deep_pipe(run_once, bench_scale):
    sweep = run_once(queue_sweep.run, bench_scale, rtt=400e-6)
    print(
        f"\nFigure 10 (deep pipe): max deviation DCTCP "
        f"{sweep.max_deviation('DCTCP'):.2f}, DT-DCTCP "
        f"{sweep.max_deviation('DT-DCTCP'):.2f}"
    )
    # Queue inflation with N is physics (more flows need more standing
    # queue); the reproduction bounds it rather than ordering it - see
    # EXPERIMENTS.md for the deviation from the paper's flatness claim.
    for name in ("DCTCP", "DT-DCTCP"):
        points = sweep.points[name]
        assert points[-1].mean_queue > points[0].mean_queue
        assert sweep.max_deviation(name) < 3.0
