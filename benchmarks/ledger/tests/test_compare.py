"""Verdict rules of ``run.py compare``."""

from ledger import compare


def _entry(median, lo, hi, n=6):
    return {"median": median, "min": lo, "max": hi, "n": n, "value": median, "unit": "s"}


def test_verdicts():
    a = _entry(10.0, 9.9, 10.1)
    assert compare.verdict(a, _entry(11.5, 11.4, 11.6), "lower", 0.10)[0] == "worse"
    assert compare.verdict(a, _entry(10.3, 10.2, 10.4), "lower", 0.10)[0] == "within"
    assert compare.verdict(a, _entry(9.0, 8.9, 9.1), "lower", 0.10)[0] == "better"
    # Spread wider than the bound and overlapping runs: cannot say.
    noisy = _entry(10.5, 9.5, 12.0)
    assert compare.verdict(a, noisy, "lower", 0.10)[0] == "unresolved"
    # Direction: for a higher-is-better rate, a drop is the worsening.
    what, worsening = compare.verdict(
        _entry(100.0, 99.0, 101.0), _entry(80.0, 79.0, 81.0), "higher", 0.10
    )
    assert what == "worse" and worsening > 0


def _result(digest="d", wall=10.0, failed_frac=0.0, kernels=None):
    e2e = {
        name: _entry(wall, wall * 0.99, wall * 1.01)
        for name in ("wall_s", "cpu_s", "work_per_s", "peak_rss_mb", "setup_s")
    }
    return {
        "stamp": {"kernels": kernels or {"REPRO_LINK_MODEL": "busy-until"},
                  "repro_env": {}, "sizes": {}, "nproc": 2, "python": "3.11"},
        "workloads": {"w": {"result_digest": digest, "end_to_end": e2e,
                            "failed_frac": failed_frac}},
    }


def test_compare_flags_digests_kernels_and_failures():
    same = compare.compare(_result(), _result())
    assert not same["flags"]
    assert {c["verdict"] for c in same["rows"]["w"].values()} == {"within"}
    changed = compare.compare(
        _result(),
        _result(digest="e", failed_frac=0.01,
                kernels={"REPRO_LINK_MODEL": "two-event"}),
    )
    assert any("result_digest differs" in f for f in changed["flags"])
    assert any("kernels" in f for f in changed["flags"])
    assert changed["rows"]["w"]["failed_frac"]["verdict"] == "worse"
    assert "worse" in compare.render(changed)
