"""``run.py compare A.json B.json``: did B get worse than A?

For every (workload, end-to-end metric) the verdict is one of

* ``worse``      — B's value is worse than A's by more than the bound;
* ``better``     — every run of B reads better than every run of A;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound and the two sides' runs overlap, so neither of the above
  can be said;
* ``within``     — none of the above: inside the bound.

``failed_frac`` has no tolerance: any increase is ``worse``.  Differing
``result_digest``s, kernel selections, ``REPRO_*`` overrides or sizes
are flagged, because then the two files did not do the same work.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ledger.harness import END_TO_END

__all__ = ["verdict", "compare", "main"]


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, worsening) of summary ``b`` against ``a``.

    ``worsening`` is the change of the reported value as a share of A's,
    signed so that positive is worse whatever the metric's direction;
    spread and overlap are taken over each side's runs (one per child).
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if not overlap and worsening < 0:
        return "better", worsening
    return "within", worsening


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Row per workload plus the flags; pure function of two results."""
    flags: List[str] = []
    for key in ("kernels", "repro_env", "sizes", "nproc", "python"):
        if a["stamp"].get(key) != b["stamp"].get(key):
            flags.append(
                f"stamp differs: {key}: {a['stamp'].get(key)} vs {b['stamp'].get(key)}"
            )
    rows: Dict[str, Dict[str, Any]] = {}
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            flags.append(f"{name}: missing from B")
            continue
        if wa["result_digest"] != wb["result_digest"]:
            flags.append(
                f"{name}: result_digest differs "
                f"({wa['result_digest'][:12]} vs {wb['result_digest'][:12]}) "
                "- simulated results changed, not only speed"
            )
        cells = {}
        for metric, _, better, bound in END_TO_END:
            ea, eb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            what, worsening = verdict(ea, eb, better, bound)
            cells[metric] = {
                "a": ea, "b": eb, "bound": bound,
                "worsening": worsening, "verdict": what,
            }
        cells["failed_frac"] = {
            "a": wa["failed_frac"], "b": wb["failed_frac"], "bound": 0.0,
            "worsening": wb["failed_frac"] - wa["failed_frac"],
            "verdict": "worse" if wb["failed_frac"] > wa["failed_frac"] else "within",
        }
        rows[name] = cells
    return {"rows": rows, "flags": flags}


def _side(s: Dict[str, Any]) -> str:
    return (
        f"{s['value']:.5g} | {s['median']:.5g} "
        f"[{s['min']:.5g}..{s['max']:.5g}] n={s['n']}"
    )


def render(result: Dict[str, Any]) -> str:
    metrics = [m for m, _, _, _ in END_TO_END] + ["failed_frac"]
    lines = ["verdict of B against A (one row per workload):", ""]
    lines.append(f"{'workload':<18}" + "".join(f"{m:>14}" for m in metrics))
    for name, cells in result["rows"].items():
        lines.append(
            f"{name:<18}" + "".join(f"{cells[m]['verdict']:>14}" for m in metrics)
        )
    lines.append("")
    lines.append(
        f"{'workload':<18}{'metric':<13}{'A value | runs median [min..max] n':<46}"
        f"{'B value | runs median [min..max] n':<46}{'worse by':>10}{'bound':>8}  verdict"
    )
    for name, cells in result["rows"].items():
        for metric, _, _, _ in END_TO_END:
            cell = cells[metric]
            lines.append(
                f"{name:<18}{metric:<13}{_side(cell['a']):<46}{_side(cell['b']):<46}"
                f"{cell['worsening']:>+10.1%}{cell['bound']:>8.0%}  {cell['verdict']}"
            )
        ff = cells["failed_frac"]
        lines.append(
            f"{name:<18}{'failed_frac':<13}{ff['a']:<46.6g}{ff['b']:<46.6g}"
            f"{ff['worsening']:>+10.6f}{'0':>8}  {ff['verdict']}"
        )
    if result["flags"]:
        lines.append("")
        lines.extend(f"FLAG: {flag}" for flag in result["flags"])
    return "\n".join(lines)


def main(a_path: Path, b_path: Path) -> int:
    result = compare(
        json.loads(Path(a_path).read_text()), json.loads(Path(b_path).read_text())
    )
    print(render(result))
    worse = [
        f"{name}/{metric}"
        for name, cells in result["rows"].items()
        for metric, cell in cells.items()
        if cell["verdict"] == "worse"
    ]
    if worse:
        print(f"\nworse: {', '.join(worse)}")
    return 1 if worse else 0
