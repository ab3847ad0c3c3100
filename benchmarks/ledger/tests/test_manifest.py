"""``BENCHMARK.json`` says what the harness measures, within the
driver's schema limits."""

import json
import re
from pathlib import Path

from ledger import harness, workloads

MANIFEST = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_matches_the_harness_tables():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in harness.PER_LAYER
    ]


def test_manifest_stays_inside_the_schema_limits():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    metrics = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = {m["name"]: m for m in MANIFEST["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert len(MANIFEST["per_layer"]) <= 128
    assert 1 <= MANIFEST["run_seconds"] <= 60
    for path in MANIFEST["paths"]:
        assert (harness.ROOT / path).is_dir()
    assert Path(MANIFEST["command"][1]).parent.as_posix() in MANIFEST["paths"]


def test_every_layer_metric_has_a_written_down_prediction():
    for name, _, _, _ in harness.PER_LAYER:
        assert any(
            name.startswith(layer + ".") for layer in list(harness.LAYER_MAP) + ["trace"]
        ), name
    for moved_on in harness.LAYER_MAP.values():
        assert set(moved_on) <= set(workloads.WORKLOADS)
