"""CI's two campaign smokes, pinned: the table and the ``--output`` JSON.

``campaign_snapshots/<smoke>.txt`` holds what the ``campaign-smoke`` and
``chaos-smoke`` commands of ``.github/workflows/ci.yml`` print on stdout
(without the ``written:`` line) and ``<smoke>.json`` what they write to
``--output``.  These tests rerun both commands in-process, inline and
uncached, and compare bytes; CI diffs its cold run against the same
files, so a change that moves the cold and the warm run alike still
shows in a diff.  The files are rewritten only on purpose::

    PYTHONPATH=src python -m tests.integration.test_campaign_snapshots
"""

import contextlib
import difflib
import io
import pathlib
import tempfile

import pytest

from repro.cli import main

SNAPSHOTS = pathlib.Path(__file__).with_name("campaign_snapshots")

#: The CI commands' grid flags (CI adds ``--jobs 2`` and a cache).
SMOKES = {
    "campaign-smoke": [
        "--k", "40", "--k1k2", "30,50", "--loads", "0.2", "--fan-ins", "4",
        "--scenarios", "buildup", "--seeds", "1,2",
        "--duration", "0.01", "--warmup", "0.002",
    ],
    "chaos-smoke": [
        "--scenario", "space-dc",
        "--leaves", "2", "--spines", "1", "--hosts-per-leaf", "1",
        "--per-hop-delay", "2e-4", "--duration", "0.02", "--warmup", "0.004",
        "--jitter", "1e-4", "--flap-period", "0.01", "--flap-down", "0.002",
        "--flap-count", "1", "--loads", "0.1", "--fan-ins", "1",
        "--seeds", "1,2",
    ],
}


def run_smoke(name, directory):
    """``{"txt": table, "json": --output}`` of one smoke, as text."""
    output = pathlib.Path(directory) / f"{name}.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(
            ["campaign", *SMOKES[name], "--no-cache", "--output", str(output)]
        )
    assert code == 0
    table = "".join(
        line
        for line in stdout.getvalue().splitlines(keepends=True)
        if not line.startswith("written:")
    )
    return {"txt": table, "json": output.read_text()}


@pytest.fixture(scope="module")
def smokes(tmp_path_factory):
    directory = tmp_path_factory.mktemp("smokes")
    return {name: run_smoke(name, directory) for name in SMOKES}


def test_every_smoke_has_exactly_its_files():
    on_disk = sorted(p.name for p in SNAPSHOTS.iterdir())
    assert on_disk == sorted(
        f"{name}.{kind}" for name in SMOKES for kind in ("txt", "json")
    )


@pytest.mark.parametrize("kind", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(SMOKES))
def test_smoke_is_byte_identical(smokes, name, kind):
    expected = (SNAPSHOTS / f"{name}.{kind}").read_text()
    produced = smokes[name][kind]
    assert produced == expected, "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            produced.splitlines(keepends=True),
            f"campaign_snapshots/{name}.{kind}",
            f"campaign {name}",
        )
    )


if __name__ == "__main__":
    SNAPSHOTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for smoke in SMOKES:
            for suffix, text in run_smoke(smoke, scratch).items():
                (SNAPSHOTS / f"{smoke}.{suffix}").write_text(text)
                print(f"wrote campaign_snapshots/{smoke}.{suffix}")
