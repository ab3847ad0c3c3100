"""The default stdout of ``analyze``, ``simulate`` and ``incast``, pinned.

``cli_snapshots/<command>.txt`` holds what ``python -m repro.cli
<command>`` prints with no further flags.  These tests rerun each
command in-process and compare bytes.  ``simulate`` prints the
bottleneck's marks and drops and the engine's event count, so a change
that moves a per-packet counter shows here even when the queue
statistics round alike.  The files are rewritten only on purpose::

    PYTHONPATH=src python -m tests.integration.test_cli_snapshots
"""

import contextlib
import difflib
import io
import pathlib

import pytest

from repro.cli import main

SNAPSHOTS = pathlib.Path(__file__).with_name("cli_snapshots")

COMMANDS = ("analyze", "simulate", "incast")


def run_command(name):
    """What ``repro.cli <name>`` prints on stdout, with its defaults."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([name])
    assert code == 0
    return stdout.getvalue()


def test_every_command_has_exactly_its_file():
    on_disk = sorted(p.name for p in SNAPSHOTS.iterdir())
    assert on_disk == sorted(f"{name}.txt" for name in COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_is_byte_identical(name):
    expected = (SNAPSHOTS / f"{name}.txt").read_text()
    produced = run_command(name)
    assert produced == expected, "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            produced.splitlines(keepends=True),
            f"cli_snapshots/{name}.txt",
            f"repro.cli {name}",
        )
    )


if __name__ == "__main__":
    SNAPSHOTS.mkdir(exist_ok=True)
    for command in COMMANDS:
        (SNAPSHOTS / f"{command}.txt").write_text(run_command(command))
        print(f"wrote cli_snapshots/{command}.txt")
