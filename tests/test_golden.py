"""Byte-for-byte golden check of the command line on the bundled specs.

``golden_bundled.json`` holds, for each of the 7 commands on each of the
5 bundled spec files, the sha256 of the ``--format json`` stdout, the
sha256 of the stderr and the exit code.  A change that is meant to keep
every report identical (a faster kernel, a refactor) must keep this test
green; a change that alters a report on purpose regenerates the table
with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_bundled.json

and says why in its description.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hopfcross import cli

DATA = Path(cli.__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden_bundled.json"


def _run(command, fname):
    """(sha256 of stdout, sha256 of stderr, exit code) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(DATA / fname), "--format", "json"])
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest(), code]


def _cases():
    return [(command, path.name) for path in sorted(DATA.glob("*.json"))
            for command in cli.COMMANDS]


def test_golden_table_covers_every_command_and_bundled_file():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        f"{fname}:{command}" for command, fname in _cases())
    assert len(_cases()) == 35


@pytest.mark.parametrize("command,fname", _cases())
def test_output_bytes_match_golden(command, fname):
    assert _run(command, fname) == json.loads(GOLDEN.read_text())[
        f"{fname}:{command}"]


if __name__ == "__main__":
    print(json.dumps({f"{fname}:{command}": _run(command, fname)
                      for command, fname in _cases()},
                     indent=1, sort_keys=True))
