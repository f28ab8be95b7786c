"""Byte-for-byte golden check of the command line on the bundled specs.

``golden_bundled.json`` holds, for each of the 7 commands on each of the
5 bundled spec files, the sha256 of the ``--format json`` stdout, the
sha256 of the stderr and the exit code; ``golden_bundled_text.json``
holds the same for ``--format text``, whose stdout is hashed without its
final ``wall time:`` line.  A change that is meant to keep every report
identical (a faster kernel, a refactor) must keep this test green; a
change that alters a report on purpose regenerates the tables with

    PYTHONPATH=src python tests/test_golden.py json > tests/golden_bundled.json
    PYTHONPATH=src python tests/test_golden.py text > tests/golden_bundled_text.json

and says why in its description.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from hopfcross import cli

DATA = Path(cli.__file__).resolve().parent / "data"
GOLDEN = {fmt: Path(__file__).resolve().parent / name for fmt, name in
          (("json", "golden_bundled.json"),
           ("text", "golden_bundled_text.json"))}


def _run(command, fname, fmt):
    """(sha256 of stdout, sha256 of stderr, exit code) of one CLI call;
    text stdout is hashed without its final wall-time line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(DATA / fname), "--format", fmt])
    stdout = out.getvalue()
    if fmt == "text" and stdout:
        stdout, wall = stdout[:-1].rsplit("\n", 1)
        assert wall.startswith("wall time: ")
        stdout += "\n"
    return [hashlib.sha256(stdout.encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest(), code]


def _cases():
    return [(command, path.name) for path in sorted(DATA.glob("*.json"))
            for command in cli.COMMANDS]


def test_golden_table_covers_every_command_and_bundled_file():
    for path in GOLDEN.values():
        assert sorted(json.loads(path.read_text())) == sorted(
            f"{fname}:{command}" for command, fname in _cases())
    assert len(_cases()) == 35


@pytest.mark.parametrize("command,fname", _cases())
def test_output_bytes_match_golden(command, fname):
    assert _run(command, fname, "json") == json.loads(
        GOLDEN["json"].read_text())[f"{fname}:{command}"]


@pytest.mark.parametrize("command,fname", _cases())
def test_text_output_bytes_match_golden(command, fname):
    assert _run(command, fname, "text") == json.loads(
        GOLDEN["text"].read_text())[f"{fname}:{command}"]


if __name__ == "__main__":
    fmt = sys.argv[1] if len(sys.argv) > 1 else "json"
    print(json.dumps({f"{fname}:{command}": _run(command, fname, fmt)
                      for command, fname in _cases()},
                     indent=1, sort_keys=True))
