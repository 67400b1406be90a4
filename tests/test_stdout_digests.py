"""CLI stdout is byte-identical to the digests the benchmark checks against.

perfbench/digests.json maps each benchmark command to the sha256 of its
stdout.  A few commands that run the oracle, the sieve, the floor identity
and every verify suite are replayed here in-process; the file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dyngcd.cli import main

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

COMMANDS = [
    "verify --poly x^2+1 --bound 90",
    "verify --poly x^2+x+1 --bound 90",
    "verify --poly x^3+x^2+1 --bound 90",
    "density --poly x^2+1 --k 5 --x 8000 --method both --format json",
    "coprime --poly x^2+1 --a 2 --b 13 --x 5000 --format json",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_recorded_digest(command, capsys):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[command]
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want
