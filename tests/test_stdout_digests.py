"""CLI stdout is byte-identical to the digests the benchmark checks against.

perfbench/digests.json maps each benchmark command to the sha256 of its
stdout.  A few commands that run the oracle, the sieve, the floor identity,
every verify suite and the prime scans are replayed here in-process; the file
is only read.
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
    "density --poly x^2+x+1 --k 3 --x 8000 --method both --format json",
    "density --poly x^3+x^2+1 --k 3 --x 8000 --method both --format json",
    # its A series admits 2 and 5, the primes of k, at ord(p^(e+1))
    "density --poly x^2+1 --k 10 --x 8000 --method both --format json",
    "density --poly x^2+1 --k 1 --x 8000 --method both --format json",
    "density --poly x^2+1 --k 2 --x 8000 --method both --format json",
    "density --poly x^2+x+1 --k 1 --x 8000 --method both --format json",
    "density --poly x^3+x^2+1 --k 1 --x 8000 --method both --format json",
    "coprime --poly x^2+1 --a 2 --b 13 --x 5000 --format json",
    "coprime --poly x^2+1 --a 2 --b 1 --x 5000 --format json",
    "coprime --poly x^2+1 --a 2 --b 3 --x 5000 --format json",
    "coprime --poly x^2+1 --a 2 --b 7 --x 5000 --format json",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_recorded_digest(command, capsys):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[command]
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want


# exact and bounded prime scans at the benchmark's sizes, through the
# lockstep kernel; their --cache files land in a temporary directory
SCAN_COMMANDS = [
    "scan --poly x^2+1 --cache scan0.csv --pmin 38500 --pmax 40000",
    "scan --poly x^3+x^2+1 --cache scan2.csv --pmin 38500 --pmax 40000",
    "series --poly x^2+1 --cache scan0.csv --k 1 --T 15400",
    "series --poly x^2+x+1 --cache scan1.csv --k 1 --T 15400",
    "series --poly x^3+x^2+1 --cache scan2.csv --k 1 --T 9900",
    "density --poly x^2+1 --k 5 --x 1000000 --method sieve --format json",
    "density --poly x^2+x+1 --k 3 --x 1000000 --method sieve --format json",
    # at 10^6 only the sieve decides the A count, with no oracle cross-check
    "density --poly x^2+1 --k 10 --x 1000000 --method sieve --format json",
    "density --poly x^2+1 --k 2 --x 1000000 --method sieve --format json",
]


@pytest.mark.parametrize("command", SCAN_COMMANDS)
def test_scan_stdout_matches_recorded_digest(command, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DYNGCD_CACHE_DIR", str(tmp_path))
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[command]
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
