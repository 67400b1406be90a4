"""CLI stdout is byte-identical to the digests the benchmark checks against.

perfbench/digests.json maps each benchmark command to the sha256 of its
stdout.  Every recorded command is replayed here in-process, each with its
own temporary DYNGCD_CACHE_DIR for the --cache file it names; the file is
only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dyngcd.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text(encoding="utf-8")
)
# the commands whose cost is a prime scan at the benchmark's sizes: the exact
# scans of scan and series, and the bounded scan of the sieve route at 10^6
SCAN_COMMANDS = sorted(
    c for c in DIGESTS if c.split()[0] in ("scan", "series") or "--method sieve" in c
)
COMMANDS = sorted(set(DIGESTS) - set(SCAN_COMMANDS))


def _replay(command, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DYNGCD_CACHE_DIR", str(tmp_path))
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIGESTS[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_recorded_digest(command, capsys, tmp_path, monkeypatch):
    _replay(command, capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("command", SCAN_COMMANDS)
def test_scan_stdout_matches_recorded_digest(command, capsys, tmp_path, monkeypatch):
    _replay(command, capsys, tmp_path, monkeypatch)
