"""Load on demand: `import dyngcd` and the scalar commands leave numpy, the
prime, density and verify layers, and the slow stdlib modules dataclasses and
inspect unloaded, while the package still exports every public name."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyngcd

SRC = str(Path(dyngcd.__file__).parents[1])
HEAVY = ["numpy", "dyngcd.prime_lab", "dyngcd.density_lab", "dyngcd.verify"]
# about 10 ms of imports between them (inspect pulls in ast and dis); numpy
# imports inspect itself, so only the scalar commands can start without it
SLOW_STDLIB = ["dataclasses", "inspect"]

# each command with the stdout it printed before the layers were loaded lazily
SCALAR = [
    ("--version", "dyngcd 0.1.0\n"),
    ("classify --poly x^2-2", "x^2 - 2: preperiodic, preperiod 2, period 1: 0 -> -2 -> 2 -> 2\n"),
    ("ord --poly x^2+x+1 --n 65 --cache r.csv", "n=65 ord=inf ell=inf\n"),  # writes r.csv
    ("ord --poly x^2+x+1 --n 65 --cache r.csv", "n=65 ord=inf ell=inf\n"),  # reads it
]
SCAN = (
    "scan --poly x^2+1 --pmax 30",
    "p,ord,pretty,anomalous,injective,ell\n2,2,1,1,1,2\n3,0,0,0,0,0\n5,3,1,0,0,15\n"
    "7,0,0,0,0,0\n11,0,0,0,0,0\n13,4,1,0,0,52\n17,0,0,0,0,0\n19,0,0,0,0,0\n"
    "23,0,0,0,0,0\n29,0,0,0,0,0\n",
)

_CHILD = """
import contextlib, io, json, sys
from dyngcd.cli import main

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main(argv.split())
        except SystemExit:  # --version
            pass
    return {"out": buf.getvalue(), "loaded": sorted(m for m in HEAVY if m in sys.modules)}

HEAVY = json.loads(sys.argv[1])
print(json.dumps([run(argv) for argv in sys.argv[2:]]))
"""


def test_scalar_commands_load_no_numpy_and_scan_does(tmp_path):
    argvs = [argv for argv, _ in SCALAR] + [SCAN[0]]
    res = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(HEAVY + SLOW_STDLIB), *argvs],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    runs = json.loads(res.stdout)
    for (argv, want), got in zip(SCALAR, runs):
        assert got == {"out": want, "loaded": []}, argv
    assert (tmp_path / "r.csv").exists()
    # scan loads the prime layer and numpy, and no other layer
    assert runs[-1]["out"] == SCAN[1]
    assert [m for m in runs[-1]["loaded"] if m in HEAVY] == ["dyngcd.prime_lab", "numpy"]


def test_no_module_of_the_package_imports_dataclasses():
    for path in sorted(Path(dyngcd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


def test_every_export_is_its_submodule_object():
    for name, module in dyngcd._EXPORTS.items():
        sub = importlib.import_module(f"dyngcd.{module}")
        assert getattr(dyngcd, name) is getattr(sub, name), name


def test_star_import_and_dir_list_every_export():
    ns = {}
    exec("from dyngcd import *", ns)
    assert set(dyngcd.__all__) <= set(ns)
    assert all(ns[name] is getattr(dyngcd, name) for name in dyngcd.__all__)
    assert set(dyngcd.__all__) <= set(dir(dyngcd))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dyngcd.no_such_name
    with pytest.raises(ImportError):
        exec("from dyngcd import no_such_name", {})
