"""The benchmark tracer (perfbench/tracer.py) patches dyngcd from outside:
it looks functions up by module and name, and its counter hooks unpack their
arguments by position.  These tests pin what it relies on, so a refactor that
would break `perfbench/run.py --trace 1` fails here instead."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import dyngcd  # loads no submodule: its public names resolve on first use
from dyngcd import density_lab, orbit_engine, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_span_resolves():
    import importlib

    for modname, attr, _, _ in _load_tracer().SPANS:
        mod = importlib.import_module(f"dyngcd.{modname}")
        assert callable(getattr(mod, attr, None)), f"dyngcd.{modname}.{attr}"


def test_suites_are_name_function_pairs():
    assert isinstance(verify._SUITES, list) and verify._SUITES
    for entry in verify._SUITES:
        name, fn = entry
        assert isinstance(name, str) and callable(fn)


def _params(fn):
    return list(inspect.signature(inspect.unwrap(fn)).parameters)


def test_positional_hook_signatures_unchanged():
    assert _params(orbit_engine.ord_direct_capped) == ["F", "n", "cap"]
    assert _params(orbit_engine.first_zero_scan) == ["F", "mods", "caps"]
    assert _params(density_lab._gcd_vector) == ["F", "x", "linear"]
    assert _params(orbit_engine.OrdCache.rank_of) == ["self", "F", "n"]


def test_rank_cache_keeps_what_install_patches():
    # install replaces rank_of and save on the class, unwraps load from the
    # class body as a classmethod, and its hooks read cache.ranks
    cls = orbit_engine.OrdCache
    assert isinstance(cls.__dict__["load"], classmethod)
    assert _params(cls.save) == ["self", "path"]
    assert _params(cls.__dict__["load"].__func__)[:2] == ["cls", "path"]
    assert cls(orbit_engine.parse_polynomial("x^2+1")).ranks == {}


def test_verify_import_loads_the_layers_install_reads():
    # tracer.install imports dyngcd.verify, then finds prime_lab and
    # density_lab in sys.modules; a fresh process shows what that import loads
    code = "import sys, dyngcd.verify; print(*sorted(m for m in sys.modules if m.startswith('dyngcd.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(dyngcd.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert {"dyngcd.prime_lab", "dyngcd.density_lab"} <= set(res.stdout.split())


def test_scan_length_is_its_prime_count():
    # tracer._count_scan adds len(result) to prime_lab.scan_primes.primes
    from dyngcd.prime_lab import scan_primes

    F = orbit_engine.parse_polynomial("x^2+1")
    for a, b in ((2, 100), (90, 400), (24, 28), (1, 1)):
        primes = [p for p in range(max(a, 2), b + 1) if all(p % d for d in range(2, p))]
        assert len(scan_primes(F, a, b)) == len(primes)
