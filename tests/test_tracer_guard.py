"""The benchmark tracer (perfbench/tracer.py) patches dyngcd from outside:
it looks functions up by module and name, and its counter hooks unpack their
arguments by position.  These tests pin what it relies on, so a refactor that
would break `perfbench/run.py --trace 1` fails here instead."""

import importlib.util
import inspect
from pathlib import Path

import dyngcd  # noqa: F401  (loads every submodule the tracer names)
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
