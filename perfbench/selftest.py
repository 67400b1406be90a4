"""Tests of the benchmark itself:

    python3 -m pytest -q perfbench/selftest.py

Named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import spans as sp  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from dyngcd.density_lab import _gcd_vector  # noqa: E402
from dyngcd.orbit_engine import IntPolynomial, first_zero_scan, ord_direct_capped  # noqa: E402

POLYS = [IntPolynomial(wl.COEFFS[p]) for p in wl.POLYS]


def _plain_steps(F: IntPolynomial, n: int, cap: int) -> tuple[int, bool]:
    """Horner steps until a_r = 0 mod n or r = cap, and whether 0 was hit."""
    v = 0
    for r in range(1, cap + 1):
        v = F.eval_mod(v, n)
        if v == 0:
            return r, True
    return cap, False


# -- generator ----------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    for w in wl.WORKLOADS:
        for seed in (0, 1, 7):
            assert wl.generate(w, seed) == wl.generate(w, seed)


def test_different_seeds_give_different_inputs():
    for w in ("rank", "scan", "density"):
        lists = [wl.generate(w, seed) for seed in range(6)]
        for a, b in itertools.combinations(lists, 2):
            assert a != b, w
    # verify only orders its three commands
    orders = {tuple(c.key for c in wl.generate("verify", seed)) for seed in range(10)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(next(iter(orders))) for o in orders)


def test_every_generated_command_is_checked():
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        digests = json.load(fh)
    catalog = {c.key for c in wl.catalog()}
    assert catalog == set(digests)
    for w in wl.WORKLOADS:
        for seed in range(20):
            for cmd in wl.generate(w, seed):
                assert cmd.expect is not None or cmd.key in catalog, cmd.key


def test_rank_reference_matches_plain_iteration():
    for F in POLYS:
        for n in range(1, 400):
            steps, hit = _plain_steps(F, n, n)
            assert wl.orbit_rank(F.coeffs, n) == (steps if hit else None), (F, n)


def test_catalog_ranks_hold():
    finite = wl.load_catalog()["finite_rank_primes"]
    for poly, rows in finite.items():
        F = IntPolynomial(wl.COEFFS[poly])
        assert len(rows) >= 2
        for p, r in rows[:3]:
            assert _plain_steps(F, p, p) == (r, True)


# -- percentile and span arithmetic -------------------------------------------


def test_percentile():
    assert sp.median([3.0, 1.0, 2.0]) == 2.0
    assert sp.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert sp.percentile([1, 2, 3, 4, 5], 25) == 2
    assert sp.percentile([10, 20], 25) == 12.5
    assert sp.percentile([5, 1, 9], 0) == 1
    assert sp.percentile([5, 1, 9], 100) == 9


def _tree():
    # root [0, 10]: A [1, 4] holding a [2, 3]; B [5, 9] holding B [6, 8]
    return [
        ["cli.x", 0.0, 10.0, -1, 0],
        ["A", 1.0, 4.0, 0, 0],
        ["a", 2.0, 3.0, 1, 0],
        ["B", 5.0, 9.0, 0, 0],
        ["B", 6.0, 8.0, 3, 0],
    ]


def test_self_times_on_a_hand_built_tree():
    assert sp.self_times(_tree()) == [3.0, 2.0, 1.0, 2.0, 2.0]
    lt = sp.layer_times(_tree())
    assert lt["cli.x.s"] == 10.0 and lt["cli.x.self_s"] == 3.0
    assert lt["A.s"] == 3.0 and lt["A.self_s"] == 2.0
    assert lt["B.s"] == 4.0  # the nested B is inside the outer one
    assert lt["B.self_s"] == 4.0
    assert sum(v for k, v in lt.items() if k.endswith(".self_s")) == 10.0
    assert sp.tree_error(_tree()) is None


def test_tree_error_catches_bad_nesting():
    bad = _tree()
    bad[4][2] = 9.5  # the inner B now ends after the outer one
    assert "leaves its parent" in sp.tree_error(bad)
    bad = _tree()
    bad[1][3] = 2  # A names a later span as its parent
    assert "before its parent" in sp.tree_error(bad)
    assert "root" in sp.tree_error(_tree() + [["C", 11.0, 12.0, -1, 0]])


# -- work counters --------------------------------------------------------------


def test_scalar_step_formula_matches_plain_iteration():
    for F in POLYS:
        for n in range(2, 80):
            for cap in {1, max(1, n // 2), n, 2 * n}:
                r = ord_direct_capped(F, n, cap)
                assert tracer.scalar_steps(r, cap) == _plain_steps(F, n, cap)[0], (F, n, cap)


def test_lockstep_step_formula_matches_plain_iteration():
    rng = np.random.default_rng(0)
    for F in POLYS:
        mods = np.arange(2, 120, dtype=np.int64)
        caps = np.minimum(mods, rng.integers(1, 150, size=mods.size))
        steps = tracer.lockstep_steps(first_zero_scan(F, mods, caps), caps)
        plain = [_plain_steps(F, int(n), int(c))[0] for n, c in zip(mods, caps)]
        assert steps.tolist() == plain
        assert int(steps.max()) == max(plain)  # rounds of the lockstep loop


def test_oracle_lane_steps_match_the_triangular_pass():
    for x in (1, 2, 10, 37):
        lanes = sum(len(range(i, x + 1)) for i in range(1, x + 1))
        assert tracer.oracle_lane_steps(x) == lanes
        assert _gcd_vector(POLYS[0], x, None).shape == (x + 1,)


# -- traced command, end to end -------------------------------------------------


def _traced(argv, tmp_path, tag):
    out = tmp_path / f"{tag}.json"
    env = {**os.environ, "PERFBENCH_TRACE_OUT": str(out), "PERFBENCH_CMD": "3",
           "DYNGCD_CACHE_DIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans, counts = tracer.Recorder.load(out)
    return proc.stdout, {"spans": spans, "counts": counts}


def test_traced_command_counts_repeat_and_spans_nest(tmp_path):
    argv = ["density", "--poly", "x^2+1", "--k", "2", "--x", "300", "--method", "both",
            "--format", "json"]
    plain = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                           capture_output=True, text=True, timeout=120)
    out1, tr1 = _traced(argv, tmp_path, "a")
    out2, tr2 = _traced(argv, tmp_path, "b")
    assert out1 == out2 == plain.stdout  # tracing leaves stdout alone
    assert tr1["counts"] == tr2["counts"]
    assert sp.tree_error(tr1["spans"]) is None
    assert {s[4] for s in tr1["spans"]} == {3}
    c = tr1["counts"]
    assert c["density_lab.oracle.lane_steps"] == 300 * 301 // 2
    assert c["prime_lab.scan_primes.memo_hits"] > 0  # floor identity reuses the sieve scan
    names = {s[0] for s in tr1["spans"]}
    assert {"cli.density", "density_lab.build_density_report", "density_lab.count_sieve",
            "prime_lab.scan_primes", "density_lab.oracle", "density_lab.nonempty"} <= names


def test_rank_cache_counts(tmp_path):
    _, tr = _traced(["ord", "--poly", "x^2+1", "--n", "65", "--n", "13", "--cache", "c.csv"],
                    tmp_path, "ord")
    c = tr["counts"]
    # ord(65) misses on 5 and 13; ell(65) hits both; ord(13) and ell(13) hit 13
    assert c["orbit_engine.OrdCache.rank_of.misses"] == 2
    assert c["orbit_engine.OrdCache.rank_of.hits"] == 4
    assert c["orbit_engine.OrdCache.save.entries"] == 2
    assert c["orbit_engine.ord_direct_capped.calls"] == 2
    _, tr = _traced(["ord", "--poly", "x^2+1", "--n", "65", "--cache", "c.csv"], tmp_path, "again")
    assert tr["counts"]["orbit_engine.OrdCache.load.entries"] == 2
    assert "orbit_engine.OrdCache.rank_of.misses" not in tr["counts"]
