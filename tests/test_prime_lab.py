import copy

import numpy as np
import pytest

from dyngcd import prime_lab
from dyngcd.orbit_engine import parse_polynomial
from dyngcd.prime_lab import (
    is_injective_mod_p,
    low_rank_growth,
    low_rank_primes,
    scan_csv,
    scan_primes,
)

F = parse_polynomial("x^2+1")


# ---------------------------------------------------------------------------
# injectivity of the reduced map
# ---------------------------------------------------------------------------


def test_injectivity_quadratic():
    assert is_injective_mod_p(F, 2)
    assert not is_injective_mod_p(F, 3)
    assert not is_injective_mod_p(F, 5)
    # x^2+x+1 maps both residues mod 2 to 1
    assert not is_injective_mod_p(parse_polynomial("x^2+x+1"), 2)


def test_injectivity_effective_degree_drop():
    # leading coefficient vanishes mod 2, leaving the bijection x+1
    assert is_injective_mod_p(parse_polynomial("2*x^2+x+1"), 2)
    # everything vanishes mod 3 except the constant
    assert not is_injective_mod_p(parse_polynomial("3*x^2+3*x+1"), 3)


def test_injectivity_cubic_table():
    F3 = parse_polynomial("x^3+x^2+1")
    assert not is_injective_mod_p(F3, 2)  # 0 and 1 both land on 1
    assert not is_injective_mod_p(F3, 3)
    assert not is_injective_mod_p(F3, 5)


def test_injectivity_guard():
    with pytest.raises(ValueError):
        is_injective_mod_p(F, 1)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def _rows(scan):
    """p -> (ord, pretty, anomalous, injective, ell) as Python values."""
    cols = (scan.ord, scan.pretty, scan.anomalous, scan.injective, scan.ell)
    return dict(zip(scan.p.tolist(), zip(*(c.tolist() for c in cols))))


def test_exact_scan_small():
    recs = _rows(scan_primes(F, 2, 20))
    assert recs[2] == (2, True, True, True, 2)
    assert recs[5][0] == 3 and recs[5][4] == 15
    assert recs[13][0] == 4 and recs[13][4] == 52
    for p in (3, 7, 11, 17, 19):
        assert recs[p] == (0, False, False, False, 0)  # 0: infinite ord and ell
    assert [p for p, r in sorted(recs.items()) if r[1]] == [2, 5, 13]


def test_scan_columns_stay_read_only():
    scan = scan_primes(F, 2, 50)
    assert len(scan) == 15
    for name in ("p", "ord", "injective"):
        col = getattr(scan, name)
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 0
        with pytest.raises(AttributeError):
            setattr(scan, name, col.copy())
    twin = copy.deepcopy(scan)
    assert twin.p.tolist() == scan.p.tolist() and not twin.ord.flags.writeable


def test_pretty_primes_to_700():
    scan = scan_primes(F, 2, 700)
    pretty = scan.p[scan.pretty].tolist()
    assert pretty == [2, 5, 13, 41, 137, 149, 229, 293, 397, 509, 661, 677]
    assert _rows(scan)[677][0] == 5


def test_scan_range_edges():
    assert len(scan_primes(F, 2, 1)) == 0
    assert scan_primes(F, 10, 20).p.tolist() == [11, 13, 17, 19]


def test_exact_scan_is_one_walk_over_columns_it_owns(monkeypatch):
    # 9,592 primes, more than two pools of lanes, go through one walk; a
    # window's columns own their memory, so a cached window keeps no sieve
    # below p_min alive
    calls = []
    walk = prime_lab.first_zero_scan
    monkeypatch.setattr(prime_lab, "first_zero_scan", lambda *a: calls.append(1) or walk(*a))
    assert len(scan_primes.__wrapped__(F, 2, 10**5)) == 9592
    assert len(calls) == 1
    window = scan_primes.__wrapped__(F, 50000, 10**5)
    assert int(window.p[0]) == 50021 and len(calls) == 2
    for name in ("p", "ord", "injective"):
        assert getattr(window, name).base is None, name


def test_pool_reader_agrees_with_exact():
    """The bounded pool holds exactly the exact scan's rows with ell <= x."""
    exact = _rows(scan_primes(F, 2, 997))
    for x in (50, 997):
        want = {p: rec for p, rec in exact.items() if rec[1] and rec[4] <= x}
        assert _rows(prime_lab.ell_pool(F, x)) == want


def test_pool_reader_never_misses_anomalous():
    # the lone anomalous prime of this polynomial keeps its full cap
    assert _rows(prime_lab.ell_pool(F, 100))[2][2]


def _pool_with(monkeypatch, edit):
    """verify's pool reader, with edit applied to the true pool's columns."""
    from dyngcd import verify

    def pool(G, x):
        cols = [getattr(prime_lab.ell_pool(G, x), c).copy() for c in ("p", "ord", "injective")]
        return prime_lab.PrimeScan(*edit(*cols))

    monkeypatch.setattr(verify, "ell_pool", pool)
    return dict(verify._SUITES)["scan_policies"](F, 30, None, None)


def test_scan_policies_fails_on_a_dropped_row(monkeypatch):
    def drop(p, o, inj):
        return p[p != 5], o[p != 5], inj[p != 5]

    assert _pool_with(monkeypatch, drop) == (False, "p=5: bound scan dropped ell = 15 <= 500")


def test_scan_policies_fails_on_a_changed_rank(monkeypatch):
    def bump(p, o, inj):
        o[p == 13] += 1
        return p, o, inj

    assert _pool_with(monkeypatch, bump) == (False, "p=13: policies disagree")


def test_scan_policies_fails_on_a_prime_it_never_scanned(monkeypatch):
    def extra(p, o, inj):
        return np.append(p, 503), np.append(o, 1), np.append(inj, False)

    assert _pool_with(monkeypatch, extra) == (False, "policies scanned different primes")


def test_scan_csv_golden():
    got = scan_csv(scan_primes(F, 2, 13))
    assert got == (
        "p,ord,pretty,anomalous,injective,ell\n"
        "2,2,1,1,1,2\n"
        "3,0,0,0,0,0\n"
        "5,3,1,0,0,15\n"
        "7,0,0,0,0,0\n"
        "11,0,0,0,0,0\n"
        "13,4,1,0,0,52\n"
    )


def test_scans_past_the_kernel_limit_are_refused_before_sieving(monkeypatch):
    from dyngcd import prime_lab

    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(prime_lab, "sieve_primes", no_sieve)
    monkeypatch.setattr(prime_lab, "prime_blocks", no_sieve)
    with pytest.raises(ValueError, match="2\\^31"):
        scan_primes(F, 2**31 - 1000, 2**31)
    with pytest.raises(ValueError, match="2\\^31"):
        prime_lab.ell_pool(F, 2**31)
    with pytest.raises(ValueError, match="2\\^31"):
        low_rank_primes(F, 2.0, 2**31)
    assert len(scan_primes(F, 2**31 + 5, 2**31)) == 0  # empty range, nothing to refuse


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_low_rank_primes():
    assert low_rank_primes(F, 2.0, 1000) == [2, 5, 13, 41, 149, 293, 509, 661, 677, 709]
    assert low_rank_primes(F, 0.5, 1000) == []
    with pytest.raises(ValueError):
        low_rank_primes(F, 0, 1000)


def test_low_rank_growth_shape():
    rows, flagged = low_rank_growth(F, 2.0, (100, 1000))
    assert [x for x, _, _, _ in rows] == [100, 1000]
    assert rows[0][3]  # calibration point is always within its own bound
    assert isinstance(flagged, bool)


def test_low_rank_growth_refuses_a_checkpoint_below_one():
    with pytest.raises(ValueError, match="checkpoints must be >= 1"):
        low_rank_growth(F, 0.5, (0, 100))


def test_low_rank_growth_walks_once(monkeypatch):
    calls = []
    walk = prime_lab.first_zero_scan
    monkeypatch.setattr(prime_lab, "first_zero_scan", lambda *a: calls.append(1) or walk(*a))
    low_rank_growth(F, 0.5, (1000, 5000, 10000))
    assert len(calls) == 1
