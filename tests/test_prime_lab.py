import copy
import json

import pytest

from dyngcd.orbit_engine import parse_polynomial
from dyngcd.prime_lab import (
    anomalous_report,
    is_injective_mod_p,
    low_rank_growth,
    low_rank_primes,
    mertens_pretty_product,
    pretty_prime_density,
    scan_csv,
    scan_primes,
    tail_partial_sum,
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


def test_sieve_bound_policy_agrees_with_exact():
    """Unresolved records under a bound must really have ell past the bound."""
    exact = _rows(scan_primes(F, 2, 997))
    for p, rec in _rows(scan_primes(F, 2, 997, sieve_bound=50)).items():
        truth = exact[p]
        if rec[0] == -1:  # unresolved
            assert not rec[1]
            assert truth[4] == 0 or truth[4] > 50
        else:
            assert (rec[0], rec[2]) == (truth[0], truth[2])


def test_sieve_bound_never_misses_anomalous():
    # the lone anomalous prime of this polynomial survives any bound
    assert _rows(scan_primes(F, 2, 100, sieve_bound=100))[2][2]


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


def test_scan_csv_refuses_unresolved():
    recs = scan_primes(F, 2, 997, sieve_bound=50)
    assert (recs.ord == -1).any()
    with pytest.raises(ValueError):
        scan_csv(recs)


def test_scans_past_the_kernel_limit_are_refused_before_sieving(monkeypatch):
    from dyngcd import prime_lab

    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(prime_lab, "sieve_primes", no_sieve)
    with pytest.raises(ValueError, match="2\\^31"):
        scan_primes(F, 2**31 - 1000, 2**31)
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


def test_mertens_pretty_product():
    value, count = mertens_pretty_product(F, 20)
    assert count == 3
    assert value == pytest.approx(24 / 65, abs=1e-15)


def test_pretty_prime_density():
    assert pretty_prime_density(F, 20) == pytest.approx(3 / 8)


def test_anomalous_report_verdicts():
    rep = anomalous_report(F, 100)
    assert rep.anomalous_primes == (2,)
    assert rep.f0_divisors == ()
    assert rep.partial_sum == pytest.approx(0.5)
    assert rep.verdict == "plausibly nice"
    # at x = 2 the anomalous prime 2 sits inside (sqrt(x), x]
    assert anomalous_report(F, 2).verdict == "inconclusive"


def test_anomalous_report_first_term_divisors():
    rep = anomalous_report(parse_polynomial("x^2+6"), 10)
    assert rep.f0_divisors == (2, 3)
    assert rep.partial_sum == pytest.approx(1 / 2 + 1 / 3)


def test_anomalous_report_json():
    rep = anomalous_report(F, 100)
    decoded = json.loads(rep.to_json())
    assert decoded["anomalous_primes"] == [2]
    assert decoded["verdict"] == "plausibly nice"
    assert rep.to_json() == anomalous_report(F, 100).to_json()


def test_tail_partial_sum():
    value, comparator = tail_partial_sum(F, 10, 1000, 0.25, 0.75)
    assert value == pytest.approx(0.049193433, abs=1e-8)
    assert comparator == pytest.approx(0.659010229, abs=1e-8)
    assert 0 < value < comparator
    with pytest.raises(ValueError):
        tail_partial_sum(F, 10, 1000, 0.75, 0.25)
    with pytest.raises(ValueError):
        tail_partial_sum(F, 1000, 10, 0.25, 0.75)
