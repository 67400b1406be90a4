import itertools
import json
import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngcd import density_lab
from dyngcd.arith_core import factorize
from dyngcd.orbit_engine import (
    INF,
    IntPolynomial,
    OrdCache,
    PreperiodicOrbitError,
    a_mod,
    ell,
    nu_p_of_a,
    ord_crt,
    parse_polynomial,
)
from dyngcd.density_lab import (
    GcdQuery,
    SelfCheckError,
    _class_walk,
    _hit_classes,
    _hit_densities,
    _union_density,
    a_nonempty,
    b_nonempty,
    build_density_report,
    count_A_inclusion_exclusion,
    count_oracle,
    count_sieve,
    floor_identity_B,
    linear_coprime_report,
    membership,
    series_density_A,
    series_density_B,
    y_k_lower_bound,
)
from dyngcd.prime_lab import ell_pool, scan_primes
from dyngcd.verify import DEFAULT_POLYS

F = parse_polynomial("x^2+1")


# ---------------------------------------------------------------------------
# queries and membership
# ---------------------------------------------------------------------------


def test_query_validation():
    with pytest.raises(ValueError):
        GcdQuery(OrdCache(F), 0)
    with pytest.raises(ValueError):
        GcdQuery(OrdCache(F), 1, linear=(2, 2))
    with pytest.raises(ValueError):
        GcdQuery(OrdCache(F), 1, linear=(0, 1))
    with pytest.raises(PreperiodicOrbitError):
        GcdQuery(OrdCache(parse_polynomial("x^2-2")), 1)


def test_identity_only_operations():
    lin = GcdQuery(OrdCache(F), 1, linear=(2, 1))
    with pytest.raises(ValueError):
        count_sieve(lin, 100)
    with pytest.raises(ValueError):
        floor_identity_B(lin, 100)
    with pytest.raises(ValueError):
        b_nonempty(lin)


def test_membership_values():
    q5 = GcdQuery(OrdCache(F), 5)
    assert membership(q5, 15) == (15, 5, True, True)
    assert membership(q5, 45) == (45, 5, True, True)
    assert membership(q5, 26) == (26, 2, False, False)
    assert membership(q5, 52) == (52, 26, False, False)
    assert membership(GcdQuery(OrdCache(F), 26), 52) == (52, 26, True, True)
    # gcd a power of the target prime counts for the closed set, not the exact one
    q2 = GcdQuery(OrdCache(F), 2)
    mv = membership(q2, 52)
    assert mv.g == 26 and not mv.in_A and not mv.in_B
    with pytest.raises(ValueError):
        membership(q5, 0)


def test_membership_linear_form():
    mv = membership(GcdQuery(OrdCache(F), 1, linear=(2, 1)), 12)
    assert mv.g == 5 and not mv.in_A


def _every_route(q: GcdQuery) -> tuple:
    return (
        count_sieve(q, 600),
        floor_identity_B(q, 600),
        series_density_B(q, 300),
        series_density_A(q, 300),
        b_nonempty(q),
        a_nonempty(q),
        build_density_report(q, 600, method="sieve", T=200),
    )


def test_shared_cache_matches_fresh_queries():
    for G in DEFAULT_POLYS:
        shared = OrdCache(G)
        for k in (1, 2, 5, 10, 13):
            q = GcdQuery(shared, k)
            assert q.cache is shared
            assert _every_route(q) == _every_route(GcdQuery(OrdCache(G), k))
        assert shared.ranks


def _squarefree_mu(t: int) -> int:
    mu = 1
    for _, e in factorize(t).factors:
        if e > 1:
            return 0
        mu = -mu
    return mu


def test_report_series_keep_every_term_past_64_bits():
    # ell(3107672507741) is about 1.2 * 10^16, and 18 terms of its T = 500
    # walk have an ell(t*k) past 64 bits; every one of them still counts
    k = 3107672507741
    cache = OrdCache(F)
    rep = build_density_report(GcdQuery(cache, k), 500, method="sieve")
    assert rep.flags == []
    sum_b = sum_a = block = Fraction(0)
    for t in range(1, 501):
        mu = _squarefree_mu(t)
        r = ord_crt(cache, t * k) if mu else INF
        if r == INF:
            continue
        term = Fraction(mu, math.lcm(t * k, r))
        sum_a += term
        if math.gcd(t, k) == 1:
            sum_b += term
            if t > 250:
                block += abs(term)
    sb, sa = rep.series[0], rep.series_A[0]
    assert sb.T == sa.T == 500
    assert math.isclose(sb.value, float(sum_b), rel_tol=1e-12)
    assert math.isclose(sa.value, float(sum_a), rel_tol=1e-12)
    assert math.isclose(sb.last_block, float(block), rel_tol=1e-12)


def test_query_cache_follows_replace_and_stays_out_of_eq():
    # with_k is the one way to derive a query, and it keeps the cache
    q = GcdQuery(OrdCache(F), 5)
    sub = q.with_k(10)
    assert sub == GcdQuery(OrdCache(F), 10) and sub.cache is q.cache
    lin = GcdQuery(q.cache, 1, linear=(2, 1)).with_k(3)
    assert (lin.k, lin.linear, lin.cache) == (3, (2, 1), q.cache)
    with pytest.raises(ValueError):
        q.with_k(0)
    # equal and hashed by (F, k, linear) whatever the cache, and immutable
    other = GcdQuery(OrdCache(F), 5)
    assert q == other and hash(q) == hash(other) and q.cache is not other.cache
    assert q != GcdQuery(OrdCache(F), 5, linear=(2, 1)) and q != GcdQuery(OrdCache(F), 6)
    assert repr(q) == "GcdQuery(F=IntPolynomial(coeffs=(1, 0, 1)), k=5, linear=None)"
    with pytest.raises(AttributeError):
        q.k = 6
    twin = pickle.loads(pickle.dumps(q))
    assert twin == q and twin.cache.F == q.cache.F


# ---------------------------------------------------------------------------
# three routes to the counts
# ---------------------------------------------------------------------------

COUNTS_100 = {1: 47, 2: 46, 5: 3, 3: 0}


@pytest.mark.parametrize("k,expected", sorted(COUNTS_100.items()))
def test_counts_at_100(k, expected):
    q = GcdQuery(OrdCache(F), k)
    assert count_oracle(q, 100) == (expected, expected)
    assert count_sieve(q, 100) == (expected, expected)
    assert floor_identity_B(q, 100) == expected


def test_counts_at_1000():
    expected = {1: 465, 2: 448, 5: 33, 6: 0}
    for k, c in expected.items():
        q = GcdQuery(OrdCache(F), k)
        assert count_sieve(q, 1000) == (c, c)
        assert count_oracle(q, 1000) == (c, c)


def test_counts_other_polynomials():
    F2 = parse_polynomial("x^2+x+1")
    F3 = parse_polynomial("x^3+x^2+1")
    for FF, expected in ((F2, {1: 817, 2: 0, 3: 153}), (F3, {1: 826, 2: 0, 3: 155})):
        for k, c in expected.items():
            q = GcdQuery(OrdCache(FF), k)
            assert count_sieve(q, 1000) == count_oracle(q, 1000) == (c, c)


def test_cubic_sieve_at_3e5_within_budget():
    # a value table per prime made this bounded scan O(sum of p): 148 s
    q = GcdQuery(OrdCache(parse_polynomial("x^3+x^2+1")), 1)
    t0 = time.perf_counter()
    counts = count_sieve(q, 300_000)
    assert time.perf_counter() - t0 < 5.0
    assert counts == (247436, 247436)
    assert floor_identity_B(q, 300_000) == 247436


def test_exact_gcd_members():
    q5 = GcdQuery(OrdCache(F), 5)
    members = [n for n in range(1, 101) if membership(q5, n).in_A]
    assert members == [15, 45, 75]


def test_not_pretty_target_is_empty_everywhere():
    q3 = GcdQuery(OrdCache(F), 3)
    assert count_sieve(q3, 10**4) == (0, 0)
    assert floor_identity_B(q3, 10**4) == 0


def test_inclusion_exclusion_route():
    for k in (2, 5, 6):
        q = GcdQuery(OrdCache(F), k)
        assert count_A_inclusion_exclusion(q, 1500) == count_sieve(q, 1500)[0]


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_small_truncation_is_exact_fraction():
    # terms at T = 30: d in {1, 2, 5, 10, 13, 26} with ell(dk) finite
    s = series_density_B(GcdQuery(OrdCache(F), 1), 30)
    assert s.value == pytest.approx(7 / 15, abs=1e-12)
    assert s.last_block == pytest.approx(float(Fraction(1, 52)), abs=1e-12)


def test_series_A_equals_B_for_unit_target():
    for T in (30, 100):
        sa = series_density_A(GcdQuery(OrdCache(F), 1), T)
        sb = series_density_B(GcdQuery(OrdCache(F), 1), T)
        assert sa.value == sb.value


def test_series_A_anchor():
    s = series_density_A(GcdQuery(OrdCache(F), 5), 100)
    assert s.value == pytest.approx(0.0332171893, abs=1e-9)


def test_series_cauchy_increment():
    for k in (1, 5):
        q = GcdQuery(OrdCache(F), k)
        for fn in (series_density_A, series_density_B):
            s1, s2 = fn(q, 150), fn(q, 300)
            assert abs(s2.value - s1.value) <= s2.last_block + 1e-12


def test_series_empty_for_not_pretty():
    s = series_density_B(GcdQuery(OrdCache(F), 3), 200)
    assert s.value == 0.0 and s.last_block == 0.0


# ---------------------------------------------------------------------------
# nonemptiness
# ---------------------------------------------------------------------------


def test_nonempty_verdicts():
    witnesses = {1: 1, 2: 2, 5: 15, 10: 30, 26: 52}
    for k, w in witnesses.items():
        q = GcdQuery(OrdCache(F), k)
        nb, na = b_nonempty(q), a_nonempty(q)
        assert nb.holds and nb.witness == w
        assert na.holds and na.witness == w
        assert membership(q, w).in_A


def test_nonempty_rejections():
    q3 = GcdQuery(OrdCache(F), 3)
    assert not b_nonempty(q3).holds
    assert not a_nonempty(q3).holds
    # 13 is pretty, yet both sets are empty: every multiple of ell(13) is even
    q13 = GcdQuery(OrdCache(F), 13)
    nb, na = b_nonempty(q13), a_nonempty(q13)
    assert not nb.holds and nb.witness is None
    assert not na.holds
    assert "ell(2)=2" in nb.reason
    assert "26" in na.reason


def test_a_nonempty_gcd_from_ranks_matches_the_orbit():
    """gcd(ell(k), a_ell(k)), read off the verdict, against a_mod."""
    checked = 0
    for G in DEFAULT_POLYS:
        cache = OrdCache(G)
        for k in range(1, 400):
            lk = ell(cache, k)
            if lk == INF or lk > 10**4:
                continue
            na = a_nonempty(GcdQuery(cache, k))
            g = int(na.reason.split(" = ")[1].split()[0])
            assert g == math.gcd(lk, a_mod(G, lk, lk)), (str(G), k)
            checked += 1
    assert checked >= 40


A8 = 44127887745906175987802  # a_8 for x^2+1


@pytest.mark.parametrize("k, witness", [
    (A8, 4 * A8),
    # ell(5 * a_8) = 12 * 5 * a_8 is past factorize's 3.18 * 10^23 limit
    (5 * A8, 2647673264754370559268120),
])
def test_nonempty_witness_past_64_bits_is_exact(k, witness):
    q = GcdQuery(OrdCache(F), k)
    nb, na = b_nonempty(q), a_nonempty(q)
    assert nb.holds and nb.witness == witness
    assert na.holds and na.witness == witness
    assert witness == ell(q.cache, k)
    # gcd(witness, a_witness) as the product of p^v over the primes of the
    # witness, with v = nu_p(a_witness) capped at nu_p(witness)
    primes = set(factorize(A8).prime_set()) | {2, 3, 5}
    g = 1
    for p in primes:
        e = 0
        while witness % p ** (e + 1) == 0:
            e += 1
        if e:
            g *= p ** nu_p_of_a(F, witness, p, e).value
    assert g == k


# ---------------------------------------------------------------------------
# the avoidance lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_values():
    assert y_k_lower_bound(GcdQuery(OrdCache(F), 1), 100) == 47
    assert y_k_lower_bound(GcdQuery(OrdCache(F), 1), 1000) == 465
    assert y_k_lower_bound(GcdQuery(OrdCache(F), 2), 100) == 23
    assert y_k_lower_bound(GcdQuery(OrdCache(F), 5), 1000) == 26
    assert y_k_lower_bound(GcdQuery(OrdCache(F), 3), 1000) == 0


def test_verify_builds_one_oracle_vector():
    # one vector at 10^4 that the oracle_sieve (x = 1500), nonempty and
    # subset_collapse suites share
    from dyngcd.verify import run_suites

    density_lab._gcd_vector.cache_clear()
    assert all(r.ok for r in run_suites(F, 90))
    assert density_lab._gcd_vector.cache_info().misses == 1


def test_oracle_sieve_keeps_a_coefficient_that_only_its_own_x_admits():
    # 9999^2 + c reaches 2^63 but 499^2 + c does not: the int64 guard refuses
    # the shared vector at 10^4, so the suite at bound 30 (x = 500) counts on
    # a vector at x, as count_oracle does, and passes
    from dyngcd.verify import _suite_oracle_sieve

    G = IntPolynomial((2**63 - 10**8 + 10**5, 0, 1))
    assert _suite_oracle_sieve(G, 30, OrdCache(G), None) == (
        True,
        "counts agree for k <= 6 at x = 500",
    )


def test_lower_bound_reuses_the_sieve_scan():
    # the sieve, the avoidance bound and the floor identity read one pool at
    # x, and none of them makes a full scan
    q = GcdQuery(OrdCache(F), 2)
    ell_pool.cache_clear()
    misses = scan_primes.cache_info().misses
    count_sieve(q, 1237)
    y_k_lower_bound(q, 1237)
    floor_identity_B(q, 1237)
    assert ell_pool.cache_info().misses == 1
    assert scan_primes.cache_info().misses == misses


def test_lower_bound_leaves_the_cached_pool_alone():
    # the avoidance bound adds the classes of the primes of k to its pool;
    # the pool the sieve and the floor identity read stays as it was
    q = GcdQuery(OrdCache(F), 10)
    ell_pool.cache_clear()
    want = count_sieve(q, 5000), floor_identity_B(q, 5000)
    y = y_k_lower_bound(q, 5000)
    assert y_k_lower_bound(q, 5000) == y
    assert (count_sieve(q, 5000), floor_identity_B(q, 5000)) == want
    assert ell_pool.cache_info().misses == 1


def test_lower_bound_stays_below_counts():
    for k in (1, 2, 5):
        q = GcdQuery(OrdCache(F), k)
        for x in (100, 500, 2000):
            y = y_k_lower_bound(q, x)
            ca, cb = count_sieve(q, x)
            assert y <= cb
            assert y <= ca  # zero linear coefficient: holds for the exact set too


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------


def hit_density(q: GcdQuery, z: int, x: int):
    """The hit density of the pretty primes up to z, off an exact scan to z."""
    (hd,) = _hit_densities(_hit_classes(q, scan_primes(q.F, 2, z)), [z], x)
    return hd


def test_hit_density_exact_fractions():
    q = GcdQuery(OrdCache(F), 1, linear=(2, 1))
    assert hit_density(q, 2, 1000).exact == 0
    assert hit_density(q, 5, 15000).exact == Fraction(1, 15)
    hd = hit_density(q, 13, 15000)
    assert hd.exact == Fraction(1, 15) + Fraction(1, 52) - Fraction(1, 780)
    assert hd.marked_count == 1269


def test_hit_density_marked_matches_exact_on_full_period():
    q = GcdQuery(OrdCache(F), 1, linear=(2, 1))
    hd = hit_density(q, 5, 15000)  # 15 | 15000
    assert Fraction(hd.marked_count, hd.x) == hd.exact


def test_union_density_inclusion_exclusion():
    assert _union_density([(0, 2), (0, 3)]) == Fraction(2, 3)
    assert _union_density([]) == 0
    assert _union_density([(1, 2), (0, 2)]) == 1


# moduli up to 40 that divide 55440, so one period of their lcm is short
# enough to count; a small pool makes repeated moduli and incompatible pairs
# (such as 1 mod 4 and 0 mod 6) common
UNION_MODULI = [m for m in range(1, 41) if 55440 % m == 0]
residue_classes = st.sampled_from(UNION_MODULI).flatmap(
    lambda m: st.tuples(st.integers(0, m - 1), st.just(m))
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(progs=st.lists(residue_classes, max_size=7))
def test_union_density_matches_count_over_one_period(progs):
    period = math.lcm(*(m for _, m in progs))
    hit = sum(any(n % m == r for r, m in progs) for n in range(period))
    assert _union_density(progs) == Fraction(hit, period)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(progs=st.lists(residue_classes, max_size=9), budget=st.integers(1, 40))
def test_union_density_stops_early_exactly_when_the_walk_would(progs, budget):
    # the walk's own verdict: more than budget nodes past the empty subset
    walk = _class_walk([(1, r, m) for r, m in progs], (0, 1), INF, INF)
    over = sum(1 for _ in itertools.islice(walk, 1, budget + 2)) > budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density_lab, "_UNION_NODE_MAX", budget)
        got = _union_density(progs)
    assert (got is None) == over


def test_union_density_over_budget_returns_before_walking(monkeypatch):
    # three classes that meet pairwise give 7 nodes, past a budget of 6
    monkeypatch.setattr(density_lab, "_UNION_NODE_MAX", 6)
    monkeypatch.setattr(density_lab, "_class_walk", None)
    assert _union_density([(0, 2), (1, 3), (0, 5)]) is None


def test_union_density_over_budget_falls_back_to_marked_density(monkeypatch):
    monkeypatch.setattr(density_lab, "_UNION_NODE_MAX", 2)
    assert _union_density([(0, 2), (0, 3), (0, 5)]) is None
    q = GcdQuery(OrdCache(F), 1, linear=(2, 1))
    # two classes and their intersection: three nodes
    hd = hit_density(q, 13, 2000)
    assert hd.exact is None and len(hd.progressions) == 2
    rep = linear_coprime_report(q, 2000, (13,))
    assert rep.checkpoints[0].hit_exact == hd.marked_density


def test_coprime_report():
    q = GcdQuery(OrdCache(F), 1, linear=(2, 1))
    rep = linear_coprime_report(q, 2000, (5, 13))
    assert rep.count_coprime == 1821
    assert rep.density == pytest.approx(0.9105)
    assert [c.z for c in rep.checkpoints] == [5, 13]
    for c in rep.checkpoints:
        assert rep.density >= c.lower_bound
    decoded = json.loads(rep.to_json())
    assert decoded["a"] == 2 and decoded["b"] == 1
    assert decoded["count_coprime"] == 1821


def test_coprime_report_requires_linear_unit():
    with pytest.raises(ValueError):
        linear_coprime_report(GcdQuery(OrdCache(F), 1), 100, (5,))
    with pytest.raises(ValueError):
        linear_coprime_report(GcdQuery(OrdCache(F), 2), 100, (5,))
    # its classes are those of gcd(a*n+b, a_n) = 1, with no prime left out
    with pytest.raises(ValueError, match="k = 1"):
        linear_coprime_report(GcdQuery(OrdCache(F), 2, linear=(2, 1)), 100, (5,))


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------


def test_density_report_fields():
    rep = build_density_report(GcdQuery(OrdCache(F), 5), 1000, method="both", T=400)
    assert rep.count_A == rep.count_B == rep.floor_identity == 33
    assert rep.nonempty_A and rep.nonempty_B and rep.witness == 15
    assert rep.flags == []
    assert [s.T for s in rep.series] == [100, 200, 400]
    assert [cx for cx, _, _ in rep.checkpoints] == [250, 500, 1000]
    decoded = json.loads(rep.to_json())
    assert decoded["count_A"] == 33 and decoded["poly"] == "1,0,1"
    assert decoded["g_form"] == "x"


def test_density_report_json_deterministic():
    a = build_density_report(GcdQuery(OrdCache(F), 2), 500, method="both", T=100).to_json()
    b = build_density_report(GcdQuery(OrdCache(F), 2), 500, method="both", T=100).to_json()
    assert a == b
    assert a.index('"count_A"') < a.index('"count_B"') < a.index('"poly"')


def test_density_report_checkpoints_csv():
    rep = build_density_report(GcdQuery(OrdCache(F), 1), 1000, method="sieve", T=100)
    lines = rep.checkpoints_csv().strip().split("\n")
    assert lines[0] == "x,count_A,count_B,ratio_A,ratio_B"
    assert lines[-1] == "1000,465,465,0.465000000,0.465000000"


# k up to 30 takes in targets whose ell(k) lies past x/4 or past x (13 and 26
# for x^2+1, 23 for x^3+x^2+1, 11 and 21 for 2x^2+3), and targets that are
# not pretty at all
@pytest.mark.parametrize("poly", ["x^2+1", "x^2+x+1", "x^3+x^2+1", "2*x^2+3"])
@pytest.mark.parametrize("x", [60, 200, 8000, 40000])
def test_report_checkpoints_match_fresh_counts(poly, x):
    G = parse_polynomial(poly)
    straddles = 0
    for k in range(1, 31):
        q = GcdQuery(OrdCache(G), k)
        rep = build_density_report(q, x, method="sieve", T=8)
        want = []
        for cx in (x // 4, x // 2, x):
            fresh = count_sieve(GcdQuery(OrdCache(G), k), cx)
            if x <= 8000:
                assert fresh == count_oracle(q, cx)
            want.append((cx, *fresh))
        assert rep.checkpoints == want
        straddles += x // 4 < ell(OrdCache(G), k) <= x
    if x == 200 and poly != "x^2+x+1":
        assert straddles  # some ell(k) lands between the first and last checkpoint


def test_density_report_not_pretty_flag():
    rep = build_density_report(GcdQuery(OrdCache(F), 3), 500, method="both", T=100)
    assert rep.count_A == 0 and not rep.nonempty_B
    assert any("not pretty" in f for f in rep.flags)


def test_self_check_error_is_assertion():
    assert issubclass(SelfCheckError, AssertionError)
