import copy
import math
import pickle

import numpy as np
import pytest

from dyngcd.orbit_engine import (
    INF,
    CacheMismatchError,
    IntPolynomial,
    OrdCache,
    ParseError,
    PreperiodicOrbitError,
    _a_mod_vec,
    a_mod,
    a_value,
    classify_orbit,
    ell,
    first_zero_scan,
    growth_constant_estimate,
    nu_p_of_a,
    ord_crt,
    ord_direct,
    ord_direct_capped,
    ord_table,
    parse_polynomial,
    require_wandering,
)

F = parse_polynomial("x^2+1")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_expression_and_coeff_forms_agree():
    assert parse_polynomial("x^2+1") == parse_polynomial("1,0,1")
    assert parse_polynomial("2*x^3 - x + 5").coeffs == (5, -1, 0, 2)
    assert parse_polynomial("x^2 - 2").coeffs == (-2, 0, 1)
    assert parse_polynomial("x^3+x^2+1").coeffs == (1, 0, 1, 1)


def test_parse_round_trip_through_coeff_key():
    for text in ("x^2+1", "x^2+x+1", "x^3+x^2+1", "3*x^4-2*x^2+7"):
        P = parse_polynomial(text)
        assert parse_polynomial(P.coeff_key()) == P


@pytest.mark.parametrize(
    "bad", ["x^2+", "x+1", "3", "", "-x^2+1", "0,1", "1,1", "x^2+1.5", "y^2+1"]
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad)


def test_polynomial_is_an_immutable_value_keyed_by_its_coefficients():
    P = IntPolynomial((1, 0, 1))
    assert P == F and hash(P) == hash(F) and P is not F
    assert P != IntPolynomial((1, 1, 1)) and P != (1, 0, 1)
    assert {P: "x^2+1"}[F] == "x^2+1"
    assert repr(P) == "IntPolynomial(coeffs=(1, 0, 1))"
    with pytest.raises(AttributeError):
        P.coeffs = (2, 0, 1)
    with pytest.raises(AttributeError):
        del P.coeffs
    with pytest.raises(AttributeError):
        P.extra = 1
    assert P.coeffs == (1, 0, 1)
    assert copy.deepcopy(P) == pickle.loads(pickle.dumps(P)) == P


@pytest.mark.parametrize(
    "coeffs, why",
    [((1, 1), "degree"), ((1, 0, 0), "leading"), ((1, 0, -1), "leading"),
     ((1.0, 0, 1), "integers"), ((1, "0", 1), "integers")],
)
def test_polynomial_refuses_bad_coefficients(coeffs, why):
    with pytest.raises(ParseError, match=why):
        IntPolynomial(coeffs)


def test_str_forms():
    assert str(F) == "x^2 + 1"
    assert str(parse_polynomial("x^2-2")) == "x^2 - 2"
    assert str(parse_polynomial("x^3+x^2+1")) == "x^3 + x^2 + 1"


# ---------------------------------------------------------------------------
# orbit classification
# ---------------------------------------------------------------------------


def test_wandering_orbit():
    oc = classify_orbit(F)
    assert oc.wandering
    require_wandering(F)  # does not raise


def test_preperiodic_orbit_minimal_pair():
    # 0 -> -2 -> 2 -> 2: the first repeated value is 2, hit at steps 2 and 3
    oc = classify_orbit(parse_polynomial("x^2-2"))
    assert not oc.wandering
    assert (oc.preperiod, oc.period) == (2, 1)
    assert oc.prefix == (0, -2, 2, 2)


def test_purely_periodic_orbit():
    oc = classify_orbit(parse_polynomial("x^2-1"))  # 0 -> -1 -> 0
    assert (oc.preperiod, oc.period) == (0, 2)


def test_require_wandering_raises_with_orbit():
    with pytest.raises(PreperiodicOrbitError) as ei:
        require_wandering(parse_polynomial("x^2-2"))
    assert "0 -> -2 -> 2 -> 2" in str(ei.value)


# ---------------------------------------------------------------------------
# orbit values
# ---------------------------------------------------------------------------


def test_orbit_values():
    assert [a_value(F, n) for n in range(7)] == [0, 1, 2, 5, 26, 677, 458330]
    assert a_value(parse_polynomial("x^3+x^2+1"), 3) == 37


def test_a_value_guard():
    with pytest.raises(ValueError):
        a_value(F, 65)


def test_a_mod():
    assert a_mod(F, 4, 100) == 26
    assert a_mod(F, 15, 15) == 5
    assert a_mod(F, 6, 45833) == 0
    assert a_mod(F, 9, 1) == 0


def test_a_mod_modulus_bounds():
    with pytest.raises(ValueError):
        a_mod(F, 3, 0)
    with pytest.raises(ValueError):
        a_mod(F, 3, 2**62 + 1)


# ---------------------------------------------------------------------------
# ranks of apparition
# ---------------------------------------------------------------------------


def test_rank_anchors():
    expected = {2: 2, 5: 3, 13: 4, 10: 6, 677: 5, 45833: 6, 3: INF, 4: INF, 12: INF}
    for n, r in expected.items():
        assert ord_direct(F, n) == r
        assert ord_crt(OrdCache(F), n) == r


def test_rank_capped_three_states():
    assert ord_direct_capped(F, 13, 3) is None     # cap too small to decide
    assert ord_direct_capped(F, 13, 13) == 4
    assert ord_direct_capped(F, 3, 3) == INF       # full cap proves divergence


def test_finite_rank_at_most_modulus():
    t = ord_table(F, 300)
    for n in range(2, 301):
        if t[n]:
            assert 1 <= t[n] <= n


def test_crt_matches_direct_scan():
    t = ord_table(F, 400)
    for n in range(2, 401):
        assert ord_crt(OrdCache(F), n) == (INF if t[n] == 0 else int(t[n]))


def test_rank_other_polynomials():
    F2 = parse_polynomial("x^2+x+1")
    assert ord_direct(F2, 3) == 2
    assert ord_direct(F2, 13) == 3
    assert ord_direct(F2, 61) == 4
    assert ord_direct(F2, 2) == INF
    F3 = parse_polynomial("x^3+x^2+1")
    assert ord_direct(F3, 2) == INF
    assert ord_direct(F3, 3) == 2
    assert ord_direct(F3, 37) == 3


def test_joint_rank_anchors():
    expected = {1: 1, 2: 2, 5: 15, 13: 52, 26: 52, 10: 30, 45833: 274998, 3: INF}
    for n, le in expected.items():
        assert ell(OrdCache(F), n) == le


# ---------------------------------------------------------------------------
# vector kernel
# ---------------------------------------------------------------------------


def test_first_zero_scan_matches_scalar():
    mods = np.arange(2, 200, dtype=np.int64)
    caps = mods.copy()
    found = first_zero_scan(F, mods, caps)
    for m, r in zip(mods.tolist(), found.tolist()):
        direct = ord_direct_capped(F, m, m)
        assert (r if r else INF) == direct


def test_a_mod_vec_matches_scalar_through_the_tail():
    # the oracle's lanes for x^2+x+1: most return within 500 steps, and the
    # last few (1024 and 2048 among them) finish in the scalar tail
    G = parse_polynomial("x^2+x+1")
    mods = np.arange(1, 3001, dtype=np.int64)
    got = _a_mod_vec(G.coeffs, mods, mods).tolist()
    assert got == [a_mod(G, m, m) for m in range(1, 3001)]


def test_first_zero_scan_respects_caps():
    found = first_zero_scan(F, np.array([13, 5]), np.array([3, 3]))
    assert found.tolist() == [0, 3]


def test_first_zero_scan_guards():
    with pytest.raises(ValueError):
        first_zero_scan(F, np.array([2**31]), np.array([5]))
    with pytest.raises(ValueError):
        first_zero_scan(F, np.array([1]), np.array([5]))


def test_ord_table_basics():
    t = ord_table(F, 20)
    assert t[1] == 1 and t[2] == 2 and t[5] == 3 and t[13] == 4
    assert t[3] == 0 and t[12] == 0
    with pytest.raises(ValueError):
        t[2] = 7  # read-only


# ---------------------------------------------------------------------------
# rank cache
# ---------------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    c = OrdCache(F)
    c.put(5, 3)
    c.put(3, INF)
    for n in (1, 2, 13, 25, 65, 2**20):
        c.rank_of(F, n)
    path = tmp_path / "ranks.csv"
    c.save(path)
    c2 = OrdCache.load(path, F)
    assert path.read_text().startswith("# poly=1,0,1\n")
    assert c2.F == c.F == F and c2.ranks == c.ranks
    assert c2.ranks.get(5) == 3
    assert c2.ranks.get(3) == INF
    assert c2.ranks.get(7) is None
    c2.put(7, INF)  # a loaded cache stays mutable
    assert c2.rank_of(F, 7) == INF and 7 not in c.ranks


def test_cache_conflict_and_poly_mismatch(tmp_path):
    c = OrdCache(F)
    c.put(5, 3)
    with pytest.raises(CacheMismatchError):
        c.put(5, 4)
    path = tmp_path / "ranks.csv"
    c.save(path)
    with pytest.raises(CacheMismatchError):
        OrdCache.load(path, parse_polynomial("x^2+x+1"))


def test_cache_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("p,ord\n5,3\n")
    with pytest.raises(CacheMismatchError):
        OrdCache.load(path, F)


@pytest.mark.parametrize(
    "body", ["5,999\n", "5,-1\n", "0,1\n", "5,3\n5,3\n", "5,three\n"]
)
def test_cache_load_refuses_impossible_entries(tmp_path, body):
    path = tmp_path / "ranks.csv"
    path.write_text(f"# poly=1,0,1\n# version=1\np,ord\n{body}")
    with pytest.raises(CacheMismatchError):
        OrdCache.load(path, F)


def test_cache_save_replaces_atomically(tmp_path):
    path = tmp_path / "ranks.csv"
    c = OrdCache(F)
    c.put(5, 3)
    c.save(path)
    before = path.read_text()
    c.ranks[2] = "two"  # fails while the new file is being written
    with pytest.raises(ValueError):
        c.save(path)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ranks.csv"]


def test_cache_rank_of_computes_and_stores():
    c = OrdCache(F)
    assert c.rank_of(F, 13) == 4
    assert c.ranks.get(13) == 4


def test_rank_of_refuses_another_polynomial():
    c = OrdCache(F)
    with pytest.raises(CacheMismatchError):
        c.rank_of(parse_polynomial("x^2+x+1"), 13)
    assert c.ranks == {}


# ---------------------------------------------------------------------------
# valuations and growth
# ---------------------------------------------------------------------------


def test_orbit_valuations():
    assert nu_p_of_a(F, 6, 5, 3) == (1, False)
    assert nu_p_of_a(F, 3, 5, 1) == (1, True)  # ceiling reached, value is a floor
    assert nu_p_of_a(F, 2, 5, 4) == (0, False)


def test_growth_constant():
    # log a_5 / 2^5 with exact integers, then the log-space continuation
    assert growth_constant_estimate(F, 5) == pytest.approx(math.log(677) / 32, abs=1e-12)
    assert growth_constant_estimate(F, 30) == pytest.approx(0.2036772613, abs=1e-8)
    with pytest.raises(ValueError):
        growth_constant_estimate(F, 4)
    with pytest.raises(PreperiodicOrbitError):
        growth_constant_estimate(parse_polynomial("x^2-2"), 8)
