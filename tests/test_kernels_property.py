"""Property tests: the rank kernels, the orbit-residue kernels, the
factorizer, the residue-class walk and the residue-class sieve against plain
iteration, plain trial division and plain loops, on random inputs."""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyngcd
from dyngcd import arith_core, density_lab, orbit_engine, prime_lab
from dyngcd.arith_core import crt_pair, factorize
from dyngcd.density_lab import (
    GcdQuery,
    _b_mask,
    _class_sieve,
    _class_walk,
    _gcd_vector,
    _hit_classes,
    _hit_densities,
    count_oracle,
    count_sieve,
    floor_identity_B,
    linear_coprime_report,
    series_checkpoints,
    series_density_A,
    series_density_B,
    y_k_lower_bound,
)
from dyngcd.orbit_engine import (
    INF,
    CacheMismatchError,
    IntPolynomial,
    OrdCache,
    _a_mod_vec,
    _first_return,
    _first_return_vec,
    _horner_vec,
    a_mod,
    a_value,
    classify_orbit,
    ell,
    first_zero_scan,
    growth_constant_estimate,
    ord_crt,
    ord_direct,
    ord_direct_capped,
    ord_table,
    parse_polynomial,
)
from dyngcd.prime_lab import low_rank_growth, low_rank_primes, scan_primes

PROPS = settings(max_examples=60, deadline=None, derandomize=True)

# |c| < 2^62 keeps every Horner step of the int64 kernels exact for moduli
# below 2^31; the scalar kernel works on Python ints and takes any size.
SMALL = st.integers(-50, 50)
VEC_COEFF = st.one_of(SMALL, st.integers(-(2**62) + 1, 2**62 - 1))
ANY_COEFF = st.one_of(SMALL, st.integers(-(2**80), 2**80))


@st.composite
def polys(draw, coeff):
    degree = draw(st.integers(2, 4))
    low = draw(st.lists(coeff, min_size=degree, max_size=degree))
    lead = draw(st.one_of(st.integers(1, 5), coeff.filter(lambda c: c >= 1)))
    return IntPolynomial(tuple(low) + (lead,))


@st.composite
def flat_cubics(draw):
    """c3 x^3 + c2 x^2 + c1 x + c0 with c2^2 = 3 c3 c1, such as x^3 + 1: c3
    y^3 plus a constant for y = x + c2 / (3 c3), so a bijection mod every
    p = 2 (mod 3) that does not divide 3 c3.  c2 runs over the multiples of
    the least g with 3 c3 | g^2, so the shift need not be an integer (3 x^3
    + 3 x^2 + x)."""
    c3 = draw(st.integers(1, 6))
    g = next(g for g in range(1, 3 * c3 + 1) if g * g % (3 * c3) == 0)
    c2 = g * draw(st.integers(-3, 3))
    c0 = draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))  # c0 = 0 fixes 0
    return IntPolynomial((c0, c2 * c2 // (3 * c3), c2, c3))


def power_map(c: int, d: int) -> IntPolynomial:
    """(x + c)^d - c, conjugate to y^d by y = x + c: a_n = c^(d^n) - c."""
    coeffs = [math.comb(d, i) * c ** (d - i) for i in range(d + 1)]
    coeffs[0] -= c
    return IntPolynomial(tuple(coeffs))


# shapes that random coefficients almost never draw: cubics injective at
# every other prime, and the power maps, whose ranks come from the
# multiplicative order of c mod p
STRESS_SHAPES = st.one_of(
    flat_cubics().filter(lambda F: classify_orbit(F).wandering),
    st.sampled_from([power_map(c, d) for c in range(2, 10) for d in (2, 3)]),
)


def plain_first_zero(F: IntPolynomial, n: int, cap: int) -> int | None:
    """Least r <= cap with n | a_r by walking the orbit with exact integers,
    reduced once per step; None when there is none."""
    v = 0
    for r in range(1, cap + 1):
        acc = 0
        for c in reversed(F.coeffs):
            acc = acc * v + c
        v = acc % n
        if v == 0:
            return r
    return None


def trial_division(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# the two orbit walks: first return, exact period and residue
# ---------------------------------------------------------------------------


def plain_orbit(F: IntPolynomial, m: int) -> tuple[int, int, list[int]]:
    """(tail, period, a_0 .. a_(tail+period-1)) of the orbit of 0 mod m, by a
    walk that records the first index of each residue until one repeats."""
    first: dict[int, int] = {}
    orbit = []
    v = 0
    while v not in first:
        first[v] = len(orbit)
        orbit.append(v)
        v = F.eval_int(v) % m
    return first[v], len(orbit) - first[v], orbit


def plain_residues(F: IntPolynomial, m: int):
    """(tail, period, a) with a(n) = a_n mod m for every n >= 0."""
    tail, period, orbit = plain_orbit(F, m)

    def a(n):
        return orbit[n] if n < len(orbit) else orbit[tail + (n - tail) % period]

    return tail, period, a


def check_first_return(F, m, free, limited, limit):
    """free is a walk's (r, period, a_r) with room to return; limited is the
    same walk stopped at limit."""
    tail, period, a = plain_residues(F, m)
    r, got_period, v = free
    assert got_period == period and v == a(r) and r >= tail + period
    # period == r exactly when 0 = a_0 is on the cycle, and r is then its
    # first return
    assert (got_period == r) == (tail == 0)
    if tail == 0:
        assert r == next(n for n in range(1, period + 1) if a(n) == 0)
    assert limited == ((limit, 0, a(limit)) if limit < r else free)


def limits_around(r: int):
    """Limits below, at and above a first return at step r."""
    return st.one_of(st.integers(1, max(1, r - 1)), st.just(r), st.integers(r, 2 * r))


@PROPS
@given(F=polys(ANY_COEFF), m=st.integers(1, 3000), data=st.data())
def test_first_return_matches_plain_walk(F, m, data):
    # Brent's walk returns within 3 (tail + period) <= 3m steps
    free = _first_return(F, m, 3 * m)
    limit = data.draw(limits_around(free[0]))
    check_first_return(F, m, free, _first_return(F, m, limit), limit)


def lane_lists(elements):
    """Lists of 1 to 60 lanes, so that a walk has both lockstep rounds (more
    than _TAIL_LANES live lanes) and lanes that finish in the scalar tail."""
    return st.integers(1, 60).flatmap(lambda n: st.lists(elements, min_size=n, max_size=n))


@PROPS
@given(F=polys(ANY_COEFF), m=st.integers(1, 3000), data=st.data())
def test_first_return_resumes_mid_walk(F, m, data):
    free = _first_return(F, m, 3 * m)
    limit = data.draw(limits_around(free[0]))
    a = plain_residues(F, m)[2]
    # after step j < r the tortoise waits at a_pos, pos the last power of two
    # passed (0 at first)
    j = data.draw(st.integers(0, min(free[0], limit) - 1))
    pos = (1 << j.bit_length()) >> 1
    resumed = _first_return(F, m, limit, j, a(j), a(pos), pos)
    assert resumed == _first_return(F, m, limit)


def pooled_rows(coeffs, mods, limits, countdown=False) -> list[tuple[int, ...]]:
    """What _first_return_vec yields for each lane, in lane order: (r,
    period, a_r) of its walk, or (a_limit,) with countdown.  Each lane
    retires exactly once."""
    rows = {}
    walk = _first_return_vec(
        coeffs, np.array(mods, dtype=np.int64), np.array(limits, dtype=np.int64), countdown
    )
    for chunk in walk:
        for i, *row in zip(*(c.tolist() for c in chunk)):
            assert i not in rows
            rows[i] = tuple(row)
    assert sorted(rows) == list(range(len(mods)))
    return [rows[i] for i in range(len(mods))]


@PROPS
@given(F=polys(VEC_COEFF), mods=lane_lists(st.integers(1, 3000)), data=st.data())
def test_first_return_vec_matches_plain_walk(F, mods, data):
    free = pooled_rows(F.coeffs, mods, [3 * m for m in mods])
    limits = [data.draw(limits_around(r)) for r, _, _ in free]
    limited = pooled_rows(F.coeffs, mods, limits)
    for mi, f, got, limit in zip(mods, free, limited, limits):
        check_first_return(F, mi, f, got, limit)


# with the first three pool widths a walk of 65 lanes or more refills its
# pool, so most of its lanes come in with a later batch than the first; the
# default width takes them all in one batch, in their own order
POOL_WIDTHS = (1, 3, 64, orbit_engine._LANE_POOL)


def pool_lanes(F: IntPolynomial, picks) -> list[tuple[int, int, int]]:
    """(m, limit, target) for each pick (m, k, s), with the cases of the
    pooled walk built in.  Every third lane has its limit at its first
    return r, so the return lands on the limit step; the others have k * r
    // 4, below, at or past it.  A lane whose orbit is a pure cycle of period
    p >= 2 (0 comes back at r = p) gets a target (k mod 3) periods past r
    and 1 to p - 1 steps more: its orbit passes 0 again on the way, its
    countdown starts at a 0, and it must not retire there."""
    lanes = []
    for n, (m, k, s) in enumerate(picks):
        r, period, _ = _first_return(F, m, 3 * m)
        limit = r if n % 3 == 0 else max(1, k * r // 4)
        if period == r >= 2:
            target = r + k % 3 * period + 1 + s % (period - 1)
        else:
            target = 1 + s % (3 * m)
        lanes.append((m, limit, target))
    return lanes


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    F=polys(VEC_COEFF),
    picks=st.lists(
        st.tuples(st.integers(1, 200), st.integers(1, 8), st.integers(0, 10**4)),
        min_size=65,
        max_size=100,
    ),
)
# x^2 + 1 has pure cycles mod 2, 5, 10, 13, 26, 41, ... (periods 2, 3, 6, 4, 4, 7)
@example(F=IntPolynomial((1, 0, 1)), picks=[(m, m % 8 + 1, 7 * m) for m in range(1, 101)])
def test_pooled_walk_matches_first_return_and_a_mod(F, picks):
    lanes = pool_lanes(F, picks)
    mods = [m for m, _, _ in lanes]
    walk = [_first_return(F, m, limit) for m, limit, _ in lanes]
    residues = [(a_mod(F, target, m),) for m, _, target in lanes]
    for width in POOL_WIDTHS:
        with mock.patch.object(orbit_engine, "_LANE_POOL", width):
            assert pooled_rows(F.coeffs, mods, [limit for _, limit, _ in lanes]) == walk, width
            targets = [target for *_, target in lanes]
            assert pooled_rows(F.coeffs, mods, targets, countdown=True) == residues, width


# ---------------------------------------------------------------------------
# rank kernels
# ---------------------------------------------------------------------------


@PROPS
@given(F=polys(ANY_COEFF), n=st.integers(1, 3000), data=st.data())
def test_ord_direct_capped_matches_plain_iteration(F, n, data):
    cap = data.draw(st.one_of(st.just(n), st.integers(1, n), st.integers(n, 2 * n)))
    got = ord_direct_capped(F, n, cap)
    z = plain_first_zero(F, n, min(cap, n))
    if cap >= n:
        assert got == (INF if z is None else z)
    else:
        assert got == z


@PROPS
@given(
    F=polys(VEC_COEFF),
    lanes=lane_lists(st.tuples(st.integers(2, 2000), st.integers(0, 4000))),
)
def test_first_zero_scan_matches_plain_iteration(F, lanes):
    mods = [m for m, _ in lanes]
    # caps below, at and above the modulus
    caps = [max(1, min(c, 2 * m)) for m, c in lanes]
    found = first_zero_scan(F, np.array(mods), np.array(caps)).tolist()
    for m, cap, r in zip(mods, caps, found):
        assert r == (plain_first_zero(F, m, cap) or 0)


@PROPS
@given(F=polys(VEC_COEFF), limit=st.integers(2, 300))
def test_ord_table_matches_plain_iteration(F, limit):
    t = ord_table(F, limit)
    assert t[1] == 1
    for n in range(2, limit + 1):
        assert t[n] == (plain_first_zero(F, n, n) or 0)


# prime powers up to 2000, so that p is often ranked (and cached) before p^e
PRIME_POWERS = (4, 8, 16, 64, 512, 1024, 9, 27, 243, 25, 125, 625, 49, 343, 121, 169, 289)


@PROPS
@given(
    F=polys(ANY_COEFF),
    ns=st.lists(
        st.one_of(st.integers(1, 2000), st.sampled_from(PRIME_POWERS)), min_size=1, max_size=40
    ),
)
def test_shared_rank_context_matches_direct_and_fresh(F, ns):
    # one context queried in the drawn order, against ord_direct and a fresh
    # context per query
    shared = OrdCache(F)
    for n in ns:
        r = ord_crt(shared, n)
        assert r == ord_direct(F, n) == ord_crt(OrdCache(F), n)
        assert ell(shared, n) == ell(OrdCache(F), n) == (INF if r == INF else math.lcm(n, r))


@PROPS
@given(F=polys(ANY_COEFF), n=st.integers(2, 2000), data=st.data())
def test_altered_cache_row_is_refused_not_answered(F, n, data, tmp_path_factory):
    # every row the first ranking saved is read again, in the same order, by
    # the second; so the altered row is always read, and must be refused
    c = OrdCache(F)
    ord_crt(c, n)
    path = tmp_path_factory.mktemp("cache") / "ranks.csv"
    c.save(path)
    m = data.draw(st.sampled_from(sorted(c.ranks)))
    old = 0 if c.ranks[m] == INF else c.ranks[m]
    new = data.draw(st.integers(0, m).filter(lambda r: r != old))
    path.write_text(path.read_text().replace(f"\n{m},{old}\n", f"\n{m},{new}\n"))
    altered = OrdCache.load(path, F)
    assert altered.ranks[m] == (INF if new == 0 else new)
    with pytest.raises(CacheMismatchError):
        ord_crt(altered, n)


# ---------------------------------------------------------------------------
# the columnar prime scan: ranks and the injectivity screen
# ---------------------------------------------------------------------------

# the int64 guard admits |c| up to this edge at every prime below 3000
SCAN_EDGE = 2**63 - 1 - 2998**2
SCAN_COEFF = st.one_of(
    SMALL, st.integers(-SCAN_EDGE, SCAN_EDGE), st.sampled_from([-SCAN_EDGE, SCAN_EDGE])
)


def table_injective(F: IntPolynomial, p: int) -> bool:
    """x -> F(x) mod p is a bijection, from the table of all p values: sorted,
    they are 0 .. p-1 exactly when none repeats (sorting is several times
    faster than np.unique's hashing at these sizes)."""
    vals = _horner_vec(F.coeffs, np.arange(p, dtype=np.int64), np.int64(p))
    return np.array_equal(np.sort(vals), np.arange(p))


def plain_scan_ord(F: IntPolynomial, p: int) -> int:
    """The exact scan's ord entry for p from a plain orbit walk: the rank, or
    0 when it is infinite."""
    tail, period, _ = plain_orbit(F, p)
    return period if tail == 0 else 0  # 0 recurs only if it is on the cycle


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    F=st.one_of(polys(SCAN_COEFF).filter(lambda F: classify_orbit(F).wandering), STRESS_SHAPES),
    data=st.data(),
)
def test_scan_columns_match_plain_walk_and_value_table(F, data):
    p_min = data.draw(st.integers(2, 3000))
    p_max = data.draw(st.integers(p_min, 3000))
    below = data.draw(st.integers(1, max(1, p_max - 1)))
    primes = [p for p in range(p_min, p_max + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    injective = [table_injective(F, p) for p in primes]
    want = [plain_scan_ord(F, p) for p in primes]
    scan = scan_primes(F, p_min, p_max)
    assert scan.p.tolist() == primes
    assert scan.injective.tolist() == injective
    assert scan.ord.tolist() == want
    assert scan.ell.tolist() == [math.lcm(p, o) for p, o in zip(primes, want)]
    # the pool at x under its bounded caps: the rows p >= p_min with a
    # finite rank and ell(p) <= x
    for x in (below, p_max):
        pool = prime_lab.ell_pool.__wrapped__(F, x)
        window = pool.p >= p_min
        rows = list(zip(*(c[window].tolist() for c in (pool.p, pool.ord, pool.injective))))
        assert rows == [(p, o, i) for p, o, i in zip(primes, want, injective)
                        if o > 0 and math.lcm(p, o) <= x]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(F=polys(SCAN_COEFF).filter(lambda F: classify_orbit(F).wandering), data=st.data())
def test_pool_widths_change_no_scan_column(F, data):
    # the window [p_min, p_max] screened and walked through lane pools of 1,
    # 2, 7 and 64 (refilled as their lanes retire) and cut from sieve
    # segments of 1, 2, 7 and 64 odd numbers, so that p_min falls inside a
    # segment or on its edge, against the rows p >= p_min of one scan from 2
    # at the default widths
    p_max = data.draw(st.integers(2, 1000))
    whole = scan_primes.__wrapped__(F, 2, p_max)
    for width in (1, 2, 7, 64):
        j = data.draw(st.integers(0, len(whole) - 1))
        low = int(whole.p[j - 1]) + 1 if j else 2
        p_min = data.draw(st.integers(low, int(whole.p[j])))
        keep = whole.p >= p_min
        for seg in (1, 2, 7, 64):
            with (
                mock.patch.object(orbit_engine, "_LANE_POOL", width),
                mock.patch.object(prime_lab, "_LANE_POOL", width),
                mock.patch.object(arith_core, "_SIEVE_SEGMENT", seg),
            ):
                got = scan_primes.__wrapped__(F, p_min, p_max)
            for col in ("p", "ord", "injective"):
                got_col, want_col = getattr(got, col), getattr(whole, col)[keep]
                assert np.array_equal(got_col, want_col), (width, seg, col)


def plain_primes(limit: int) -> list[int]:
    """The primes <= limit by a whole-range sieve of Eratosthenes."""
    mask = [False, False] + [True] * max(limit - 1, 0)
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
    return [n for n in range(limit + 1) if mask[n]]


def _sieve_limits(seg: int) -> list[int]:
    """Limits 0-3, the edges of the first segments of seg odd numbers (a
    segment ends at the odd number 2 * seg * i - 1) and the squares of the
    base primes, each with its neighbours."""
    edges = [2 * seg * i - 1 for i in range(1, 5)] + [p * p for p in (3, 5, 7, 11, 13, 31)]
    return sorted({0, 1, 2, 3} | {e + d for e in edges for d in (-1, 0, 1) if e + d >= 0})


@pytest.mark.parametrize("seg", [1, 2, 3, 5, 8, 64, arith_core._SIEVE_SEGMENT])
def test_segmented_sieve_matches_plain_eratosthenes(seg):
    limits = _sieve_limits(seg)
    with mock.patch.object(arith_core, "_SIEVE_SEGMENT", seg):
        for limit in limits:
            got = arith_core.sieve_primes(limit)
            assert got.dtype == np.int64 and got.tolist() == plain_primes(limit), limit
        blocks = list(arith_core.prime_blocks(limits[-1]))
    assert all(b.dtype == np.int64 for b in blocks)
    assert np.concatenate(blocks).tolist() == plain_primes(limits[-1])


@pytest.mark.parametrize("seg", [1, 7, 64])
@pytest.mark.parametrize("size", [1, 3, 16])
def test_pool_reader_blocks_are_views_of_one_segment(seg, size, monkeypatch):
    # each block the pool reader walks is cut from the segment the sieve
    # yielded last, shares memory with no earlier one and is at most one pool
    # wide; segments of 64 odd numbers hold up to 31 primes here, so blocks
    # of 3 and 16 end most segments short
    segments, blocks = [], []

    def recorded(limit):
        for primes in arith_core.prime_blocks(limit):
            segments.append(primes)
            yield primes

    def scan(F, ps, bound=None):
        assert 1 <= ps.size <= size
        assert np.shares_memory(ps, segments[-1])
        assert not any(np.shares_memory(ps, s) for s in segments[:-1])
        blocks.append(ps.copy())
        return true_scan(F, ps, bound)

    true_scan = prime_lab._scan
    monkeypatch.setattr(arith_core, "_SIEVE_SEGMENT", seg)
    monkeypatch.setattr(prime_lab, "_LANE_POOL", size)
    monkeypatch.setattr(prime_lab, "prime_blocks", recorded)
    monkeypatch.setattr(prime_lab, "_scan", scan)
    limit = 1000
    prime_lab.ell_pool.__wrapped__(parse_polynomial("x^2+1"), limit)
    assert np.concatenate(blocks).tolist() == arith_core.sieve_primes(limit).tolist()


def _sieve_route(q: GcdQuery, x: int) -> tuple:
    cuts = sorted(set(c for c in (x // 4, x // 2, x) if c >= 1))
    return (
        density_lab._sieve_counts(q, x, cuts),
        floor_identity_B(q, x),
        y_k_lower_bound(q, x),
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    poly=st.sampled_from(["x^2+1", "x^2+x+1", "x^3+x^2+1", "x^2+3"]),
    k=st.integers(1, 12),
    x=st.integers(1, 3000),
    sizes=st.tuples(st.sampled_from([1, 2, 3, 7]), st.sampled_from([1, 3, 64]),
                    st.sampled_from([1, 2, 5, 64])),
)
def test_segments_change_no_sieve_count(poly, k, x, sizes):
    # the prime sieve's segments, the pool reader's blocks and the marking's
    # segments (density_lab's import of the sieve's length), each patched to
    # a tiny length on its own, against the default lengths
    q = GcdQuery(OrdCache(parse_polynomial(poly)), k)
    prime_lab.ell_pool.cache_clear()
    want = _sieve_route(q, x)
    seg, block, mark = sizes
    with (
        mock.patch.object(arith_core, "_SIEVE_SEGMENT", seg),
        mock.patch.object(prime_lab, "_LANE_POOL", block),
        mock.patch.object(density_lab, "_SIEVE_SEGMENT", mark),
    ):
        prime_lab.ell_pool.cache_clear()
        got = _sieve_route(q, x)
    prime_lab.ell_pool.cache_clear()
    assert got == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    F=st.one_of(polys(SCAN_COEFF).filter(lambda F: classify_orbit(F).wandering), STRESS_SHAPES),
    x=st.integers(1, 2999),
)
def test_pool_reader_keeps_the_exact_scans_pretty_rows_with_small_ell(F, x):
    exact = scan_primes(F, 2, x)
    keep = exact.pretty & (exact.ell <= x)
    pool = prime_lab.ell_pool.__wrapped__(F, x)
    for col in ("p", "ord", "injective"):
        assert np.array_equal(getattr(pool, col), getattr(exact, col)[keep]), col


@st.composite
def shifted_cubes(draw):
    """c3 (x + s)^3 + c0 with every coefficient inside the guard's edge: a
    bijection at every p = 2 (mod 3) with p not dividing 3 c3, the cubics the
    screen's closed form must call injective."""
    c3 = draw(st.one_of(st.integers(1, 50), st.integers(1, SCAN_EDGE)))
    s_max = int((SCAN_EDGE // c3) ** (1 / 3)) + 1  # then down to the exact edge
    while max(3 * c3 * s_max**2, c3 * s_max**3) > SCAN_EDGE:
        s_max -= 1
    s = draw(st.integers(-s_max, s_max))
    shift = c3 * s**3
    lo, hi = max(-SCAN_EDGE, -SCAN_EDGE - shift), min(SCAN_EDGE, SCAN_EDGE - shift)
    c0 = draw(st.one_of(st.integers(max(lo, -50), min(hi, 50)), st.integers(lo, hi),
                        st.sampled_from([lo, hi])))
    return IntPolynomial((shift + c0, 3 * c3 * s * s, 3 * c3 * s, c3))


@st.composite
def high_degree_polys(draw):
    """Cubics to sextics: the closed forms at reduced degree 3 and 4 and the
    value tables past them."""
    degree = draw(st.sampled_from([4, 5, 6, 3]))  # cubics last: fewer examples go to them
    low = draw(st.lists(SCAN_COEFF, min_size=degree, max_size=degree))
    return IntPolynomial(tuple(low) + (draw(st.integers(1, SCAN_EDGE)),))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(F=st.one_of(high_degree_polys(), shifted_cubes()).filter(
    lambda F: classify_orbit(F).wandering))
def test_injectivity_screen_matches_value_table(F):
    # dropping p = 2 (mod 3) from the cubic rule, or testing c2^2 = c3 c1 in
    # place of c2^2 = 3 c3 c1, fails on the shifted cubes
    scan = scan_primes(F, 2, 2999)
    primes = scan.p.tolist()
    assert scan.injective.tolist() == [table_injective(F, p) for p in primes]
    if F.degree == 3:
        _, c1, c2, c3 = F.coeffs
        if c2 * c2 == 3 * c3 * c1:
            assert all(scan.injective[i] for i, p in enumerate(primes)
                       if p % 3 == 2 and (3 * c3) % p)


# ---------------------------------------------------------------------------
# orbit residues: a_mod and the oracle's gcd vector
# ---------------------------------------------------------------------------


def plain_a_mod(F: IntPolynomial, n: int, m: int) -> int:
    """a_n mod m by n exact evaluations of F, reduced once per step."""
    v = 0
    for _ in range(n):
        v = F.eval_int(v) % m
    return v


def triangular_gcd_vector(F: IntPolynomial, x: int, linear) -> np.ndarray:
    """gcd(G(n), a_n) for n <= x by one triangular pass: every index keeps its
    own modulus, and position n is final after step n, when the slice that
    still steps shrinks past it (about x^2/2 Horner steps)."""
    idx = np.arange(0, x + 1, dtype=np.int64)
    if linear is None:
        mods = idx.copy()
        mods[0] = 1
    else:
        mods = linear[0] * idx + linear[1]
    v = np.zeros(x + 1, dtype=np.int64)
    for i in range(1, x + 1):
        v[i:] = _horner_vec(F.coeffs, v[i:], mods[i:])
    g = np.gcd(mods, v)
    g[0] = 0
    return g


@PROPS
@given(
    F=polys(ANY_COEFF),
    n=st.integers(0, 5000),
    m=st.one_of(st.integers(1, 3000), st.integers(1, 2**62)),
)
def test_a_mod_matches_plain_loop(F, n, m):
    assert a_mod(F, n, m) == plain_a_mod(F, n, m)


# powers of two: their orbits run longest, so their lanes reach the tail
TAIL_MODS = st.one_of(st.integers(1, 3000), st.sampled_from([2**k for k in range(1, 12)]))


@PROPS
@given(F=polys(VEC_COEFF), lanes=lane_lists(st.tuples(TAIL_MODS, st.integers(1, 5000))))
def test_a_mod_vec_matches_a_mod_lane_by_lane(F, lanes):
    mods = np.array([m for m, _ in lanes], dtype=np.int64)
    targets = np.array([n for _, n in lanes], dtype=np.int64)
    got = _a_mod_vec(F.coeffs, mods, targets).tolist()
    assert got == [a_mod(F, n, m) for m, n in lanes]


@PROPS
@given(F=polys(VEC_COEFF), mods=lane_lists(TAIL_MODS.filter(lambda m: m >= 2)))
def test_lane_kernels_leave_a_shared_input_unchanged(F, mods):
    # ord_table passes one array as the moduli and the caps, and _gcd_vector
    # one as the moduli and the targets.  Each modulus comes twice, so that
    # lanes retire in the same round, and powers of two up to 2^11 run on
    # into the scalar tail
    mods = mods + mods
    m = np.array(mods, dtype=np.int64)
    found = first_zero_scan(F, m, m)
    assert m.tolist() == mods
    residues = _a_mod_vec(F.coeffs, m, m)
    assert m.tolist() == mods
    assert np.array_equal(found, first_zero_scan(F, m.copy(), m.copy()))
    assert np.array_equal(residues, _a_mod_vec(F.coeffs, m.copy(), m.copy()))


# linear forms up to 9*600 + 50; the guard admits |c| up to its edge there
ORACLE_M_MAX = 9 * 600 + 50
GUARD_EDGE = 2**63 - 1 - (ORACLE_M_MAX - 1) ** 2
ORACLE_COEFF = st.one_of(
    SMALL, st.integers(-GUARD_EDGE, GUARD_EDGE), st.sampled_from([-GUARD_EDGE, GUARD_EDGE])
)


@PROPS
@given(
    F=polys(ORACLE_COEFF).filter(lambda F: classify_orbit(F).wandering),
    x=st.integers(1, 600),
    linear=st.one_of(st.none(), st.tuples(st.integers(1, 9), st.integers(1, 50))),
)
def test_gcd_vector_matches_triangular_pass(F, x, linear):
    assert np.array_equal(_gcd_vector(F, x, linear), triangular_gcd_vector(F, x, linear))


def test_int64_kernels_refuse_wrapping_coefficients():
    # x^2 + (2^63 - 5) used to wrap in int64 and disagree with ord_direct on
    # 208 moduli up to 3000
    F = IntPolynomial((2**63 - 5, 0, 1))
    with pytest.raises(ValueError, match="int64"):
        ord_table(F, 3000)
    with pytest.raises(ValueError, match="int64"):
        first_zero_scan(F, np.array([7, 11]), np.array([7, 11]))
    # the largest constant term that cannot wrap at moduli up to 3000 is exact
    edge = IntPolynomial((2**63 - 1 - 2999**2, 0, 1))
    t = ord_table(edge, 3000)
    for n in (2, 3, 97, 2999, 3000):
        assert t[n] == (plain_first_zero(edge, n, n) or 0)


# ---------------------------------------------------------------------------
# factorizer
# ---------------------------------------------------------------------------

KNOWN_PRIMES = (2, 3, 997, 1009, 65537, 1000003, 999999937, 2**31 - 1, 10**9 + 7, 10**12 + 39)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 10**12))
def test_factorize_matches_trial_division(n):
    assert factorize(n).factors == trial_division(n)


@PROPS
@given(
    picks=st.lists(
        st.tuples(st.sampled_from(KNOWN_PRIMES), st.integers(1, 3)), min_size=1, max_size=4
    )
)
def test_factorize_products_of_known_primes(picks):
    exps: dict[int, int] = {}
    for p, e in picks:
        exps[p] = exps.get(p, 0) + e
    n = math.prod(p**e for p, e in exps.items())
    if n >= 318665857834031151167461:
        with pytest.raises(ValueError):
            factorize(n)
    else:
        assert factorize(n).factors == tuple(sorted(exps.items()))


# ---------------------------------------------------------------------------
# residue-class walk: floor identity and both density series
# ---------------------------------------------------------------------------

# moduli up to 40 make repeated moduli and incompatible pairs (such as
# 1 mod 4 and 0 mod 6) common
RESIDUE_CLASS = st.integers(1, 40).flatmap(
    lambda m: st.tuples(st.integers(0, m - 1), st.just(m))
)
PRIMES_TO_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    classes=st.lists(RESIDUE_CLASS, max_size=8),
    primes=st.lists(st.sampled_from(PRIMES_TO_37), min_size=8, max_size=8, unique=True),
    base=RESIDUE_CLASS,
    d_max=st.one_of(st.integers(1, 2000), st.integers(1, 10**12)),
    m_extra=st.one_of(st.integers(0, 2000), st.integers(0, 10**12)),
)
def test_class_walk_lists_compatible_subsets_in_lex_order(classes, primes, base, d_max, m_extra):
    ps = sorted(primes)[: len(classes)]
    pool = [(p, r, m) for p, (r, m) in zip(ps, classes)]
    m_max = base[1] + m_extra  # the walk always yields the base class itself
    want = []
    # tuples of ascending indices sort lexicographically, each prefix first
    subsets = sorted(
        s for size in range(len(pool) + 1) for s in itertools.combinations(range(len(pool)), size)
    )
    for subset in subsets:
        sol = base
        for i in subset:
            sol = crt_pair(*sol, *classes[i])
            if sol is None:
                break
        d = math.prod(ps[i] for i in subset)
        if sol is not None and d <= d_max and sol[1] <= m_max:
            want.append((d, (-1) ** len(subset), *sol))
    assert list(_class_walk(pool, base, d_max, m_max)) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    classes=st.lists(RESIDUE_CLASS, max_size=8),
    base=st.integers(1, 30).flatmap(lambda m: st.tuples(st.integers(0, m - 1), st.just(m))),
    j_max=st.integers(0, 300),
)
def test_class_sieve_marks_the_indices_of_some_class(classes, base, j_max):
    pool = [(p, r, m) for p, (r, m) in zip(PRIMES_TO_37, classes)]
    r0, m0 = base
    want = [any((r0 + j * m0 - r) % m == 0 for r, m in classes) for j in range(j_max + 1)]
    hit = np.zeros(j_max + 1, dtype=bool)
    _class_sieve(pool, base, hit, 0)
    assert hit.tolist() == want
    # marks add to what the array holds: split the pool in two markings
    half = len(pool) // 2
    hit = np.zeros(j_max + 1, dtype=bool)
    _class_sieve(pool[:half], base, hit, 0)
    _class_sieve(pool[half:], base, hit, 0)
    assert hit.tolist() == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    classes=st.lists(RESIDUE_CLASS, max_size=8),
    base=st.integers(1, 30).flatmap(lambda m: st.tuples(st.integers(0, m - 1), st.just(m))),
    j_max=st.integers(0, 300),
    seg=st.integers(1, 40),
)
def test_class_sieve_in_segments_marks_the_same_indices(classes, base, j_max, seg):
    pool = [(p, r, m) for p, (r, m) in zip(PRIMES_TO_37, classes)]
    whole = np.zeros(j_max + 1, dtype=bool)
    _class_sieve(pool, base, whole, 0)
    got = []
    for j0 in range(0, j_max + 1, seg):
        hit = np.zeros(min(seg, j_max + 1 - j0), dtype=bool)
        _class_sieve(pool, base, hit, j0)
        got += hit.tolist()
    assert got == whole.tolist()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    classes=st.lists(RESIDUE_CLASS, max_size=8),
    zs=st.lists(st.sampled_from(PRIMES_TO_37), min_size=1, max_size=4, unique=True),
    x=st.integers(1, 300),
)
def test_hit_density_counts_the_indices_of_some_class(classes, zs, x):
    # every z of one marking counts what a marking of its own classes counts
    pool = [(p, r, m) for p, (r, m) in zip(PRIMES_TO_37, classes)]
    zs = sorted(zs)
    want = [
        sum(any(n % m == r for p, r, m in pool if p <= z) for n in range(1, x + 1)) for z in zs
    ]
    progs = [tuple((r, m) for p, r, m in pool if p <= z) for z in zs]
    for mark in (1, 3, 64):
        with mock.patch.object(density_lab, "_SIEVE_SEGMENT", mark):
            got = _hit_densities(pool, zs, x)
        assert [hd.z for hd in got] == zs
        assert [hd.marked_count for hd in got] == want, mark
        assert [hd.progressions for hd in got] == progs


WANDERING = st.builds(
    lambda low, lead: IntPolynomial(tuple(low) + (lead,)),
    st.integers(1, 2).flatmap(lambda d: st.lists(st.integers(-6, 6), min_size=d + 1, max_size=d + 1)),
    st.integers(1, 3),
).filter(lambda F: classify_orbit(F).wandering)
# most k > 6 are not pretty and give empty sums; draw small k more often
SMALL_K = st.one_of(st.integers(1, 6), st.integers(1, 30))


def plain_series(F: IntPolynomial, k: int, T: int, coprime: bool) -> tuple[float, float]:
    """sum of mu(t) / ell(t*k) over squarefree t <= T (coprime to k when
    asked), in ascending t, and the same sum of 1/ell over T/2 < t <= T."""
    cache = OrdCache(F)
    total = block = 0.0
    for t in range(1, T + 1):
        factors = factorize(t).factors
        if any(e > 1 for _, e in factors) or (coprime and math.gcd(t, k) > 1):
            continue
        lt = ell(cache, t * k)
        if lt == INF:
            continue
        total += (-1) ** len(factors) / lt
        if t > T // 2:
            block += 1.0 / lt
    return total, block


def close(got: float, want: float) -> bool:
    # the walk sums depth first, the plain loop in ascending t
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(F=WANDERING, k=SMALL_K, x=st.integers(1, 600))
def test_floor_identity_matches_oracle(F, k, x):
    q = GcdQuery(OrdCache(F), k)
    assert floor_identity_B(q, x) == count_oracle(q, x)[1]


# k with a squared prime, where A(k) drops the class 0 mod ell(p^(e+1)) for e >= 2
SIEVE_K = st.one_of(st.sampled_from((4, 8, 9, 12, 18, 25, 27, 50)), st.integers(1, 60))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(F=st.one_of(WANDERING, STRESS_SHAPES), k=SIEVE_K, x=st.integers(1, 1500))
def test_sieve_matches_oracle(F, k, x):
    q = GcdQuery(OrdCache(F), k)
    assert count_sieve(q, x) == count_oracle(q, x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(F=WANDERING, k=SIEVE_K, x=st.integers(1, 1500))
def test_avoidance_bound_counts_B_off_the_multiples_of_k_primes(F, k, x):
    # the members n of B(k) up to x whose cofactor n / ell(k) is prime to k
    q = GcdQuery(OrdCache(F), k)
    members = np.flatnonzero(_b_mask(_gcd_vector(F, x, None)[1:], k)) + 1
    want = sum(math.gcd(n // ell(q.cache, k), k) == 1 for n in members.tolist())
    assert y_k_lower_bound(q, x) == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(F=WANDERING, k=SMALL_K, T=st.integers(1, 300))
def test_series_match_plain_loop_over_squarefree_t(F, k, T):
    q = GcdQuery(OrdCache(F), k)
    for fn, coprime in ((series_density_B, True), (series_density_A, False)):
        got = fn(q, T)
        want = plain_series(F, k, T, coprime)
        assert close(got.value, want[0]) and close(got.last_block, want[1]), fn.__name__


@settings(max_examples=30, deadline=None, derandomize=True)
@given(F=WANDERING, k=SMALL_K, T=st.integers(1, 400))
def test_series_checkpoints_match_one_truncation_at_a_time(F, k, T):
    # one walk to T against one walk per truncation, bit for bit
    q = GcdQuery(OrdCache(F), k)
    series_b, series_a = series_checkpoints(q, T)
    assert [s.T for s in series_b] == [s.T for s in series_a] == sorted({T // 4, T // 2, T} - {0})
    for checkpoints, fn in ((series_b, series_density_B), (series_a, series_density_A)):
        for got in checkpoints:
            want = fn(q, got.T)
            assert got.value.hex() == want.value.hex()
            assert got.last_block.hex() == want.last_block.hex()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    F=st.one_of(st.just(IntPolynomial((1, 0, 1))), WANDERING),
    k=st.one_of(st.sampled_from((6, 10, 15, 30)), SMALL_K),
    T=st.integers(1, 400),
)
def test_B_series_is_the_sum_over_its_own_walk(F, k, T):
    # series_checkpoints walks the A pool and keeps the nodes prime to k for
    # B; a walk of the B pool alone gives the same floats, bit for bit
    q = GcdQuery(OrdCache(F), k)
    series_b, _ = series_checkpoints(q, T)
    lk = ell(q.cache, k)
    pool = _hit_classes(q, scan_primes(F, 2, T))
    walk = [] if lk == INF else list(_class_walk(pool, (0, lk), T, INF))
    for got in series_b:
        total = block = 0.0
        for d, mu, _, m in walk:
            if d <= got.T:
                total += mu / m
                if d > got.T // 2:
                    block += 1.0 / m
        assert (got.value.hex(), got.last_block.hex()) == (total.hex(), block.hex())


# ---------------------------------------------------------------------------
# one pass per schedule against a pass per point
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    F=WANDERING,
    ab=st.tuples(st.integers(1, 9), st.integers(1, 50)).filter(lambda ab: math.gcd(*ab) == 1),
    x=st.integers(1, 2000),
    zs=st.lists(st.integers(2, 3000), max_size=4),
)
def test_coprime_report_matches_a_scan_per_z(F, ab, x, zs):
    # each z's own scan and hit density, and the tail of a scan to a*x+b
    # walked again for every z, one index of allowance per class.  A small
    # union budget keeps each walk short and takes the marked-density
    # fallback often; both sides read the same budget
    q = GcdQuery(OrdCache(F), 1, linear=ab)
    budget = mock.patch.object(density_lab, "_UNION_NODE_MAX", 2000)
    with budget:
        got = linear_coprime_report(q, x, zs).checkpoints
    tail_pool = _hit_classes(q, scan_primes(F, 2, ab[0] * x + ab[1]))
    want = []
    for z in sorted(set(zs)):
        with budget:
            (hd,) = _hit_densities(_hit_classes(q, scan_primes(F, 2, z)), [z], x)
        hit = float(hd.exact) if hd.exact is not None else hd.marked_density
        residual, n_tail = 0.0, 0
        for p, _, m in tail_pool:
            if p > z:
                residual += 1.0 / m
                n_tail += 1
        lower = 1.0 - hit - residual - (len(hd.progressions) + n_tail) / x
        want.append((z, hit.hex(), residual.hex(), lower.hex()))
    assert [(c.z, *(v.hex() for v in c[1:])) for c in got] == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    F=WANDERING,
    beta=st.sampled_from((0.5, 1.0, 2.0)),
    xs=st.lists(st.integers(1, 20000), min_size=1, max_size=4),
)
def test_low_rank_growth_matches_a_walk_per_x(F, beta, xs):
    rows, _ = low_rank_growth(F, beta, xs)
    want = [(x, len(low_rank_primes(F, beta, x))) for x in sorted(set(xs))]
    assert [(x, count) for x, count, *_ in rows] == want


GROWTH_POLYS = st.builds(
    lambda low, lead: IntPolynomial(tuple(low) + (lead,)),
    st.integers(2, 3).flatmap(
        lambda d: st.lists(st.integers(-(2**16) + 1, 2**16 - 1), min_size=d, max_size=d)
    ),
    st.integers(1, 2**16 - 1),
).filter(lambda F: classify_orbit(F).wandering)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(F=GROWTH_POLYS, n=st.integers(5, 10))
def test_growth_constant_matches_the_exact_orbit_value(F, n):
    # a_n stays small enough to build exactly; its logarithm is the reference
    want = math.log(abs(a_value(F, n))) / F.degree**n
    assert abs(growth_constant_estimate(F, n) - want) <= 1e-12


# ---------------------------------------------------------------------------
# time budget
# ---------------------------------------------------------------------------


def test_rank_of_a_prime_near_1e9_within_seconds():
    F = IntPolynomial((1, 0, 1))
    t0 = time.perf_counter()
    r = ord_crt(OrdCache(F), 10**9 + 7)
    assert time.perf_counter() - t0 < 5.0
    assert r == INF
    # independent certificate: walk the orbit, remembering every value, until
    # one repeats; no zero on the way means 0 is not on the cycle
    n, seen, v = 10**9 + 7, set(), 0
    while v not in seen:
        seen.add(v)
        v = (v * v + 1) % n
        assert v != 0


def test_a_mod_at_index_1e12_within_budget():
    # 10^12 steps are out of reach; mod 10^9+7 the orbit enters a cycle of
    # length 27573 after 4873 steps
    code = ("from dyngcd.orbit_engine import a_mod, parse_polynomial\n"
            "print(a_mod(parse_polynomial('x^2+1'), 10**12, 10**9 + 7))")
    env = {**os.environ, "PYTHONPATH": str(Path(dyngcd.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=5)
    assert res.returncode == 0, res.stderr
    # independent certificate: remember the index of every orbit value until
    # one repeats; from then on the orbit runs round a cycle of known length
    n, p, first, orbit, v = 10**12, 10**9 + 7, {}, [], 0
    while v not in first:
        first[v] = len(orbit)
        orbit.append(v)
        v = (v * v + 1) % p
    mu, lam = first[v], len(orbit) - first[v]
    assert int(res.stdout) == orbit[mu + (n - mu) % lam]
