"""Invariant suites: every structural fact the package relies on, rechecked
from scratch on demand.

Each suite pits two independent routes against each other (vectorized table
vs scalar orbit walk, sieve vs brute force, criterion vs witness search), so a
bug in either side surfaces as a disagreement rather than a silently wrong
number.  The runner returns one result per suite per polynomial; the CLI
prints them as PASS/FAIL lines and exits nonzero on any FAIL.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .orbit_engine import (
    INF,
    IntPolynomial,
    OrdCache,
    a_value,
    check_int64_horner,
    ell,
    nu_p_of_a,
    ord_crt,
    ord_table,
)
from .prime_lab import ell_pool, low_rank_growth, scan_primes
from .density_lab import (
    GcdQuery,
    _b_mask,
    _counts_from_gvec,
    _gcd_vector,
    b_nonempty,
    a_nonempty,
    count_A_inclusion_exclusion,
    count_oracle,
    count_sieve,
    floor_identity_B,
    series_checkpoints,
    y_k_lower_bound,
)

DEFAULT_POLYS = (
    IntPolynomial((1, 0, 1)),
    IntPolynomial((1, 1, 1)),
    IntPolynomial((1, 0, 1, 1)),
)

# the x of the one oracle vector that the oracle_sieve, nonempty and
# subset_collapse suites read; g[n] does not depend on x, so a suite at a
# smaller x reads a prefix of it
_ORACLE_PROBE = 10**4


def _sieve_x(bound: int) -> int:
    """The largest x at which the sieve suites count."""
    return min(5000, 50 * bound // 3)


class SuiteResult(NamedTuple):
    name: str
    poly: str
    ok: bool
    detail: str


def _ell_from_table(t: np.ndarray, n: int) -> int | float:
    r = int(t[n])
    return INF if r == 0 else math.lcm(n, r)


def _orbit_zeros(F: IntPolynomial, m: int, cap: int) -> list[int]:
    v = 0
    zeros = []
    for r in range(1, cap + 1):
        v = F.eval_mod(v, m)
        if v == 0:
            zeros.append(r)
    return zeros


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_exact_divisibility(F, bound, cache, table):
    checked = 0
    for m in range(1, 9):
        am = a_value(F, m)
        for n in range(1, m + 1):
            if m % n:
                continue
            if am % a_value(F, n):
                return False, f"a_{n} does not divide a_{m}"
            checked += 1
    return True, f"{checked} exact divisor pairs"


def _suite_rank_multiples(F, bound, cache, table):
    tlim = len(table) - 1
    finite = [D for D in range(2, tlim + 1) if table[D] > 0]
    sample = finite[:100] + finite[100 :: max(1, len(finite) // 120)]
    checked = 0
    for D in sorted(set(sample)):
        r = int(table[D])
        zeros = _orbit_zeros(F, D, 3 * r)
        if zeros != [r, 2 * r, 3 * r]:
            return False, f"zeros mod {D} at {zeros[:5]}, rank says {r}"
        checked += 1
    return True, f"{checked} moduli: zeros exactly at rank multiples"


def _suite_rank_crt(F, bound, cache, table):
    tlim = len(table) - 1
    bad = 0
    for n in range(2, tlim + 1):
        via_crt = ord_crt(cache, n)
        via_table = INF if table[n] == 0 else int(table[n])
        if via_crt != via_table:
            bad += 1
            if bad == 1:
                first = f"n={n}: crt {via_crt} vs scan {via_table}"
    if bad:
        return False, f"{bad} mismatches, first {first}"
    return True, f"crt route matches the scan for all n <= {tlim}"


def _lcm_pairs(table, bound, first):
    """(n, m, lcm(n, m)) for first <= n <= m <= 2*bound/3, lcm in the table."""
    tlim, top = len(table) - 1, 2 * bound // 3
    for n in range(first, top + 1):
        for m in range(n, top + 1):
            L = math.lcm(n, m)
            if L <= tlim:
                yield n, m, L


def _suite_rank_lcm(F, bound, cache, table):
    checked = 0
    for n, m, L in _lcm_pairs(table, bound, 2):
        rn, rm, rL = int(table[n]), int(table[m]), int(table[L])
        expect = 0 if (rn == 0 or rm == 0) else math.lcm(rn, rm)
        if rL != expect:
            return False, f"ord(lcm({n},{m})) = {rL}, expected {expect}"
        checked += 1
    return True, f"{checked} pairs: ord(lcm) = lcm(ord, ord)"


def _suite_joint_rank(F, bound, cache, table):
    rmax = 20 * bound // 3
    checked = 0
    for n in range(1, bound // 3 + 1):
        ln = ell(cache, n)
        hits = []
        v = 0
        for r in range(1, rmax + 1):
            v = F.eval_mod(v, n)
            if r % n == 0 and v == 0:
                hits.append(r)
        if ln == INF or ln > rmax:
            expect = []
        else:
            expect = list(range(int(ln), rmax + 1, int(ln)))
        if hits != expect:
            return False, f"n={n}: joint hits {hits[:4]}, ell says {ln}"
        checked += 1
    return True, f"{checked} moduli: n | gcd(r, a_r) exactly when ell(n) | r"


def _suite_joint_rank_lcm(F, bound, cache, table):
    checked = 0
    for n, m, L in _lcm_pairs(table, bound, 1):
        ln, lm = _ell_from_table(table, n), _ell_from_table(table, m)
        lL = _ell_from_table(table, L)
        expect = INF if (ln == INF or lm == INF) else math.lcm(int(ln), int(lm))
        if lL != expect:
            return False, f"ell(lcm({n},{m})) = {lL}, expected {expect}"
        checked += 1
    return True, f"{checked} pairs: ell(lcm) = lcm(ell, ell)"


def _suite_prime_ell(F, bound, cache, table):
    scan = scan_primes(F, 2, len(table) - 1)
    pretty = scan.pretty
    checked = 0
    for p, o, lp in zip(*(c[pretty].tolist() for c in (scan.p, scan.ord, scan.ell))):
        expect = p * o if o < p else p
        lt = _ell_from_table(table, p)
        if lp != expect or lt != expect:
            return False, f"ell({p}) = {lp}, table says {lt}, product form says {expect}"
        checked += 1
    return True, f"{checked} pretty primes: ell(p) = p*ord(p) (or p when anomalous)"


def _suite_rank_cap(F, bound, cache, table):
    tlim = len(table) - 1
    for n in range(2, tlim + 1):
        r = int(table[n])
        if r and not (1 <= r <= n):
            return False, f"ord({n}) = {r} breaks the rank cap"
    return True, f"finite ranks within [1, n] for all n <= {tlim}"


def _suite_rigid_valuations(F, bound, cache, table):
    if len(F.coeffs) > 1 and F.coeffs[1] != 0:
        return True, "skipped: nonzero linear coefficient"
    scan = scan_primes(F, 2, 100)
    pretty = scan.p[scan.pretty][:3].tolist()
    if not pretty:
        return True, "skipped: no pretty prime up to 100"
    checked = 0
    for p in pretty:
        emax = min(int(61 * math.log(2) / math.log(p)), 40)
        for n in range(1, 61):
            val = nu_p_of_a(F, n, p, emax)
            if val.value == 0 or val.saturated:
                continue
            for t in (2, 3, 5):
                v2 = nu_p_of_a(F, n * t, p, emax)
                if v2.saturated or v2.value != val.value:
                    return False, (
                        f"nu_{p}(a_{n}) = {val.value} but nu_{p}(a_{n * t}) = {v2.value}"
                    )
                checked += 1
    return True, f"{checked} multiples keep their valuation"


def _suite_anomalous_injective(F, bound, cache, table):
    scan = scan_primes(F, 2, len(table) - 1)
    anom = scan.p[scan.anomalous].tolist()
    bad = scan.p[scan.anomalous & ~scan.injective].tolist()
    if bad:
        return False, f"anomalous primes {bad} not injective"
    return True, f"anomalous primes {anom or 'none'} all injective"


def _first_row(mask: np.ndarray) -> int | None:
    return int(np.argmax(mask)) if mask.any() else None


def _suite_record_consistency(F, bound, cache, table):
    tlim = len(table) - 1
    scan = scan_primes(F, 2, tlim)
    p, o = scan.p, scan.ord
    checks = (
        ((o != 0) & ((o < 1) | (o > p)), "ord({p}) = {o} out of range"),
        (scan.anomalous != (o == p), "anomalous flag wrong at p={p}"),
        (scan.injective & (o == 0), "injective p={p} with infinite rank"),
        (table[p] != o, "scan and table disagree at p={p}"),
    )
    for bad, message in checks:
        i = _first_row(bad)
        if i is not None:
            return False, message.format(p=int(p[i]), o=int(o[i]))
    return True, f"records coherent up to {tlim}"


def _suite_scan_policies(F, bound, cache, table):
    x = _sieve_x(bound)
    exact = scan_primes(F, 2, x)
    pool = ell_pool(F, x)
    kept = np.isin(exact.p, pool.p)
    if np.count_nonzero(kept) != len(pool):
        return False, "policies scanned different primes"
    want = exact.pretty & (exact.ell <= x)
    i = _first_row(want & ~kept)
    if i is not None:
        return False, f"p={int(exact.p[i])}: bound scan dropped ell = {int(exact.ell[i])} <= {x}"
    differ = ~want[kept]
    for col in ("p", "ord", "injective"):
        differ |= getattr(exact, col)[kept] != getattr(pool, col)
    i = _first_row(differ)
    if i is not None:
        return False, f"p={int(pool.p[i])}: policies disagree"
    return True, f"bounded scan consistent with exact up to {x}"


def _suite_low_rank_growth(F, bound, cache, table):
    rows, flagged = low_rank_growth(F, 0.5, (1000, 5000, 10000))
    txt = "; ".join(f"x={x}: {c} vs {b:.1f}" for x, c, b, _ in rows)
    note = " (growth above calibrated power, flagged)" if flagged else ""
    return True, txt + note


def _oracle_counts(q: GcdQuery, x: int) -> tuple[int, int]:
    """count_oracle(q, x), read off the shared oracle vector when the int64
    guard admits _ORACLE_PROBE; a coefficient that only x admits gets its own
    vector at x, as count_oracle builds it."""
    try:
        check_int64_horner(q.F.coeffs, _ORACLE_PROBE)
    except ValueError:
        return count_oracle(q, x)
    return _counts_from_gvec(_gcd_vector(q.F, _ORACLE_PROBE, None), q.k, x)


def _suite_oracle_sieve(F, bound, cache, table):
    x = _sieve_x(bound)
    for k in range(1, 7):
        q = GcdQuery(cache, k)
        if _oracle_counts(q, x) != count_sieve(q, x):
            return False, f"k={k}, x={x}: oracle and sieve disagree"
    return True, f"counts agree for k <= 6 at x = {x}"


def _suite_floor_identity(F, bound, cache, table):
    xs = (100, 1000, _sieve_x(bound))
    for k in range(1, 7):
        q = GcdQuery(cache, k)
        for x in xs:
            fi = floor_identity_B(q, x)
            cb = count_sieve(q, x)[1]
            if fi != cb:
                return False, f"k={k}, x={x}: floor sum {fi} vs count {cb}"
    return True, f"floor sum exact for k <= 6, x in {xs}"


def _suite_inclusion_exclusion(F, bound, cache, table):
    x = 2000
    for k in range(1, 7):
        q = GcdQuery(cache, k)
        via_ie = count_A_inclusion_exclusion(q, x)
        ca = count_sieve(q, x)[0]
        if via_ie != ca:
            return False, f"k={k}: inclusion-exclusion {via_ie} vs direct {ca}"
    return True, f"A-counts decompose over divisors of k at x = {x}"


def _suite_nonempty(F, bound, cache, table):
    g = _gcd_vector(F, _ORACLE_PROBE, None)
    for k in range(1, bound // 6 + 1):
        q = GcdQuery(cache, k)
        nb, na = b_nonempty(q), a_nonempty(q)
        lk = ell(cache, k)
        bmask = _b_mask(g[1:], k)
        bfirst = int(np.nonzero(bmask)[0][0]) + 1 if bmask.any() else None
        afirst = int(np.nonzero(g[1:] == k)[0][0]) + 1 if (g[1:] == k).any() else None
        if nb.holds:
            if lk <= _ORACLE_PROBE and bfirst != int(lk):
                return False, f"k={k}: first B member {bfirst}, criterion says {lk}"
        elif bfirst is not None:
            return False, f"k={k}: criterion empty but {bfirst} lies in B"
        if na.holds:
            if lk <= _ORACLE_PROBE and afirst != int(lk):
                return False, f"k={k}: first A member {afirst}, criterion says {lk}"
        elif afirst is not None:
            return False, f"k={k}: criterion empty but {afirst} lies in A"
    return True, f"criteria match a search to {_ORACLE_PROBE} for k <= {bound // 6}"


def _suite_series_cauchy(F, bound, cache, table):
    T = bound // 2
    for k in (1, 2, 5):
        # the truncations at T and 2T of both series, off one walk to 2T
        for series in series_checkpoints(GcdQuery(cache, k), 2 * T):
            s1, s2 = series[-2:]
            if abs(s2.value - s1.value) > s2.last_block + 1e-12:
                return False, (
                    f"k={k}: |S({2 * T}) - S({T})| = {abs(s2.value - s1.value):.3e}"
                    f" above block {s2.last_block:.3e}"
                )
    return True, f"series increments bounded by their blocks at T = {T}"


def _suite_subset_collapse(F, bound, cache, table):
    x = 2000
    g = _gcd_vector(F, _ORACLE_PROBE, None)[: x + 1]
    for k in range(1, 7):
        amask = g[1:] == k
        bmask = _b_mask(g[1:], k)
        if (amask & ~bmask).any():
            return False, f"k={k}: exact-gcd index outside the closed set"
        if k == 1 and (amask != bmask).any():
            return False, "k=1: the two sets differ"
    return True, f"A within B for k <= 6, equal at k = 1 (x = {x})"


def _suite_y_lower_bound(F, bound, cache, table):
    nicer = len(F.coeffs) > 1 and F.coeffs[1] == 0
    for k in (1, 2, 5):
        q = GcdQuery(cache, k)
        for x in (100, 1000, _sieve_x(bound)):
            y = y_k_lower_bound(q, x)
            ca, cb = count_sieve(q, x)
            if y > cb:
                return False, f"k={k}, x={x}: bound {y} above #B = {cb}"
            if nicer and y > ca:
                return False, f"k={k}, x={x}: bound {y} above #A = {ca}"
    return True, "avoidance bound stays below the counts"


_SUITES = [
    ("exact_divisibility", _suite_exact_divisibility),
    ("rank_multiples", _suite_rank_multiples),
    ("rank_crt", _suite_rank_crt),
    ("rank_lcm", _suite_rank_lcm),
    ("joint_rank", _suite_joint_rank),
    ("joint_rank_lcm", _suite_joint_rank_lcm),
    ("prime_ell", _suite_prime_ell),
    ("rank_cap", _suite_rank_cap),
    ("rigid_valuations", _suite_rigid_valuations),
    ("anomalous_injective", _suite_anomalous_injective),
    ("record_consistency", _suite_record_consistency),
    ("scan_policies", _suite_scan_policies),
    ("low_rank_growth", _suite_low_rank_growth),
    ("oracle_sieve", _suite_oracle_sieve),
    ("floor_identity", _suite_floor_identity),
    ("inclusion_exclusion", _suite_inclusion_exclusion),
    ("nonempty", _suite_nonempty),
    ("series_cauchy", _suite_series_cauchy),
    ("subset_collapse", _suite_subset_collapse),
    ("y_lower_bound", _suite_y_lower_bound),
]


def run_suites(F: IntPolynomial, bound: int = 300) -> list[SuiteResult]:
    """All invariant suites against one polynomial.  bound scales the ranges:
    moduli to bound^2/9, joint checks to 20*bound/3, k to bound/6."""
    if bound < 30:
        raise ValueError("bound must be at least 30")
    cache = OrdCache(F)
    table = ord_table(F, bound * bound // 9)
    results = []
    for name, fn in _SUITES:
        try:
            ok, detail = fn(F, bound, cache, table)
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, str(F), ok, detail))
    return results
