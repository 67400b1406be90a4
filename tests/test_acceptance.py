"""Acceptance harness: ten end-to-end checks with pinned tolerances and time
budgets.  Each prints one PASS/FAIL line (run pytest with -s to see them all)
and fails its test on any miss."""

import contextlib
import io
import math
import time
from fractions import Fraction

import numpy as np

from dyngcd.orbit_engine import OrdCache, parse_polynomial
from dyngcd.cli import main
from dyngcd.prime_lab import scan_primes
from dyngcd.orbit_engine import nu_p_of_a
from dyngcd.density_lab import (
    GcdQuery,
    _b_mask,
    _gcd_vector,
    _hit_classes,
    _hit_densities,
    b_nonempty,
    a_nonempty,
    count_oracle,
    count_sieve,
    ell,
    floor_identity_B,
    linear_coprime_report,
    series_density_A,
)
from dyngcd.verify import DEFAULT_POLYS, run_suites

F1 = parse_polynomial("x^2+1")
F2 = parse_polynomial("x^2+x+1")
F3 = parse_polynomial("x^3+x^2+1")
POLYS = (F1, F2, F3)
GRID_K = (1, 2, 5, 6)
GRID_X = (100, 1000, 5000)


def _line(num, ok, msg):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def test_acceptance_01_three_routes_agree():
    t0 = time.time()
    bad = []
    for F in POLYS:
        for k in GRID_K:
            q = GcdQuery(OrdCache(F), k)
            for x in GRID_X:
                o = count_oracle(q, x)
                s = count_sieve(q, x)
                f = floor_identity_B(q, x)
                if not (o == s and f == s[1]):
                    bad.append((str(F), k, x, o, s, f))
    dt = time.time() - t0
    _line(1, not bad and dt < 60,
          f"oracle = sieve = floor sum on {len(POLYS)}x{len(GRID_K)}x{len(GRID_X)} grid, "
          f"tolerance 0, {dt:.1f}s (budget 60s); mismatches: {bad or 'none'}")


def test_acceptance_02_exact_gcd_counts_agree():
    bad = []
    for F in POLYS:
        for k in GRID_K:
            q = GcdQuery(OrdCache(F), k)
            for x in GRID_X:
                if count_oracle(q, x)[0] != count_sieve(q, x)[0]:
                    bad.append((str(F), k, x))
    _line(2, not bad, f"exact-gcd counts by sieve match brute force on the grid; mismatches: {bad or 'none'}")


def test_acceptance_03_frozen_count_anchors():
    got = {k: count_oracle(GcdQuery(OrdCache(F1), k), 100)[0] for k in (1, 2, 5)}
    got[3] = count_oracle(GcdQuery(OrdCache(F1), 3), 10**4)[0]
    expected = {1: 47, 2: 46, 5: 3, 3: 0}
    _line(3, got == expected, f"x^2+1 anchors k=1,2,5 at x=100 and k=3 at x=10^4: {got} == {expected}")


def test_acceptance_04_invariant_suites():
    t0 = time.time()
    results = [r for G in DEFAULT_POLYS for r in run_suites(G, 300)]
    dt = time.time() - t0
    fails = [(r.name, r.poly) for r in results if not r.ok]
    _line(4, not fails and dt < 120,
          f"{len(results)} invariant suite runs at bound 300, {dt:.1f}s (budget 120s); failures: {fails or 'none'}")


def test_acceptance_05_series_tracks_density_at_scale():
    t0 = time.time()
    q = GcdQuery(OrdCache(F1), 1)
    truncs = {T: series_density_A(q, T) for T in (500, 1000, 2000)}
    ca, cb = count_sieve(q, 10**5)
    fi = floor_identity_B(q, 10**5)
    ratio = ca / 10**5
    gap = abs(truncs[2000].value - ratio)
    steps_ok = (
        abs(truncs[1000].value - truncs[500].value) <= truncs[1000].last_block + 1e-12
        and abs(truncs[2000].value - truncs[1000].value) <= truncs[2000].last_block + 1e-12
    )
    dt = time.time() - t0
    _line(5, gap <= 0.02 and fi == cb and steps_ok and dt < 300,
          f"series T=2000 value {truncs[2000].value:.6f} vs count ratio {ratio:.6f} at x=10^5 "
          f"(gap {gap:.2e} <= 0.02), floor sum {fi} == count {cb}, increments within blocks, "
          f"{dt:.1f}s (budget 300s)")


def test_acceptance_06_rigid_valuations():
    bad = []
    checked = 0
    for F in (F1, F3):  # zero linear coefficient
        scan = scan_primes(F, 2, 100)
        pretty = scan.p[scan.pretty][:3].tolist()
        for p in pretty:
            emax = min(int(61 * math.log(2) / math.log(p)), 40)
            for n in range(1, 41):
                v = nu_p_of_a(F, n, p, emax)
                if v.value == 0 or v.saturated:
                    continue
                checked += 1
                for t in (2, 3):
                    v2 = nu_p_of_a(F, n * t, p, emax)
                    if v2.value != v.value or v2.saturated:
                        bad.append((str(F), p, n, t))
    _line(6, checked > 50 and not bad,
          f"{checked} prime-power valuations frozen along index multiples, tolerance 0; violations: {bad or 'none'}")


def test_acceptance_07_anomalous_primes_are_injective():
    t0 = time.time()
    details = []
    ok = True
    for F in POLYS:
        scan = scan_primes(F, 2, 10**4)
        anom = scan.p[scan.anomalous].tolist()
        if not scan.injective[scan.anomalous].all():
            ok = False
        if F.degree == 2 and any(p > 2 for p in anom):
            ok = False  # odd primes cannot carry an injective quadratic
        details.append(f"{F}: {anom or 'none'}")
    dt = time.time() - t0
    _line(7, ok and dt < 60,
          f"anomalous primes to 10^4 all injective ({'; '.join(details)}), {dt:.1f}s (budget 60s)")


def test_acceptance_08_linear_form_desk_check():
    q = GcdQuery(OrdCache(F1), 1, linear=(2, 1))

    def hit_density(z, x):
        (hd,) = _hit_densities(_hit_classes(q, scan_primes(F1, 2, z)), [z], x)
        return hd

    d13 = hit_density(13, 15000).exact
    d5 = hit_density(5, 15000).exact
    fractions_ok = (
        d5 == Fraction(1, 15)
        and d13 == Fraction(1, 15) + Fraction(1, 52) - Fraction(1, 780)
    )
    rep = linear_coprime_report(q, 10**4, (5, 13, 677))  # raises on a bound breach
    union = hit_density(677, 10**4).exact
    near = abs(rep.density - (1 - float(union)))
    _line(8, fractions_ok and rep.density >= 0.85 and near <= 0.01,
          f"gcd(2n+1, a_n)=1 density {rep.density:.4f} >= 0.85, within {near:.2e} <= 0.01 of "
          f"1 - exact union {float(union):.6f}; small cutoffs exactly 1/15 and 11/130")


def test_acceptance_09_nonemptiness_criteria():
    probe = 10**4
    g = _gcd_vector(F1, probe, None)
    cache = OrdCache(F1)
    bad = []
    for k in range(1, 51):
        q = GcdQuery(cache, k)
        nb, na = b_nonempty(q), a_nonempty(q)
        lk = ell(cache, k)
        bm = _b_mask(g[1:], k)
        bfirst = int(np.nonzero(bm)[0][0]) + 1 if bm.any() else None
        am = g[1:] == k
        afirst = int(np.nonzero(am)[0][0]) + 1 if am.any() else None
        if nb.holds != (bfirst is not None) or (nb.holds and bfirst != lk):
            bad.append(("B", k, bfirst, nb.holds))
        if na.holds != (afirst is not None) or (na.holds and afirst != lk):
            bad.append(("A", k, afirst, na.holds))
    _line(9, not bad,
          f"criteria match a member search to {probe} for every k <= 50 "
          f"(first member is ell(k) exactly); disagreements: {bad or 'none'}")


# diag at x = 10^4: the low-rank counts at x/100, x/10 and x, the pretty
# primes out of the 1229 primes up to 10^4, the growth constant, then the
# anomalous primes and the prime divisors of F(0)
DIAG_ROWS = {
    "x^2+1": (39, "0.0317", "0.203677261", [2], []),
    "x^2+x+1": (17, "0.0138", "0.325764577", [], []),
    "x^3+x^2+1": (33, "0.0269", "0.134067255", [], []),
}


def test_acceptance_10_diagnostics_emit():
    t0 = time.time()
    bad = []
    for poly, (pretty, share, growth, anomalous, f0) in DIAG_ROWS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["diag", "--poly", poly, "--x", "10000"])
        want = (
            "# low-rank primes (beta=0.5)\n"
            "x=100  count=0\nx=1000  count=0\nx=10000  count=0\n"
            "# pretty primes\n"
            f"pretty={pretty} of 1229 primes  share={share}\n"
            f"# growth constant\nlog a_n / d^n -> {growth}\n"
            "# primes p <= x dividing a_p\n"
            f"anomalous (ord = p): {anomalous}\nF(0) divisors (ord = 1): {f0}\n"
        )
        if rc != 0 or out.getvalue() != want:
            bad.append(poly)
    dt = time.time() - t0
    _line(10, not bad and dt < 60,
          f"diag prints the pinned exact rows for {len(DIAG_ROWS)} polynomials at x=10^4, "
          f"{dt:.1f}s (budget 60s); mismatches: {bad or 'none'}")
