"""Per-prime structure of an orbit sequence: ranks of apparition over a range
of primes, injectivity of the reduced map, the anomalous/pretty bookkeeping,
and the handful of summary statistics built from those scans.

A scan is exact when every prime gets the full cap p (ord(p) <= p whenever it
is finite, so no-zero-by-p settles infinite rank); the kernel's cycle
detection retires an infinite-rank prime long before that, after about
sqrt(p) steps.  Under a sieve bound x the cap drops to about x/p for the large
primes; a prime that shows no zero by then has ell(p) > x, which is all the
gcd sieve needs, but its rank is recorded as None (unknown) rather than
guessed.  The one trap in that shortcut is an anomalous prime (ord(p) = p, so
ell(p) = p <= x); those are exactly the primes whose reduced map is
injective, so the scan screens injectivity first and gives injective primes
their full cap.  For quadratics the screen is a constant-time degree argument
at every odd prime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith_core import sieve_primes
from .orbit_engine import (
    INF,
    IntPolynomial,
    _horner_vec,
    check_int64_horner,
    first_zero_scan,
    require_wandering,
)

_TABLE_PRIME_MAX = 2**31


def is_injective_mod_p(F: IntPolynomial, p: int) -> bool:
    """Whether x -> F(x) is a bijection of the residues mod p.

    Reduce the coefficients first: degree 1 survivors are affine bijections,
    degree 2 survivors can never be injective at an odd prime (x and c - x
    collide for half the residues), so only the leftover cases pay for a
    value table.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    reduced = [c % p for c in F.coeffs]
    e = -1
    for i in range(len(reduced) - 1, -1, -1):
        if reduced[i]:
            e = i
            break
    if e <= 0:
        return False  # constant map on >= 2 residues
    if e == 1:
        return True
    if e == 2 and p > 2:
        return False
    if p >= _TABLE_PRIME_MAX:
        raise ValueError("injectivity table limited to p below 2^31")
    check_int64_horner(F.coeffs, p)
    vals = _horner_vec(F.coeffs, np.arange(p, dtype=np.int64), np.int64(p))
    return int(np.bincount(vals, minlength=p).max()) == 1


@dataclass(frozen=True)
class PrimeRecord:
    """One prime's scan result.  ord is the rank of apparition: a positive
    integer, INF (proven infinite), or None (unresolved under a sieve bound,
    which still certifies ell(p) > bound)."""

    p: int
    ord: int | float | None
    injective: bool
    anomalous: bool

    @property
    def pretty(self) -> bool | None:
        if self.ord is None:
            return None
        return self.ord != INF

    @property
    def ell(self) -> int | float | None:
        if self.ord is None or self.ord == INF:
            return self.ord
        return math.lcm(self.p, int(self.ord))


@lru_cache(maxsize=32)
def scan_primes(
    F: IntPolynomial, p_min: int, p_max: int, sieve_bound: int | None = None
) -> tuple[PrimeRecord, ...]:
    """Scan all primes in [p_min, p_max] for their rank of apparition.

    sieve_bound None is the exact policy (cap p for every prime).  With a
    bound x, non-injective primes get cap min(p, x // p + 1): seeing no zero
    there proves ord(p) > x/p, hence ell(p) = p * ord(p) > x since ord < p
    forces the lcm to be the full product.  Injective primes keep cap p so
    the anomalous case cannot hide.
    """
    require_wandering(F)
    if sieve_bound is not None and sieve_bound < 1:
        raise ValueError("sieve_bound must be >= 1")
    p_min = max(p_min, 2)
    if p_max < p_min:
        return ()
    primes = [p for p in sieve_primes(p_max) if p >= p_min]
    if not primes:
        return ()
    inj = [is_injective_mod_p(F, p) for p in primes]
    caps = []
    for p, i in zip(primes, inj):
        if sieve_bound is None or i:
            caps.append(p)
        else:
            caps.append(min(p, sieve_bound // p + 1))
    found = first_zero_scan(
        F, np.array(primes, dtype=np.int64), np.array(caps, dtype=np.int64)
    )
    records = []
    for p, i, cap, r in zip(primes, inj, caps, found.tolist()):
        if r > 0:
            o: int | float | None = int(r)
        elif cap >= p:
            o = INF
        else:
            o = None
        if i and o == INF:
            raise AssertionError(
                f"injective map mod {p} must have finite rank; scan says otherwise"
            )
        records.append(PrimeRecord(p, o, i, o == p))
    return tuple(records)


def scan_csv(records) -> str:
    """CSV dump of an exact scan: p,ord,pretty,anomalous,injective,ell with 0
    standing for an infinite ord or ell.  Unresolved records are refused."""
    lines = ["p,ord,pretty,anomalous,injective,ell"]
    for rec in records:
        if rec.ord is None:
            raise ValueError(
                f"p={rec.p} is unresolved; export needs an exact scan (no sieve bound)"
            )
        o = 0 if rec.ord == INF else int(rec.ord)
        le = 0 if rec.ell == INF else int(rec.ell)
        lines.append(
            f"{rec.p},{o},{int(rec.pretty)},{int(rec.anomalous)},{int(rec.injective)},{le}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scan-derived statistics
# ---------------------------------------------------------------------------


def low_rank_primes(F: IntPolynomial, beta: float, x: int) -> list[int]:
    """Primes p <= x whose rank is at most beta * log_d(p), d the degree.
    These are the primes small enough to see their own orbit zero early; the
    set is conjecturally sparse, growing like a power x^beta at most."""
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if x < 2:
        return []
    require_wandering(F)
    logd = math.log(F.degree)
    primes = []
    caps = []
    for p in sieve_primes(x):
        cap = int(beta * math.log(p) / logd)
        if cap >= 1:
            primes.append(p)
            caps.append(min(cap, p))
    if not primes:
        return []
    found = first_zero_scan(
        F, np.array(primes, dtype=np.int64), np.array(caps, dtype=np.int64)
    )
    return [p for p, r in zip(primes, found.tolist()) if r > 0]


def low_rank_growth(
    F: IntPolynomial, beta: float, xs, calibrate_x: int | None = None
) -> tuple[list[tuple[int, int, float, bool]], bool]:
    """Count low-rank primes at each x and compare against C * x^beta with C
    calibrated at the smallest checkpoint.  Rows are (x, count, bound,
    within); the second return value says whether any row broke the bound.
    Diagnostic only: a break is reported, not treated as an error."""
    xs = sorted(set(int(x) for x in xs))
    if not xs:
        raise ValueError("need at least one checkpoint")
    if calibrate_x is None:
        calibrate_x = xs[0]
    base = len(low_rank_primes(F, beta, calibrate_x))
    scale = max(base, 1) / calibrate_x**beta
    rows = []
    flagged = False
    for x in xs:
        cnt = len(low_rank_primes(F, beta, x))
        bound = scale * x**beta
        within = cnt <= bound or x <= calibrate_x
        rows.append((x, cnt, bound, within))
        flagged = flagged or not within
    return rows, flagged


def mertens_pretty_product(F: IntPolynomial, bound: int) -> tuple[float, int]:
    """Product of (1 - 1/q) over pretty primes q <= bound, with the count of
    factors.  The heuristic density of integers coprime to every pretty prime."""
    prod = Fraction(1)
    count = 0
    for rec in scan_primes(F, 2, bound):
        if rec.pretty:
            prod *= Fraction(rec.p - 1, rec.p)
            count += 1
    return float(prod), count


def pretty_prime_density(F: IntPolynomial, x: int) -> float:
    """Fraction of primes up to x that divide some orbit term."""
    recs = scan_primes(F, 2, x)
    if not recs:
        raise ValueError("no primes up to x")
    return sum(1 for r in recs if r.pretty) / len(recs)


@dataclass(frozen=True)
class AnomalousReport:
    """Survey of the primes with p | a_p: rank exactly p (anomalous) or rank 1
    (divisors of the first orbit term).  partial_sum is sum of 1/p over both
    lists; the verdict is 'plausibly nice' only when no anomalous prime sits
    in (sqrt(x), x], the window a finite scan can actually vouch for."""

    poly: str
    x: int
    anomalous_primes: tuple[int, ...]
    f0_divisors: tuple[int, ...]
    partial_sum: float
    verdict: str

    def to_json(self) -> str:
        payload = {
            "poly": self.poly,
            "x": self.x,
            "anomalous_primes": list(self.anomalous_primes),
            "f0_divisors": list(self.f0_divisors),
            "partial_sum": self.partial_sum,
            "verdict": self.verdict,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def anomalous_report(F: IntPolynomial, x: int) -> AnomalousReport:
    recs = scan_primes(F, 2, x)
    anom = tuple(r.p for r in recs if r.anomalous)
    f0 = tuple(r.p for r in recs if r.ord == 1)
    partial = sum(1.0 / p for p in anom) + sum(1.0 / p for p in f0)
    clean = all(p * p <= x for p in anom)
    verdict = "plausibly nice" if clean else "inconclusive"
    return AnomalousReport(F.coeff_key(), x, anom, f0, partial, verdict)


def tail_partial_sum(
    F: IntPolynomial, z: int, x: int, eps: float, veps: float
) -> tuple[float, float]:
    """Partial sum over pretty primes z < p <= x of

        (log p)^eps / (p * ord(p)^veps)

    next to the comparator 1 / (log z)^(veps - eps) it should stay below once
    z is large.  Both are returned; nothing is asserted."""
    if not (0 <= eps < veps):
        raise ValueError("need 0 <= eps < veps")
    if not (2 <= z < x):
        raise ValueError("need 2 <= z < x")
    total = 0.0
    for rec in scan_primes(F, 2, x):
        if rec.p > z and rec.pretty:
            total += math.log(rec.p) ** eps / (rec.p * int(rec.ord) ** veps)
    return total, 1.0 / math.log(z) ** (veps - eps)
