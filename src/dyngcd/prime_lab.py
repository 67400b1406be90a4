"""Per-prime structure of an orbit sequence: ranks of apparition over a range
of primes, injectivity of the reduced map, the anomalous/pretty bookkeeping,
and the handful of summary statistics built from those scans.

A scan returns columns, not one object per prime: the primes, their ranks
and their injectivity as read-only numpy arrays (PrimeScan), with pretty,
anomalous and ell as array expressions over them.

A scan is exact when every prime gets the full cap p (ord(p) <= p whenever it
is finite, so no-zero-by-p settles infinite rank); the kernel's cycle
detection retires an infinite-rank prime long before that, after about
sqrt(p) steps.  Under a sieve bound x the cap drops to about x/p for the large
primes; a prime that shows no zero by then has ell(p) > x, which is all the
gcd sieve needs, but its rank is recorded as -1 (unresolved) rather than
guessed.  The one trap in that shortcut is an anomalous prime (ord(p) = p, so
ell(p) = p <= x); those are exactly the primes whose reduced map is
injective, so the scan screens injectivity first and gives injective primes
their full cap.  The screen reduces the coefficients mod every prime in one
array operation and decides most primes in closed form, after Dickson's
classification of the normalized permutation polynomials of degree <= 5
(Lidl and Niederreiter, Finite Fields, Table 7.1):

- reduced degree 0 is not injective, degree 1 is;
- degree 2 is not at an odd prime (x and c - x collide);
- degree 3 at p > 3 is exactly when c2^2 = 3 c3 c1 and p = 2 (mod 3);
- degree 4 at p > 7 never is.

Only the primes left over pay for a value table (is_injective_mod_p): degree
2 at p = 2, degree 3 at p <= 3, degree 4 at p <= 7 and degree 5 and more.
Quadratics, cubics and quartics build at most a handful.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith_core import sieve_primes
from .orbit_engine import (
    _VEC_MODULUS_MAX,
    IntPolynomial,
    _Frozen,
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
    collide for half the residues), and every other case pays for a table of
    the p values.  This is the reference for scan_primes' screen, which
    decides reduced degree 3 at p > 3 and 4 at p > 7 in closed form from
    Dickson's table (Lidl and Niederreiter, Finite Fields, Table 7.1) and
    calls this only for the primes left over.
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


class PrimeScan(_Frozen):
    """A scan's result as three read-only columns, one row per prime.

    p holds the primes in ascending order.  ord holds each rank of
    apparition, with 0 for a rank proven infinite and -1 for a rank left
    unresolved under a sieve bound (which still certifies ell(p) > bound).
    injective says whether x -> F(x) is a bijection mod p."""

    __slots__ = ("p", "ord", "injective")

    def __init__(self, p: np.ndarray, ord: np.ndarray, injective: np.ndarray):
        for name, col in (("p", p), ("ord", ord), ("injective", injective)):
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.p.size

    @property
    def pretty(self) -> np.ndarray:
        """p divides some orbit term (finite rank)."""
        return self.ord > 0

    @property
    def anomalous(self) -> np.ndarray:
        """ord(p) = p."""
        return self.ord == self.p

    @property
    def ell(self) -> np.ndarray:
        """ell(p) = lcm(p, ord(p)) for a finite rank, else ord's 0 or -1;
        p * ord < p^2 < 2^62 for p < 2^31, so it fits int64."""
        return np.where(self.pretty, np.lcm(self.p, self.ord), self.ord)


_EMPTY_SCAN = PrimeScan(
    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
)


def _reduced_degrees(coeffs: tuple[int, ...], primes: np.ndarray) -> np.ndarray:
    """Degree of F mod p at every prime, -1 where F vanishes mod p; the
    coefficients must fit int64 (check_int64_horner has passed)."""
    deg = np.full(primes.size, -1, dtype=np.int64)
    for i, c in enumerate(coeffs):
        deg[np.int64(c) % primes != 0] = i
    return deg


def _injective_column(F: IntPolynomial, primes: np.ndarray) -> np.ndarray:
    """Whether x -> F(x) is a bijection mod p, at every prime: in closed form
    by the module docstring's rules, and by is_injective_mod_p's value table
    at the primes they leave over.  check_int64_horner must have passed.

    A cubic c3 x^3 + c2 x^2 + c1 x + c0 with p > 3 is c3 (y^3 + a y) plus a
    constant for y = x + c2 / (3 c3), where a = (3 c3 c1 - c2^2) / (3 c3^2);
    y^3 + a y permutes F_p exactly when a = 0 and p = 2 (mod 3).  Every
    coefficient is reduced mod p first, so each product stays below
    p^2 < 2^62."""
    deg = _reduced_degrees(F.coeffs, primes)
    inj = deg == 1
    cubic = (deg == 3) & (primes > 3)
    if cubic.any():
        p = primes[cubic]
        c1, c2, c3 = (np.int64(c) % p for c in F.coeffs[1:4])
        inj[cubic] = (p % 3 == 2) & (c2 * c2 % p == 3 * c3 % p * c1 % p)
    table = (
        ((deg == 2) & (primes == 2))
        | ((deg == 3) & (primes <= 3))
        | ((deg == 4) & (primes <= 7))
        | (deg >= 5)
    )
    for i in np.flatnonzero(table).tolist():
        inj[i] = is_injective_mod_p(F, int(primes[i]))
    return inj


@lru_cache(maxsize=32)
def scan_primes(
    F: IntPolynomial, p_min: int, p_max: int, sieve_bound: int | None = None
) -> PrimeScan:
    """Scan all primes in [p_min, p_max] for their rank of apparition.

    sieve_bound None is the exact policy (cap p for every prime).  With a
    bound x, non-injective primes get cap min(p, x // p + 1): seeing no zero
    there proves ord(p) > x/p, hence ell(p) = p * ord(p) > x since ord < p
    forces the lcm to be the full product.  Injective primes keep cap p so
    the anomalous case cannot hide.  p_max must be below 2^31, the lockstep
    kernel's limit; a larger one is refused before anything is sieved.
    """
    require_wandering(F)
    if sieve_bound is not None and sieve_bound < 1:
        raise ValueError("sieve_bound must be >= 1")
    p_min = max(p_min, 2)
    if p_max < p_min:
        return _EMPTY_SCAN
    if p_max >= _VEC_MODULUS_MAX:
        raise ValueError("prime scans are limited to p_max below 2^31")
    primes = sieve_primes(p_max)
    primes = primes[primes >= p_min]  # a copy: the cached scan keeps no sieve alive
    if not primes.size:
        return _EMPTY_SCAN
    check_int64_horner(F.coeffs, int(primes[-1]))
    inj = _injective_column(F, primes)
    caps = primes
    if sieve_bound is not None:
        # a bound at or past p_max^2 leaves every cap at p
        bound = min(sieve_bound, p_max * p_max)
        caps = np.where(inj, primes, np.minimum(primes, bound // primes + 1))
    found = first_zero_scan(F, primes, caps)
    o = np.where(found > 0, found, np.where(caps >= primes, 0, -1))
    bad = inj & (o == 0)
    if bad.any():
        p = int(primes[bad][0])
        raise AssertionError(
            f"injective map mod {p} must have finite rank; scan says otherwise"
        )
    return PrimeScan(primes, o, inj)


def scan_csv(scan: PrimeScan) -> str:
    """CSV dump of an exact scan: p,ord,pretty,anomalous,injective,ell with 0
    standing for an infinite ord or ell.  Unresolved rows are refused."""
    unresolved = scan.ord < 0
    if unresolved.any():
        p = int(scan.p[unresolved][0])
        raise ValueError(
            f"p={p} is unresolved; export needs an exact scan (no sieve bound)"
        )
    cols = (scan.p, scan.ord, scan.pretty, scan.anomalous, scan.injective, scan.ell)
    rows = zip(*(c.astype(np.int64).tolist() for c in cols))
    lines = ["p,ord,pretty,anomalous,injective,ell"]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scan-derived statistics
# ---------------------------------------------------------------------------


def low_rank_primes(F: IntPolynomial, beta: float, x: int) -> list[int]:
    """Primes p <= x whose rank is at most beta * log_d(p), d the degree.
    These are the primes small enough to see their own orbit zero early; the
    set is conjecturally sparse, growing like a power x^beta at most.  x must
    be below 2^31, the lockstep kernel's limit."""
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if x < 2:
        return []
    require_wandering(F)
    if x >= _VEC_MODULUS_MAX:
        raise ValueError("low-rank scans are limited to x below 2^31")
    logd = math.log(F.degree)
    primes = []
    caps = []
    for p in sieve_primes(x).tolist():
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
    F: IntPolynomial, beta: float, xs
) -> tuple[list[tuple[int, int, float, bool]], bool]:
    """Count low-rank primes at each x and compare against C * x^beta with C
    calibrated at the smallest checkpoint.  Rows are (x, count, bound,
    within); the second return value says whether any row broke the bound.
    Diagnostic only: a break is reported, not treated as an error."""
    xs = sorted(set(int(x) for x in xs))
    if not xs:
        raise ValueError("need at least one checkpoint")
    counts = [len(low_rank_primes(F, beta, x)) for x in xs]
    scale = max(counts[0], 1) / xs[0] ** beta
    rows = []
    for x, cnt in zip(xs, counts):
        bound = scale * x**beta
        rows.append((x, cnt, bound, cnt <= bound or x == xs[0]))
    return rows, not all(within for *_, within in rows)


def mertens_pretty_product(F: IntPolynomial, bound: int) -> tuple[float, int]:
    """Product of (1 - 1/q) over pretty primes q <= bound, with the count of
    factors.  The heuristic density of integers coprime to every pretty prime."""
    scan = scan_primes(F, 2, bound)
    pretty = scan.p[scan.pretty].tolist()
    prod = Fraction(1)
    for p in pretty:
        prod *= Fraction(p - 1, p)
    return float(prod), len(pretty)


def pretty_prime_density(F: IntPolynomial, x: int) -> float:
    """Fraction of primes up to x that divide some orbit term."""
    scan = scan_primes(F, 2, x)
    if not len(scan):
        raise ValueError("no primes up to x")
    return int(np.count_nonzero(scan.pretty)) / len(scan)


class AnomalousReport(NamedTuple):
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
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))


def anomalous_report(F: IntPolynomial, x: int) -> AnomalousReport:
    scan = scan_primes(F, 2, x)
    anom = tuple(scan.p[scan.anomalous].tolist())
    f0 = tuple(scan.p[scan.ord == 1].tolist())
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
    scan = scan_primes(F, 2, x)
    tail = scan.pretty & (scan.p > z)
    total = 0.0
    for p, o in zip(scan.p[tail].tolist(), scan.ord[tail].tolist()):
        total += math.log(p) ** eps / (p * o**veps)
    return total, 1.0 / math.log(z) ** (veps - eps)
