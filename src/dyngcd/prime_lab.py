"""Per-prime structure of an orbit sequence: ranks of apparition over a range
of primes, injectivity of the reduced map, the anomalous/pretty bookkeeping,
and the count of low-rank primes.

A scan returns columns, not one object per prime: the primes, their ranks
and their injectivity as read-only numpy arrays (PrimeScan), with pretty,
anomalous and ell as array expressions over them.  One block loop (_scan)
walks the primes as they come from the segmented sieve and has two readers:
scan_primes keeps every row of its window, and ell_pool keeps only the rows
the gcd sieve at x needs.

scan_primes is exact: every prime gets the full cap p (ord(p) <= p whenever
it is finite, so no-zero-by-p settles infinite rank); the kernel's cycle
detection retires an infinite-rank prime long before that, after about
sqrt(p) steps.  Only ell_pool bounds the caps, to about x/p for the large
primes: a prime that shows no zero by then has ell(p) > x and leaves the
pool, so no rank short of exact ever leaves the module.  The one trap in
that shortcut is an anomalous prime (ord(p) = p, so ell(p) = p <= x); those
are exactly the primes whose reduced map is injective, so the scan screens
injectivity first and gives injective primes their full cap.  The screen
reduces the coefficients mod every prime in one array operation and decides
most primes in closed form, after Dickson's classification of the normalized
permutation polynomials of degree <= 5 (Lidl and Niederreiter, Finite
Fields, Table 7.1):

- reduced degree 0 is not injective, degree 1 is;
- degree 2 is not at an odd prime (x and c - x collide);
- degree 3 at p > 3 is exactly when c2^2 = 3 c3 c1 and p = 2 (mod 3);
- degree 4 at p > 7 never is.

Only the primes left over pay for a value table (is_injective_mod_p): degree
2 at p = 2, degree 3 at p <= 3, degree 4 at p <= 7 and degree 5 and more.
Quadratics, cubics and quartics build at most a handful.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .arith_core import prime_blocks, sieve_primes
from .orbit_engine import (
    IntPolynomial,
    _Frozen,
    _horner_vec,
    check_int64_horner,
    first_zero_scan,
    require_wandering,
)


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
    check_int64_horner(F.coeffs, p)
    vals = _horner_vec(F.coeffs, np.arange(p, dtype=np.int64), np.int64(p))
    return int(np.bincount(vals, minlength=p).max()) == 1


class PrimeScan(_Frozen):
    """A scan's result as three read-only columns, one row per prime.

    p holds the primes in ascending order.  ord holds each rank of
    apparition, with 0 for a rank proven infinite.  injective says whether
    x -> F(x) is a bijection mod p."""

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
        """ell(p) = lcm(p, ord(p)) for a finite rank, else 0 (lcm(p, 0) is
        0); p * ord < p^2 < 2^62 for p < 2^31, so it fits int64."""
        return np.lcm(self.p, self.ord)


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


# scan_primes runs its per-prime pipeline over blocks of this many primes, so
# that its temporaries (the caps, the kernel's lanes, about a dozen int64
# arrays) take O(block) memory and only the columns grow with the scan.  The
# lanes are independent, so the block size changes no rank.  A lockstep round
# over 8,192 lanes costs about 30 times a round's fixed cost (130 us against
# 4 us for x^2+1 on a 2-vCPU Xeon).
_SCAN_BLOCK = 1 << 13
# ell_pool scans in blocks of this many primes.  Under the bound x a block
# past the first few has caps of x/p + 1 steps, so blocks half as long cost
# the pool no time (1.3-1.6 s at 10^8 either way on a 2-vCPU Xeon), and they
# halve the kernel's lanes, the largest working set of the sieve route: at
# x = 10^6 `density --method sieve` peaked 0.4 MB lower in RSS than with
# blocks of 8,192.
_POOL_BLOCK = 1 << 12


def _prime_run(limit: int, size: int) -> Iterator[np.ndarray]:
    """The primes up to limit, ascending, in blocks of size (the last one
    shorter), cut from prime_blocks' segments as they come: views of the
    segment, except for the one block that spans two, since a copy of each
    segment would stay alive next to the kernel (0.25 MB more RSS at 10^6)."""
    rest = np.zeros(0, dtype=np.int64)
    for seg in prime_blocks(limit):
        if rest.size:  # complete the held block from the segment's head
            head = size - rest.size
            rest, seg = np.concatenate((rest, seg[:head])), seg[head:]
            if rest.size < size:
                continue
            yield rest
        full = seg.size - seg.size % size
        for lo in range(0, full, size):
            yield seg[lo : lo + size]
        rest = seg[full:].copy()
    if rest.size:
        yield rest


def _scan(F: IntPolynomial, blocks, bound: int, keep) -> PrimeScan:
    """The rows keep(primes, ord) picks out of each block of primes, as one
    PrimeScan.  Non-injective primes get cap min(p, bound // p + 1) and
    injective ones cap p; ord is the least r within the cap with a_r = 0
    mod p, or 0 when there is none.  blocks must yield at least one block,
    and the caller has passed check_int64_horner with its largest prime."""
    cols = [[], [], []]  # p, ord and injective, one part per block
    for ps in blocks:
        inj = _injective_column(F, ps)
        o = first_zero_scan(F, ps, np.where(inj, ps, np.minimum(ps, bound // ps + 1)))
        bad = ps[inj & (o == 0)]
        if bad.size:
            raise AssertionError(
                f"injective map mod {bad[0]} must have finite rank; scan says otherwise")
        i = keep(ps, o)
        for col, part in zip(cols, (ps[i], o[i], inj[i])):
            col.append(part)
    # a column's parts go as soon as it is joined: they overlap the whole
    # columns by one column only
    return PrimeScan(*(np.concatenate(cols.pop(0)) for _ in range(3)))


@lru_cache(maxsize=32)
def scan_primes(F: IntPolynomial, p_min: int, p_max: int) -> PrimeScan:
    """Scan all primes in [p_min, p_max] for their rank of apparition,
    exactly: under the bound p_max^2 every prime keeps cap p, and ord(p) <= p
    whenever it is finite, so ord is 0 only for a rank proven infinite.  The
    primes come from the sieve _SCAN_BLOCK at a time, and each block drops
    its primes below p_min before its walk.  p_max passes check_int64_horner
    before anything is sieved, so a p_max of 2^31 or more costs no sieve."""
    require_wandering(F)
    p_min = max(p_min, 2)
    if p_max < p_min:
        return _EMPTY_SCAN
    check_int64_horner(F.coeffs, p_max)
    blocks = (ps[np.searchsorted(ps, p_min) :] for ps in _prime_run(p_max, _SCAN_BLOCK))
    return _scan(F, blocks, p_max * p_max, lambda ps, o: slice(None))


@lru_cache(maxsize=32)
def ell_pool(F: IntPolynomial, x: int) -> PrimeScan:
    """The rows of scan_primes(F, 2, x) with ell(p) <= x, the pool of the
    gcd sieve at x.  Non-injective primes get cap min(p, x // p + 1): no zero
    there proves ord(p) > x/p, hence ell(p) = p * ord(p) > x (ord < p makes
    the lcm the full product), so every row the cap leaves open is dropped.
    Injective primes keep cap p, so an anomalous prime (ell(p) = p <= x)
    cannot hide.  Each block keeps only the pool's rows, so the reader holds
    one segment and one block next to them, whatever x.  x passes
    check_int64_horner before the first segment is sieved."""
    require_wandering(F)
    if x < 2:
        return _EMPTY_SCAN
    check_int64_horner(F.coeffs, x)

    def in_pool(ps, o):
        i = np.flatnonzero(o > 0)
        return i[np.lcm(ps[i], o[i]) <= x]

    return _scan(F, _prime_run(x, _POOL_BLOCK), x, in_pool)


def scan_csv(scan: PrimeScan) -> str:
    """CSV dump of a scan: p,ord,pretty,anomalous,injective,ell with 0
    standing for an infinite ord or ell."""
    parts = ["p,ord,pretty,anomalous,injective,ell\n"]
    # _SCAN_BLOCK rows at a time, so that only one block's Python ints and row
    # strings are alive at once
    for lo in range(0, len(scan), _SCAN_BLOCK):
        block = slice(lo, lo + _SCAN_BLOCK)
        part = PrimeScan(scan.p[block], scan.ord[block], scan.injective[block])
        cols = (part.p, part.ord, part.pretty, part.anomalous, part.injective, part.ell)
        rows = zip(*(c.astype(np.int64).tolist() for c in cols))
        parts.append("".join(",".join(map(str, row)) + "\n" for row in rows))
    return "".join(parts)


# ---------------------------------------------------------------------------
# low-rank primes
# ---------------------------------------------------------------------------


def low_rank_primes(F: IntPolynomial, beta: float, x: int) -> list[int]:
    """Primes p <= x whose rank is at most beta * log_d(p), d the degree.
    These are the primes small enough to see their own orbit zero early; the
    set is conjecturally sparse, growing like a power x^beta at most.  x
    passes check_int64_horner before anything is sieved."""
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if x < 2:
        return []
    require_wandering(F)
    check_int64_horner(F.coeffs, x)
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
    """Count low-rank primes at each x, off one low_rank_primes walk at the
    largest x (a prime's cap depends only on p), and compare against
    C * x^beta with C calibrated at the smallest checkpoint.  Rows are (x,
    count, bound, within); the second return value says whether any row
    broke the bound.  Diagnostic only: a break is reported, not an error."""
    xs = sorted(set(int(x) for x in xs))
    if not xs:
        raise ValueError("need at least one checkpoint")
    if xs[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    primes = low_rank_primes(F, beta, xs[-1])
    counts = [bisect.bisect_right(primes, x) for x in xs]
    scale = max(counts[0], 1) / xs[0] ** beta
    rows = []
    for x, cnt in zip(xs, counts):
        bound = scale * x**beta
        rows.append((x, cnt, bound, cnt <= bound or x == xs[0]))
    return rows, not all(within for *_, within in rows)
