"""Counting and density analysis of the gcd sets

    A(k) = { n >= 1 : gcd(G(n), a_n) = k }
    B(k) = { n >= 1 : k | gcd(G(n), a_n) and every prime of the gcd divides k }

for the orbit sequence a_n of a wandering polynomial and G either the identity
or a linear form a*x+b with coprime coefficients.

Three independent routes to the same counts are kept side by side on purpose:
a brute-force oracle (one modular orbit per index), a structural sieve driven
by the joint ranks ell(p), and for B an exact floor-sum identity over pretty
squarefree numbers.  They must agree bit for bit; the verify suites and the
CLI's --method both insist on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith_core import crt_pair, factorize
from .orbit_engine import (
    INF,
    IntPolynomial,
    OrdCache,
    _a_mod_vec,
    a_mod,
    check_int64_horner,
    ell,
    ord_crt,
    require_wandering,
)
from .prime_lab import scan_primes


class SelfCheckError(AssertionError):
    """A dual-route computation disagreed with itself; nothing should catch
    this except the CLI, which turns it into exit code 4."""


@dataclass(frozen=True)
class GcdQuery:
    """A polynomial together with the gcd target k, the index form G and the
    rank cache of F.

    linear is None for G(x) = x, else the pair (a, b) meaning G(x) = a*x + b
    with a, b >= 1 and gcd(a, b) = 1.  Density operations with k > 1 are only
    defined for the identity form.  cache defaults to a fresh OrdCache for F;
    queries built with one cache (or derived with dataclasses.replace) share
    every rank they compute.  It takes no part in equality or hashing.
    """

    F: IntPolynomial
    k: int
    linear: tuple[int, int] | None = None
    cache: OrdCache = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        require_wandering(self.F)
        if self.cache is not None:
            self.cache._check_poly(self.F)
        else:
            object.__setattr__(self, "cache", OrdCache.for_poly(self.F))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.linear is not None:
            a, b = self.linear
            if a < 1 or b < 1:
                raise ValueError("linear form needs a >= 1 and b >= 1")
            if math.gcd(a, b) != 1:
                raise ValueError("linear form needs gcd(a, b) = 1")

    def g_of(self, n: int) -> int:
        if self.linear is None:
            return n
        a, b = self.linear
        return a * n + b

    def g_str(self) -> str:
        if self.linear is None:
            return "x"
        a, b = self.linear
        return f"{a}*x+{b}"

    def _identity_only(self, what: str) -> None:
        if self.linear is not None:
            raise ValueError(f"{what} is defined for the identity form only")


class MembershipVerdict(NamedTuple):
    n: int
    g: int
    in_A: bool
    in_B: bool


def _strip_primes(g: int, primes: tuple[int, ...]) -> int:
    for p in primes:
        while g % p == 0:
            g //= p
    return g


def membership(q: GcdQuery, n: int) -> MembershipVerdict:
    """Exact membership of a single index, straight from the definitions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = q.g_of(n)
    g = 1 if m == 1 else math.gcd(m, a_mod(q.F, n, m))
    in_a = g == q.k
    in_b = g % q.k == 0 and _strip_primes(g, factorize(q.k).prime_set()) == 1
    return MembershipVerdict(n, g, in_a, in_b)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=6)
def _gcd_vector(F: IntPolynomial, x: int, linear: tuple[int, int] | None) -> np.ndarray:
    """g[n] = gcd(G(n), a_n) for 1 <= n <= x (g[0] = 0, unused).

    Index n needs a_n mod G(n), so every index is a lane with its own
    modulus, and all lanes walk their residue orbits in lockstep.  Lane n
    costs about tail + period of the orbit mod G(n) steps (about sqrt(G(n))
    for a typical map) rather than n, using only the periodicity of the
    residues: no ranks, no factorization.  Work is done once, however many k
    values are later queried against the vector.
    """
    require_wandering(F)
    # the largest modulus, as a Python int: refuse before int64 can wrap it
    check_int64_horner(F.coeffs, x if linear is None else linear[0] * x + linear[1])
    n = np.arange(1, x + 1, dtype=np.int64)
    mods = n if linear is None else linear[0] * n + linear[1]
    g = np.zeros(x + 1, dtype=np.int64)
    g[1:] = np.gcd(mods, _a_mod_vec(F.coeffs, mods, n))
    g.setflags(write=False)
    return g


def _b_mask(g: np.ndarray, k: int) -> np.ndarray:
    """Where the gcd values g put their index in B(k): k | g and every prime
    of g divides k."""
    mask = g % k == 0
    h = np.where(mask, g, 1)
    for p, _ in factorize(k).factors:
        while True:
            div = h % p == 0
            if not div.any():
                break
            h = np.where(div, h // p, h)
    return mask & (h == 1)


def _counts_from_gvec(g: np.ndarray, k: int, x: int) -> tuple[int, int]:
    if k > x:
        return 0, 0  # gcd(n, a_n) <= n <= x; a k past int64 never reaches numpy
    gx = g[1 : x + 1]
    count_a = int((gx == k).sum())
    if k == 1:
        return count_a, count_a
    return count_a, int(_b_mask(gx, k).sum())


def count_oracle(q: GcdQuery, x: int) -> tuple[int, int]:
    """(#A(x), #B(x)) by direct evaluation of every index up to x."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if q.linear is not None and q.k != 1:
        q._identity_only("count_oracle with k > 1")
    g = _gcd_vector(q.F, x, q.linear)
    return _counts_from_gvec(g, q.k, x)


# ---------------------------------------------------------------------------
# structural sieve
# ---------------------------------------------------------------------------


def _rank_above(q: GcdQuery, p: int, e: int) -> int | float:
    """ord(p^(e+1)), INF when that modulus is out of range (then p^(e+1)
    never divides an orbit term the analysis can reach)."""
    pe1 = p ** (e + 1)
    return INF if pe1 > 2**62 else q.cache.rank_of(q.F, pe1)


def count_sieve(q: GcdQuery, x: int) -> tuple[int, int]:
    """(#A(x), #B(x)) from the rank structure, no per-index orbit work.

    B(k) is exactly the multiples of ell(k) that avoid every ell(p) for
    pretty p not dividing k.  Inside that set, membership in A(k) is decided
    prime by prime over p | k with e = nu_p(k): either nu_p(n) = e exactly,
    or nu_p(n) > e while ord(p^(e+1)) does not divide n (so the orbit term
    contributes no extra factor of p).  ord(p^e) | n holds automatically for
    multiples of ell(k).
    """
    q._identity_only("count_sieve")
    if x < 1:
        raise ValueError("x must be >= 1")
    return _sieve_counts(q, x, (x,))[0]


def _sieve_counts(q: GcdQuery, x: int, cuts) -> list[tuple[int, int]]:
    """count_sieve at every cut-off cx <= x in cuts, from one bounded scan at
    x.  Whether n is a member does not depend on the cut-off, so each count
    is a prefix count of the sieve at x: alive[m] stands for n = m * ell(k),
    and the count at cx reads alive[: cx // ell(k) + 1]."""
    F, k, cache = q.F, q.k, q.cache
    lk = ell(F, k, cache)
    if lk == INF or lk > x:
        return [(0, 0)] * len(cuts)
    M = x // lk
    scan = scan_primes(F, 2, x, sieve_bound=x)
    lp = scan.ell
    # ell(p) is 0 for an infinite rank and -1 for one left unresolved (> x)
    lp = lp[(lp > 0) & (lp <= x) & _coprime_rows(scan, k)]
    strides = lp // np.gcd(lp, lk)
    alive = np.ones(M + 1, dtype=bool)
    alive[0] = False
    # a set, not np.unique, which would import numpy.ma
    for s in set(strides[strides <= M].tolist()):
        alive[s::s] = False
    ends = [cx // lk + 1 for cx in cuts]
    counts_b = [int(np.count_nonzero(alive[:end])) for end in ends]

    for p, e in factorize(k).factors:
        if cache.rank_of(F, p**e) == INF:
            # unreachable once ord(k) is finite; kept as a hard guard
            return [(0, cb) for cb in counts_b]
        o1 = _rank_above(q, p, e)
        if o1 == INF:
            continue  # excess index valuation is harmless
        s1 = int(o1) // math.gcd(int(o1), lk)
        # nu_p(lk) = e: candidates with p | (n/lk) overshoot unless ord(p^(e+1))
        # misses n; nu_p(lk) > e: every candidate already has nu_p(n) > e
        step = s1 if lk % p ** (e + 1) == 0 else math.lcm(p, s1)
        if step <= M:
            alive[step::step] = False
    return [
        (int(np.count_nonzero(alive[:end])), cb) for end, cb in zip(ends, counts_b)
    ]


# ---------------------------------------------------------------------------
# pretty squarefree enumeration, floor identity, series
# ---------------------------------------------------------------------------


def _coprime_rows(scan, n: int) -> np.ndarray:
    """Mask of the rows of a scan_primes result whose prime does not divide n."""
    keep = np.ones(len(scan), dtype=bool)
    for p in factorize(n).prime_set():
        keep &= scan.p != p
    return keep


def _pretty_prime_pool(
    q: GcdQuery, scan, coprime_to: int = 1
) -> list[tuple[int, int]]:
    """(p, ord(p)) for every prime of a scan_primes result whose rank the
    scan found finite, leaving out the primes dividing coprime_to; each rank
    goes into q's cache.  Callers spell each scan the same way, since
    lru_cache keys on the spelling."""
    keep = scan.pretty & _coprime_rows(scan, coprime_to)
    pool = list(zip(scan.p[keep].tolist(), scan.ord[keep].tolist()))
    for p, r in pool:
        q.cache.put(p, r)
    return pool


def _squarefree_walk(
    q: GcdQuery,
    pool: list[tuple[int, int]],
    rk: int,
    d_max: int,
    ell_max: int | float = INF,
):
    """Yield (d, mu(d), ell(d*k)) for every squarefree d <= d_max built from
    the primes of pool, depth first with the primes taken in ascending order.

    pool holds (p, r) pairs ascending in p, where r is the rank p brings into
    ord(d*k) = lcm(ord(k), r for p | d), and rk = ord(k).  Every ell(d*k) is
    an exact Python int.  A finite ell_max ends a branch at its first
    ell(d*k) > ell_max: ell only grows as d picks up more primes.
    """
    k = q.k

    def walk(i: int, d: int, ord_d: int, mu: int):
        ld = math.lcm(d * k, ord_d, rk)
        if ld > ell_max:
            return
        yield d, mu, ld
        for j in range(i, len(pool)):
            p, r = pool[j]
            if d * p > d_max:
                break
            yield from walk(j + 1, d * p, math.lcm(ord_d, r), -mu)

    return walk(0, 1, 1, 1)


def floor_identity_B(q: GcdQuery, x: int) -> int:
    """#B(x) as the exact finite sum over pretty squarefree d coprime to k:

        sum mu(d) * floor(x / ell(d*k))

    Terms with ell(d*k) > x vanish, and ell is monotone in d, so the sum is a
    pruned walk over products of pretty primes with ell(p) <= x.  This equals
    the sieve and oracle counts exactly, not asymptotically.
    """
    q._identity_only("floor_identity_B")
    if x < 1:
        raise ValueError("x must be >= 1")
    F, k, cache = q.F, q.k, q.cache
    rk = ord_crt(F, k, cache)
    if rk == INF or math.lcm(k, rk) > x:
        return 0
    pool = _pretty_prime_pool(q, scan_primes(F, 2, x, sieve_bound=x), coprime_to=k)
    pool = [(p, r) for p, r in pool if math.lcm(p, r) <= x]  # ell(p) <= x
    walk = _squarefree_walk(q, pool, rk, x, ell_max=x)
    return sum(mu * (x // ld) for _, mu, ld in walk)


@dataclass(frozen=True)
class SeriesTruncation:
    T: int
    value: float
    last_block: float


def _series(q: GcdQuery, T: int, of_A: bool, scan_top: int | None) -> SeriesTruncation:
    """sum mu(d) / ell(d*k) over the squarefree d <= T of the walk, summed in
    its order, for B(k) or (of_A) for A(k); last_block sums 1/ell(d*k) over
    T/2 < d <= T.  The primes come from the rows p <= T of the exact scan up
    to scan_top >= T (default T), which are the exact scan up to T."""
    q._identity_only("series_density_A" if of_A else "series_density_B")
    if T < 1:
        raise ValueError("T must be >= 1")
    if scan_top is None:
        scan_top = T
    if scan_top < T:
        raise ValueError("scan_top must be >= T")
    F, k = q.F, q.k
    rk = ord_crt(F, k, q.cache)
    if rk == INF:
        return SeriesTruncation(T, 0.0, 0.0)
    pool = _pretty_prime_pool(q, scan_primes(F, 2, scan_top).upto(T), coprime_to=k)
    if of_A:
        for p, e in factorize(k).factors:
            if p <= T:
                r = _rank_above(q, p, e)
                if r != INF:
                    pool.append((p, int(r)))
        pool.sort()
    total = 0.0
    block = 0.0
    half = T // 2
    for d, mu, ld in _squarefree_walk(q, pool, rk, T):
        total += mu / ld
        if d > half:
            block += 1.0 / ld
    return SeriesTruncation(T, total, block)


def series_density_B(q: GcdQuery, T: int, scan_top: int | None = None) -> SeriesTruncation:
    """Truncation at T of the density series for B(k):

        sum over squarefree d <= T coprime to k of mu(d) / ell(d*k).

    Only pretty d contribute (infinite ell kills the term).  last_block is
    the absolute tail sum over T/2 < d <= T, the reported convergence gauge.
    A scan_top >= T reads the primes off the exact scan up to scan_top, so
    that truncations at several T share one scan; the value is the same.
    """
    return _series(q, T, False, scan_top)


def series_density_A(q: GcdQuery, T: int, scan_top: int | None = None) -> SeriesTruncation:
    """Truncation at T of the density series for A(k):

        sum over all squarefree t <= T of mu(t) / ell(t*k),

    with no coprimality restriction; t sharing primes with k raises the
    corresponding prime power inside ell(t*k).  Terms with ell infinite drop.

    For squarefree t, ord(t*k) is the lcm of ord(k), of ord(p^(v_p(k)+1))
    over the primes p of t dividing k and of ord(p) over the other primes of
    t, since ord(p^e) divides ord(p^(e+1)).  So this is the walk of the B
    series with each prime of k admitted at rank ord(p^(v_p(k)+1)), and left
    out when that rank is infinite.  scan_top is as in series_density_B.
    """
    return _series(q, T, True, scan_top)


def series_checkpoints(
    q: GcdQuery, T: int
) -> tuple[list[SeriesTruncation], list[SeriesTruncation]]:
    """The B and the A truncations at T/4, T/2 and T (those >= 1), all read
    off one exact scan up to T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    ts = sorted(set(t for t in (T // 4, T // 2, T) if t >= 1))
    series_b = [series_density_B(q, t, scan_top=T) for t in ts]
    series_a = [series_density_A(q, t, scan_top=T) for t in ts]
    return series_b, series_a


def count_A_inclusion_exclusion(q: GcdQuery, x: int) -> int:
    """#A(x) = sum over squarefree d | k~ of mu(d) * #B(d*k)(x), where k~ is
    the radical of k.  A finite-x consistency route, used by the checks."""
    q._identity_only("count_A_inclusion_exclusion")
    primes = factorize(q.k).prime_set()
    total = 0
    for bits in range(1 << len(primes)):
        d = 1
        mu = 1
        for i, p in enumerate(primes):
            if bits >> i & 1:
                d *= p
                mu = -mu
        total += mu * count_sieve(replace(q, k=d * q.k), x)[1]
    return total


# ---------------------------------------------------------------------------
# nonemptiness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonemptyVerdict:
    holds: bool
    witness: int | None
    reason: str


_WITNESS_CHECK_MAX = 10**6


def _ell_factored(q: GcdQuery) -> tuple[int, dict[int, int]] | None:
    """ell(k) with its factorization {p: e}, or None when k is not pretty.
    The factors come from those of k and of ord(k) <= k, which stay inside
    factorize's range even where ell(k) = lcm(k, ord(k)) does not."""
    rk = ord_crt(q.F, q.k, q.cache)
    if rk == INF:
        return None
    factors = dict(factorize(rk).factors)
    for p, e in factorize(q.k).factors:
        factors[p] = max(e, factors.get(p, 0))
    return math.lcm(q.k, rk), factors


def b_nonempty(q: GcdQuery) -> NonemptyVerdict:
    """Whether B(k) has any element at all: k must be pretty, and no prime p
    outside k may have ell(p) | ell(k).  Only primes dividing ell(k) can
    violate that, so the check is finite; when it passes, n = ell(k) itself
    is a member."""
    q._identity_only("b_nonempty")
    F, k, cache = q.F, q.k, q.cache
    lf = _ell_factored(q)
    if lf is None:
        return NonemptyVerdict(False, None, f"k={k} is not pretty (infinite rank)")
    lk, factors = lf
    for p in factors:
        if k % p == 0:
            continue
        lp = ell(F, p, cache)
        if lp != INF and lk % lp == 0:
            return NonemptyVerdict(
                False,
                None,
                f"prime {p} outside k has ell({p})={lp} dividing ell({k})={lk}",
            )
    if lk <= _WITNESS_CHECK_MAX and not membership(q, lk).in_B:
        raise SelfCheckError(f"witness {lk} failed the direct B membership check")
    return NonemptyVerdict(True, lk, f"ell({k})={lk} is a member of B")


def a_nonempty(q: GcdQuery) -> NonemptyVerdict:
    """Whether A(k) has any element: exactly when gcd(ell(k), a_ell(k)) = k,
    in which case n = ell(k) is the witness.

    The gcd comes from ranks, not from ell(k) Horner steps: p^e | a_n exactly
    when ord(p^e) | n, so for p^f || ell(k) the gcd holds p to the largest
    power e <= f with ord(p^e) | ell(k)."""
    q._identity_only("a_nonempty")
    F, k, cache = q.F, q.k, q.cache
    lf = _ell_factored(q)
    if lf is None:
        return NonemptyVerdict(False, None, f"k={k} is not pretty (infinite rank)")
    lk, factors = lf
    g = 1
    for p, f in factors.items():
        for e in range(1, f + 1):
            r = cache.rank_of(F, p**e)
            if r == INF or lk % r:
                break
            g *= p
    if lk <= _WITNESS_CHECK_MAX:
        mv = membership(q, lk)
        if mv.in_A != (g == k):
            raise SelfCheckError(f"membership({lk}) disagrees with the gcd test")
    if g == k:
        return NonemptyVerdict(True, lk, f"gcd(ell({k}), a_ell({k})) = {g} = k")
    return NonemptyVerdict(False, None, f"gcd(ell({k}), a_ell({k})) = {g} != {k}")


# ---------------------------------------------------------------------------
# divisor-avoidance lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LkSet:
    """The avoidance set for k up to a bound: the primes dividing k, plus the
    ratios ell(k*p)/ell(k) contributed by pretty primes p not dividing k.
    ratio_sources maps each ratio element to the smallest prime producing it."""

    k: int
    bound: int
    elements: tuple[int, ...]
    prime_elements: tuple[int, ...]
    ratio_sources: dict[int, int]


def build_Lk(q: GcdQuery, bound: int) -> tuple[LkSet, float]:
    """The avoidance set with all elements <= bound drawn from primes
    p <= bound, together with sum 1/s over its elements (the convergence
    gauge: a finite sum keeps the avoiding set positive-density)."""
    q._identity_only("build_Lk")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    F, k, cache = q.F, q.k, q.cache
    lk = ell(F, k, cache)
    if lk == INF:
        raise ValueError("avoidance set needs pretty k")
    prime_elements = tuple(p for p in factorize(k).prime_set() if p <= bound)
    ratio_sources: dict[int, int] = {}
    for p, op in _pretty_prime_pool(q, scan_primes(F, 2, bound), coprime_to=k):
        r = ell(F, p * k, cache) // lk  # finite: p and k are pretty and coprime
        if r <= bound and r not in ratio_sources:
            ratio_sources[r] = p
    elements = tuple(sorted(set(prime_elements) | set(ratio_sources)))
    partial = float(sum(Fraction(1, s) for s in elements)) if elements else 0.0
    return LkSet(k, bound, elements, prime_elements, ratio_sources), partial


def non_multiples_count(elements, x: int) -> int:
    """#{1 <= m <= x : no s in elements divides m}; elements must be >= 2."""
    if x < 0:
        raise ValueError("x must be >= 0")
    elems = sorted(set(int(s) for s in elements))
    if any(s < 2 for s in elems):
        raise ValueError("elements must all be >= 2")
    alive = np.ones(x + 1, dtype=bool)
    alive[0] = False
    for s in elems:
        if s <= x:
            alive[s::s] = False
    return int(alive.sum())


def y_k_lower_bound(q: GcdQuery, x: int) -> int:
    """#(ell(k) * N(L_k)) up to x: a certified lower bound for #B(x), and for
    #A(x) when F has zero linear coefficient (rigid divisibility)."""
    q._identity_only("y_k_lower_bound")
    lk = ell(q.F, q.k, q.cache)
    if lk == INF or lk > x:
        return 0
    lset, _ = build_Lk(q, x)
    if 1 in lset.elements:
        return 0
    M = x // lk
    return non_multiples_count([s for s in lset.elements if s <= M], M)


# ---------------------------------------------------------------------------
# linear forms: small-prime hit density and the coprimality report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HitDensity:
    """Density of indices n caught by some pretty prime p <= z, meaning
    p | gcd(a*n+b, a_n).  Each such prime pins n to one residue class modulo
    ell(p); exact is the inclusion-exclusion union density of those classes
    (None when the modulus lcm is out of range), marked_count the realized
    count up to x."""

    z: int
    x: int
    progressions: tuple[tuple[int, int], ...]
    marked_count: int
    exact: Fraction | None

    @property
    def marked_density(self) -> float:
        return self.marked_count / self.x


_UNION_NODE_MAX = 200_000


def _hit_progressions(q: GcdQuery, z: int) -> list[tuple[int, int]]:
    a, b = q.linear
    progs = []
    for p, op in _pretty_prime_pool(q, scan_primes(q.F, 2, z)):
        if a % p == 0:
            continue  # a*n+b is never divisible by p
        rp = (-b * pow(a, -1, p)) % p
        sol = crt_pair(rp, p, 0, op)
        if sol is None:
            continue  # p | a_n forces p | n, incompatible with p | a*n+b
        progs.append(sol)
    return progs


def small_prime_hit_density(q: GcdQuery, z: int, x: int) -> HitDensity:
    """How much of [1, x] is hit by pretty primes up to z (linear form only)."""
    if q.linear is None:
        raise ValueError("hit density is defined for linear forms")
    if z < 2 or x < 1:
        raise ValueError("need z >= 2 and x >= 1")
    progs = _hit_progressions(q, z)
    mask = np.zeros(x + 1, dtype=bool)
    for r, m in progs:
        start = r if r >= 1 else m
        if start <= x:
            mask[start::m] = True
    marked = int(mask[1:].sum())
    exact = _union_density(progs)
    return HitDensity(z, x, tuple(progs), marked, exact)


def _union_density(progs) -> Fraction | None:
    """Inclusion-exclusion density of a union of residue classes, walking only
    the compatible subsets (an incompatible pair kills its whole branch).
    None if the walk exceeds its node budget.  Every subset's modulus divides
    the lcm of all the moduli, so the sum is kept as an integer numerator
    over that lcm."""
    lcm_all = math.lcm(*(m for _, m in progs))
    num = 0
    nodes = 0

    def walk(i: int, r: int, m: int, sign: int) -> bool:
        nonlocal num, nodes
        for j in range(i, len(progs)):
            sol = crt_pair(r, m, progs[j][0], progs[j][1])
            if sol is None:
                continue
            nodes += 1
            if nodes > _UNION_NODE_MAX:
                return False
            num += sign * (lcm_all // sol[1])
            if not walk(j + 1, sol[0], sol[1], -sign):
                return False
        return True

    if not walk(0, 0, 1, 1):
        return None
    return Fraction(num, lcm_all)


@dataclass(frozen=True)
class CoprimeCheckpoint:
    z: int
    hit_exact: float
    residual: float
    lower_bound: float


@dataclass(frozen=True)
class CoprimeReport:
    """Empirical density of gcd(a*n+b, a_n) = 1 against the structural lower
    bound 1 - delta_z - residual at each z of the schedule."""

    poly: str
    a: int
    b: int
    x: int
    count_coprime: int
    density: float
    checkpoints: tuple[CoprimeCheckpoint, ...]

    def to_json(self) -> str:
        payload = {
            "poly": self.poly,
            "a": self.a,
            "b": self.b,
            "x": self.x,
            "count_coprime": self.count_coprime,
            "density": self.density,
            "checkpoints": [
                {
                    "z": c.z,
                    "hit_exact": c.hit_exact,
                    "residual": c.residual,
                    "lower_bound": c.lower_bound,
                }
                for c in self.checkpoints
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def linear_coprime_report(q: GcdQuery, x: int, z_schedule) -> CoprimeReport:
    """Count gcd(a*n+b, a_n) = 1 up to x and check it against the bound

        density >= 1 - delta_z - sum over pretty p in (z, a*x+b] of 1/(p ord(p))

    at every z in the schedule, with a boundary allowance of one index per
    progression (a progression mod M meets [1, x] at most x/M + 1 times).
    Violations raise SelfCheckError.
    """
    if q.linear is None or q.k != 1:
        raise ValueError("coprime report needs a linear form with k = 1")
    if x < 1:
        raise ValueError("x must be >= 1")
    zs = sorted(set(int(z) for z in z_schedule))
    if zs and zs[0] < 2:
        raise ValueError("need z >= 2")
    a, b = q.linear
    g = _gcd_vector(q.F, x, q.linear)
    count = int((g[1:] == 1).sum())
    density = count / x
    pmax = a * x + b
    tail_pool = _pretty_prime_pool(q, scan_primes(q.F, 2, pmax))
    checkpoints = []
    for z in zs:
        hd = small_prime_hit_density(q, z, x)
        if hd.exact is not None:
            hit = float(hd.exact)
        else:
            hit = hd.marked_density
        residual = 0.0
        n_tail = 0
        for p, op in tail_pool:
            if z < p <= pmax and a % p != 0:
                residual += 1.0 / (p * op)
                n_tail += 1
        allowance = (len(hd.progressions) + n_tail) / x
        lower = 1.0 - hit - residual - allowance
        if density < lower:
            raise SelfCheckError(
                f"coprime density {density:.6f} below structural bound {lower:.6f} at z={z}"
            )
        checkpoints.append(CoprimeCheckpoint(z, hit, residual, lower))
    return CoprimeReport(
        q.F.coeff_key(), a, b, x, count, density, tuple(checkpoints)
    )


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------


@dataclass
class DensityReport:
    poly: str
    k: int
    g_form: str
    x: int
    count_A: int
    count_B: int
    floor_identity: int
    series: list[SeriesTruncation]
    series_A: list[SeriesTruncation]
    nonempty_A: bool
    nonempty_B: bool
    witness: int | None
    checkpoints: list[tuple[int, int, int]] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "poly": self.poly,
            "k": self.k,
            "g_form": self.g_form,
            "x": self.x,
            "count_A": self.count_A,
            "count_B": self.count_B,
            "floor_identity": self.floor_identity,
            "series": [
                {"T": s.T, "value": s.value, "last_block": s.last_block}
                for s in self.series
            ],
            "series_A": [
                {"T": s.T, "value": s.value, "last_block": s.last_block}
                for s in self.series_A
            ],
            "nonempty_A": self.nonempty_A,
            "nonempty_B": self.nonempty_B,
            "witness": self.witness,
            "flags": self.flags,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def checkpoints_csv(self) -> str:
        lines = ["x,count_A,count_B,ratio_A,ratio_B"]
        for cx, ca, cb in self.checkpoints:
            lines.append(f"{cx},{ca},{cb},{ca / cx:.9f},{cb / cx:.9f}")
        return "\n".join(lines) + "\n"


def build_density_report(
    q: GcdQuery, x: int, method: str = "both", T: int = 2000
) -> DensityReport:
    """Assemble counts, the floor identity, series truncations at T/4, T/2, T
    and the nonemptiness verdicts into one report.  method 'both' recomputes
    the counts through the oracle and the sieve and insists they agree.  The
    sieve counts at the checkpoints x/4, x/2 and x all come from one bounded
    scan at x, which the floor identity then reuses."""
    q._identity_only("build_density_report")
    if method not in ("oracle", "sieve", "both"):
        raise ValueError(f"unknown method {method!r}")
    if x < 1:
        raise ValueError("x must be >= 1")
    if T < 1:
        raise ValueError("T must be >= 1")
    flags: list[str] = []
    # rank k first, so that the oracle route refuses a k past 2^62 as the
    # sieve route does, before numpy meets it
    ord_crt(q.F, q.k, q.cache)
    cps = sorted(set(cx for cx in (x // 4, x // 2, x) if cx >= 1))
    if method in ("sieve", "both"):
        counts = dict(zip(cps, _sieve_counts(q, x, cps)))
    else:
        gv = _gcd_vector(q.F, x, None)
        counts = {cx: _counts_from_gvec(gv, q.k, cx) for cx in cps}
    count_a, count_b = counts[x]
    if method == "both":
        oa, ob = count_oracle(q, x)
        if (oa, ob) != (count_a, count_b):
            raise SelfCheckError(
                f"oracle ({oa}, {ob}) and sieve ({count_a}, {count_b}) disagree at x={x}"
            )
    fi = floor_identity_B(q, x)
    if method == "both" and fi != count_b:
        raise SelfCheckError(f"floor identity {fi} != count_B {count_b} at x={x}")
    series_b, series_a = series_checkpoints(q, T)
    nb = b_nonempty(q)
    na = a_nonempty(q)
    if ord_crt(q.F, q.k, q.cache) == INF:
        flags.append(f"k={q.k} is not pretty; identity and series are empty sums")
    if not na.holds and series_a and abs(series_a[-1].value) > series_a[-1].last_block:
        flags.append(
            "A is empty but its series truncation exceeds the last-block gauge"
        )
    return DensityReport(
        poly=q.F.coeff_key(),
        k=q.k,
        g_form=q.g_str(),
        x=x,
        count_A=count_a,
        count_B=count_b,
        floor_identity=fi,
        series=series_b,
        series_A=series_a,
        nonempty_A=na.holds,
        nonempty_B=nb.holds,
        witness=na.witness,
        checkpoints=[(cx, counts[cx][0], counts[cx][1]) for cx in cps],
        flags=flags,
    )
