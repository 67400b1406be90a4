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
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .arith_core import _SIEVE_SEGMENT, MODULUS_MAX, crt_pair, factorize
from .orbit_engine import (
    INF,
    IntPolynomial,
    OrdCache,
    _a_mod_vec,
    _Frozen,
    a_mod,
    check_int64_horner,
    ell,
    ord_crt,
    require_wandering,
)
from .prime_lab import ell_pool, scan_primes

if TYPE_CHECKING:  # fractions (and the decimal it loads) only for coprime
    from fractions import Fraction


class SelfCheckError(AssertionError):
    """A dual-route computation disagreed with itself; nothing should catch
    this except the CLI, which turns it into exit code 4."""


class GcdQuery(_Frozen):
    """A rank context together with the gcd target k and the index form G.

    linear is None for G(x) = x, else the pair (a, b) meaning G(x) = a*x + b
    with a, b >= 1 and gcd(a, b) = 1.  Density operations with k > 1 are only
    defined for the identity form.  Queries built over one OrdCache (or
    derived with with_k) share every rank they compute.  Equality, hashing
    and the repr go by (F, k, linear), whatever the cache.
    """

    __slots__ = ("cache", "k", "linear")

    def __init__(self, cache: OrdCache, k: int, linear: tuple[int, int] | None = None):
        require_wandering(cache.F)
        if k < 1:
            raise ValueError("k must be >= 1")
        if linear is not None:
            a, b = linear
            if a < 1 or b < 1:
                raise ValueError("linear form needs a >= 1 and b >= 1")
            if math.gcd(a, b) != 1:
                raise ValueError("linear form needs gcd(a, b) = 1")
        for name, value in (("cache", cache), ("k", k), ("linear", linear)):
            object.__setattr__(self, name, value)

    @property
    def F(self) -> IntPolynomial:
        return self.cache.F

    def _key(self) -> tuple:
        return self.F, self.k, self.linear

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is GcdQuery else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GcdQuery(F={self.F!r}, k={self.k!r}, linear={self.linear!r})"

    def with_k(self, k: int) -> GcdQuery:
        """The same query for the target k, sharing this query's cache."""
        return GcdQuery(self.cache, k, self.linear)

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
    # the largest modulus, as a Python int: refuse before any lane exists
    check_int64_horner(F.coeffs, x if linear is None else linear[0] * x + linear[1])
    n = np.arange(1, x + 1, dtype=np.int64)
    mods = n if linear is None else linear[0] * n + linear[1]
    a = _a_mod_vec(F.coeffs, mods, n)
    # g only once the walk is done, since the walk sets the oracle's peak
    g = np.zeros(x + 1, dtype=np.int64)
    np.gcd(mods, a, out=g[1:])
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


def count_sieve(q: GcdQuery, x: int) -> tuple[int, int]:
    """(#A(x), #B(x)) from the rank structure, no per-index orbit work.

    B(k) is exactly the multiples of ell(k) that avoid every ell(p) for
    pretty p not dividing k.  Inside that set, n leaves A(k) when it lies in
    the class 0 mod ell(p^(e+1)) of some p^e || k (see _A_classes).
    """
    q._identity_only("count_sieve")
    if x < 1:
        raise ValueError("x must be >= 1")
    return _sieve_counts(q, x, (x,))[0]


def _sieve_counts(q: GcdQuery, x: int, cuts) -> list[tuple[int, int]]:
    """count_sieve at every cut-off cx <= x in cuts, from the bounded pool at
    x.  Whether n is a member does not depend on the cut-off, so each count
    is a prefix count of the sieve at x.  The A classes are marked on top of
    the B classes, since A(k) is the part of B(k) outside them."""
    bp = _b_pool(q, x)
    if bp is None:
        return [(0, 0)] * len(cuts)
    lk, pool = bp
    counts_b, counts_a = _unmarked_counts((pool, _A_classes(q, x)), lk, x, cuts)
    return list(zip(counts_a, counts_b))


def _unmarked_counts(pools, lk: int, x: int, cuts) -> list[list[int]]:
    """For each pool in turn, marked on top of the pools before it: the
    number of n = j * lk with 1 <= n <= cx in no class of the pools so far,
    at every cut-off cx in cuts.  The multiples of lk are marked in
    segments of _SIEVE_SEGMENT values of j, the prime sieve's length, so
    that the marking's memory does not grow with x; each segment costs one
    CRT and one slice per class, and each count adds up across segments."""
    ends = [cx // lk + 1 for cx in cuts]
    n = x // lk + 1
    counts = [[0] * len(ends) for _ in pools]
    buf = np.empty(min(n, _SIEVE_SEGMENT), dtype=bool)
    for j0 in range(0, n, _SIEVE_SEGMENT):
        hit = buf[: min(_SIEVE_SEGMENT, n - j0)]
        hit[:] = False
        hit[0] = j0 == 0  # n = 0 is no index
        for pool, row in zip(pools, counts):
            _class_sieve(pool, (0, lk), hit, j0)
            for i, end in enumerate(ends):
                e = min(max(end - j0, 0), hit.size)
                row[i] += e - int(np.count_nonzero(hit[:e]))
    return counts


# ---------------------------------------------------------------------------
# pretty squarefree enumeration, floor identity, series
# ---------------------------------------------------------------------------


def _hit_classes(q: GcdQuery, scan) -> list[tuple[int, int, int]]:
    """(p, r, m) for every pretty prime p of a PrimeScan that does
    not divide k and can divide gcd(G(n), a_n): p divides it exactly when
    n = r (mod m), the CRT of G(n) = 0 (mod p) with ord(p) | n.  G(x) = x is
    the form (1, 0), whose class is 0 mod ell(p).  A prime drops out when
    p | a (p never divides a*n+b) or when the two congruences do not meet
    (p | a_n forces p | n, against p | a*n+b)."""
    a, b = q.linear or (1, 0)
    keep = scan.pretty & ~np.isin(scan.p, factorize(q.k).prime_set())
    pool = []
    for p, op in zip(scan.p[keep].tolist(), scan.ord[keep].tolist()):
        if a % p:
            sol = crt_pair(-b * pow(a, -1, p) % p, p, 0, op)
            if sol is not None:
                pool.append((p, *sol))
    return pool


def _b_pool(q: GcdQuery, x: int) -> tuple[int, tuple[tuple[int, int, int], ...]] | None:
    """ell(k) and the B classes (p, 0, ell(p)) with ell(p) <= x, off the
    pool reader ell_pool(F, x), which the sieve, the floor identity and the
    avoidance bound share; None when ell(k) is infinite or past x, so that
    B(k) has no member up to x.  A class past x meets [1, x] nowhere."""
    lk = ell(q.cache, q.k)
    if lk == INF or lk > x:
        return None
    return lk, tuple(_hit_classes(q, ell_pool(q.F, x)))


def _A_classes(q: GcdQuery, bound) -> list[tuple[int, int, int]]:
    """(p, 0, ell(p^(e+1))) for each p^e || k with p <= bound, ascending in
    p: an n of B(k) lies in A(k) exactly when it lies in none of these
    classes, since p^(e+1) | gcd(n, a_n) exactly when ell(p^(e+1)) | n.  A
    prime drops out when ord(p^(e+1)) is infinite or p^(e+1) is past
    MODULUS_MAX (then p^(e+1) never divides an orbit term the analysis can
    reach)."""
    pool = []
    for p, e in factorize(q.k).factors:
        pe1 = p ** (e + 1)
        if p <= bound and pe1 <= MODULUS_MAX:
            r = q.cache.rank_of(q.F, pe1)
            if r != INF:
                pool.append((p, 0, math.lcm(pe1, r)))
    return pool


def _class_sieve(pool, base: tuple[int, int], hit: np.ndarray, j0: int) -> None:
    """Set hit[j - j0] for every j0 <= j < j0 + hit.size where n = r0 + j*m0
    of the base class (r0, m0), 0 <= r0 < m0, lies in some class (p, r, m)
    of pool; the caller owns the bool array, so that markings can share it,
    and j0 lets it mark a long range one segment at a time.  The marking
    counterpart of _class_walk: a class meets the base class in one class
    mod L = lcm(m, m0) or in none, so it hits every (L // m0)-th j from the
    first."""
    r0, m0 = base
    for _, r, m in pool:
        sol = crt_pair(r0, m0, r, m)
        if sol is not None:
            step = sol[1] // m0
            # sol[0] = r0 (mod m0) and 0 <= sol[0] < L, so the first hit j is
            # below step, and the first one at or past j0 is j0 + this
            start = ((sol[0] - r0) // m0 - j0) % step
            if start < hit.size:
                hit[start::step] = True


def _class_walk(pool, base: tuple[int, int], d_max, m_max):
    """Yield (d, mu(d), r, m) for every subset of pool whose classes meet
    the base class, depth first in preorder: the empty subset first, then
    the subsets in lexicographic order of their pool indices.

    pool holds classes (p, r, m), meaning n = r (mod m) with 0 <= r < m,
    ascending in p; d is the product of the subset's p, and n = r (mod m)
    is the intersection of its classes with the base class.  A branch ends
    where the classes do not meet, where d > d_max or where m > m_max:
    along a branch d and m only grow.  The CRT is inlined and each node
    pushes one frame, since the union walk runs this at every node.
    """
    r, m = base
    yield 1, 1, r, m
    stack = []  # (next pool index, d, mu, r, m) of the ancestors to resume
    i, d, mu = 0, 1, 1
    n = len(pool)
    while True:
        descended = False
        for j in range(i, n):
            p, rp, mp = pool[j]
            if d * p > d_max:
                break  # and so for every later p
            g = math.gcd(m, mp)
            if (rp - r) % g:
                continue
            mg = mp // g
            mm = m * mg
            if mm > m_max:
                continue
            stack.append((j + 1, d, mu, r, m))
            # r + m*t < mm for 0 <= t < mg, so r stays reduced
            r, m = r + m * ((rp - r) // g * pow(m // g, -1, mg) % mg), mm
            i, d, mu = j + 1, d * p, -mu
            yield d, mu, r, m
            descended = True
            break
        if not descended:
            if not stack:
                return
            i, d, mu, r, m = stack.pop()


def floor_identity_B(q: GcdQuery, x: int) -> int:
    """#B(x) as the exact finite sum over pretty squarefree d coprime to k:

        sum mu(d) * floor(x / ell(d*k))

    Terms with ell(d*k) > x vanish, and ell only grows with d, so the sum is
    a pruned walk over the bounded pool at x (the classes 0 mod ell(p) with
    ell(p) <= x), from the base class 0 mod ell(k).  This equals the sieve
    and oracle counts exactly, not asymptotically.
    """
    q._identity_only("floor_identity_B")
    if x < 1:
        raise ValueError("x must be >= 1")
    bp = _b_pool(q, x)
    if bp is None:
        return 0
    lk, pool = bp
    return sum(mu * (x // m) for _, mu, _, m in _class_walk(pool, (0, lk), x, x))


class SeriesTruncation(NamedTuple):
    T: int
    value: float
    last_block: float


def _series(q: GcdQuery, ts) -> tuple[list[SeriesTruncation], list[SeriesTruncation]]:
    """The B and the A truncations at every t in ts (ascending): sum mu(d) /
    ell(d*k) over the squarefree d <= t of the walk, in its order, and
    last_block, sum 1/ell(d*k) over t/2 < d <= t.  One walk of the A pool to
    T = max(ts) serves both: the A pool is the B pool plus classes of primes
    of k, so the B pool's walk is the nodes with gcd(d, k) = 1, in the same
    order.  A walk to T visits the nodes with d <= t in the order of a walk to
    t, and the exact scan up to T holds the one up to t."""
    q._identity_only("the density series")
    if ts[0] < 1:
        raise ValueError("T must be >= 1")
    T = ts[-1]
    lk = ell(q.cache, q.k)
    if lk == INF:
        return ([SeriesTruncation(t, 0.0, 0.0) for t in ts],) * 2
    pool = sorted(_hit_classes(q, scan_primes(q.F, 2, T)) + _A_classes(q, T))
    nodes = [(d, mu, m) for d, mu, _, m in _class_walk(pool, (0, lk), T, INF)]

    def truncations(walk) -> list[SeriesTruncation]:
        totals = [0.0] * len(ts)
        blocks = [0.0] * len(ts)
        for d, mu, m in walk:
            for i, t in enumerate(ts):
                if d <= t:
                    totals[i] += mu / m
                    if d > t // 2:
                        blocks[i] += 1.0 / m
        return [SeriesTruncation(*row) for row in zip(ts, totals, blocks)]

    return truncations(nd for nd in nodes if math.gcd(nd[0], q.k) == 1), truncations(nodes)


def series_density_B(q: GcdQuery, T: int) -> SeriesTruncation:
    """Truncation at T of the density series for B(k):

        sum over squarefree d <= T coprime to k of mu(d) / ell(d*k).

    Only pretty d contribute (infinite ell kills the term).  last_block is
    the absolute tail sum over T/2 < d <= T, the reported convergence gauge.
    """
    return _series(q, [T])[0][0]


def series_density_A(q: GcdQuery, T: int) -> SeriesTruncation:
    """Truncation at T of the density series for A(k):

        sum over all squarefree t <= T of mu(t) / ell(t*k),

    with no coprimality restriction; t sharing primes with k raises the
    corresponding prime power inside ell(t*k).  Terms with ell infinite drop.

    For squarefree t, ord(t*k) is the lcm of ord(k), of ord(p^(v_p(k)+1))
    over the primes p of t dividing k and of ord(p) over the other primes of
    t, since ord(p^e) divides ord(p^(e+1)).  So this is the walk of the B
    series with each prime p of k admitted as its class in _A_classes, the
    class 0 mod ell(p^(v_p(k)+1)), and left out when that rank is infinite.
    """
    return _series(q, [T])[1][0]


def series_checkpoints(
    q: GcdQuery, T: int
) -> tuple[list[SeriesTruncation], list[SeriesTruncation]]:
    """The B and the A truncations at T/4, T/2 and T (those >= 1), read off
    one walk over one exact scan up to T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return _series(q, sorted(set(t for t in (T // 4, T // 2, T) if t >= 1)))


def count_A_inclusion_exclusion(q: GcdQuery, x: int) -> int:
    """#A(x) = sum over squarefree d | k~ of mu(d) * #B(d*k)(x), where k~ is
    the radical of k.  A finite-x consistency route, used by the checks."""
    q._identity_only("count_A_inclusion_exclusion")
    pool = [(p, 0, 1) for p in factorize(q.k).prime_set()]
    return sum(
        mu * count_sieve(q.with_k(d * q.k), x)[1]
        for d, mu, _, _ in _class_walk(pool, (0, 1), INF, INF)
    )


# ---------------------------------------------------------------------------
# nonemptiness
# ---------------------------------------------------------------------------


class NonemptyVerdict(NamedTuple):
    holds: bool
    witness: int | None
    reason: str


_WITNESS_CHECK_MAX = 10**6


def _ell_gcd(q: GcdQuery) -> tuple[int, dict[int, int]] | None:
    """ell(k) and gcd(ell(k), a_ell(k)) as {p: e}, or None when k is not
    pretty.  Both nonemptiness verdicts read off this gcd.

    The gcd comes from ranks, not from ell(k) Horner steps: p^e | a_n exactly
    when ord(p^e) | n, and ord(p^e) | ord(p^(e+1)), so for p^f || ell(k) the
    gcd holds p to the largest power e <= f with ord(p^e) | ell(k).  The
    primes of ell(k) come from those of k and of ord(k) <= k, which stay
    inside factorize's range even where ell(k) = lcm(k, ord(k)) does not.
    Where ell(k) is small enough, the gcd is checked against membership's."""
    F, k, cache = q.F, q.k, q.cache
    rk = ord_crt(cache, k)
    if rk == INF:
        return None
    lk = math.lcm(k, rk)
    factors = dict(factorize(rk).factors)
    for p, e in factorize(k).factors:
        factors[p] = max(e, factors.get(p, 0))
    gcd = {}
    for p, f in factors.items():
        for e in range(1, f + 1):
            r = cache.rank_of(F, p**e)
            if r == INF or lk % r:
                break
            gcd[p] = e
    g = math.prod(p**e for p, e in gcd.items())
    if lk <= _WITNESS_CHECK_MAX and membership(q, lk).g != g:
        raise SelfCheckError(f"membership({lk}) disagrees with the gcd read off ranks")
    return lk, gcd


def b_nonempty(q: GcdQuery) -> NonemptyVerdict:
    """Whether B(k) has any element at all: k must be pretty, and no prime p
    outside k may divide gcd(ell(k), a_ell(k)), that is have ell(p) | ell(k).
    When that holds, n = ell(k) itself is a member."""
    q._identity_only("b_nonempty")
    k = q.k
    lg = _ell_gcd(q)
    if lg is None:
        return NonemptyVerdict(False, None, f"k={k} is not pretty (infinite rank)")
    lk, gcd = lg
    for p in gcd:
        if k % p:
            return NonemptyVerdict(
                False,
                None,
                f"prime {p} outside k has ell({p})={ell(q.cache, p)} dividing ell({k})={lk}",
            )
    return NonemptyVerdict(True, lk, f"ell({k})={lk} is a member of B")


def a_nonempty(q: GcdQuery) -> NonemptyVerdict:
    """Whether A(k) has any element: exactly when gcd(ell(k), a_ell(k)) = k,
    in which case n = ell(k) is the witness."""
    q._identity_only("a_nonempty")
    k = q.k
    lg = _ell_gcd(q)
    if lg is None:
        return NonemptyVerdict(False, None, f"k={k} is not pretty (infinite rank)")
    lk, gcd = lg
    g = math.prod(p**e for p, e in gcd.items())
    if g == k:
        return NonemptyVerdict(True, lk, f"gcd(ell({k}), a_ell({k})) = {g} = k")
    return NonemptyVerdict(False, None, f"gcd(ell({k}), a_ell({k})) = {g} != {k}")


# ---------------------------------------------------------------------------
# avoidance lower bound
# ---------------------------------------------------------------------------


def y_k_lower_bound(q: GcdQuery, x: int) -> int:
    """#{n <= x in B(k) : gcd(n / ell(k), k) = 1}: the B sieve over the
    bounded pool at x, with the class 0 mod p*ell(k) of each prime p | k
    marked as well.  A certified lower bound for #B(x), and for #A(x) when F
    has zero linear coefficient (rigid divisibility)."""
    q._identity_only("y_k_lower_bound")
    bp = _b_pool(q, x)
    if bp is None:
        return 0
    lk, pool = bp
    extra = tuple((p, 0, p * lk) for p in factorize(q.k).prime_set())
    return _unmarked_counts((pool + extra,), lk, x, (x,))[0][0]


# ---------------------------------------------------------------------------
# linear forms: small-prime hit density and the coprimality report
# ---------------------------------------------------------------------------


class HitDensity(NamedTuple):
    """Density of indices n caught by some pretty prime p <= z, meaning
    p | gcd(a*n+b, a_n).  Each such prime pins n to one residue class modulo
    ell(p); exact is the inclusion-exclusion union density of those classes
    (None when its walk passes _UNION_NODE_MAX nodes), marked_count the
    realized count up to x."""

    z: int
    x: int
    progressions: tuple[tuple[int, int], ...]
    marked_count: int
    exact: Fraction | None

    @property
    def marked_density(self) -> float:
        return self.marked_count / self.x


_UNION_NODE_MAX = 200_000


def _hit_densities(pool, zs, x: int) -> list[HitDensity]:
    """How much of [1, x] the classes of pool (ascending in p) with p <= z
    hit, at each z of the ascending zs.  One marking, one segment at a time
    like the sieve counts: the classes with z_(i-1) < p <= z_i are the i-th
    pool, marked on top of the ones before, so each class is sliced once."""
    pools = [[c for c in pool if lo < c[0] <= z] for lo, z in zip([0, *zs], zs)]
    progs: tuple[tuple[int, int], ...] = ()
    out = []
    for z, part, (unmarked,) in zip(zs, pools, _unmarked_counts(pools, 1, x, (x,))):
        progs += tuple((r, m) for _, r, m in part)
        out.append(HitDensity(z, x, progs, x - unmarked, _union_density(progs)))
    return out


def _union_density(progs) -> Fraction | None:
    """Inclusion-exclusion density of a union of residue classes (r, m),
    walking only the compatible subsets (an incompatible pair kills its
    whole branch).  None if the walk visits more than _UNION_NODE_MAX
    nonempty subsets.  Classes that meet pairwise meet jointly (the
    generalized CRT), so every nonempty subset of s pairwise-meeting classes
    is a node: once a greedy pass finds s of them with 2^s - 1 past the
    budget, the walk cannot finish and None comes without walking.  Every
    subset's modulus divides the lcm of all the moduli, so the sum is kept as
    an integer numerator over that lcm."""
    from fractions import Fraction  # here, so that only coprime loads it

    meeting = []
    for r, m in progs:
        if all((r - r2) % math.gcd(m, m2) == 0 for r2, m2 in meeting):
            meeting.append((r, m))
            if 2 ** len(meeting) - 1 > _UNION_NODE_MAX:
                return None
    lcm_all = math.lcm(*(m for _, m in progs))
    # every class as p = 1: d plays no part in a union
    walk = _class_walk([(1, r, m) for r, m in progs], (0, 1), INF, INF)
    num = 0
    # past the empty subset, the union counts each subset with sign -mu
    for _, mu, _, m in islice(walk, 1, _UNION_NODE_MAX + 1):
        num -= mu * (lcm_all // m)
    if next(walk, None) is not None:
        return None
    return Fraction(num, lcm_all)


class CoprimeCheckpoint(NamedTuple):
    z: int
    hit_exact: float
    residual: float
    lower_bound: float


class CoprimeReport(NamedTuple):
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
        payload = self._asdict()
        payload["checkpoints"] = [c._asdict() for c in self.checkpoints]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def linear_coprime_report(q: GcdQuery, x: int, z_schedule) -> CoprimeReport:
    """Count gcd(a*n+b, a_n) = 1 up to x and check it against the bound

        density >= 1 - delta_z - sum over the classes (p, r, m) with
                   z < p <= a*x+b of 1/m

    at every z in the schedule, with a boundary allowance of one index per
    progression (a progression mod M meets [1, x] at most x/M + 1 times).
    The classes are _hit_classes', off one exact scan to the largest of
    a*x+b and the z's (delta_z takes those with p <= z), so a prime is
    charged only when it can divide gcd(a*n+b, a_n): m is ell(p) = p * ord(p)
    for most primes, and an anomalous prime (ord(p) = p) counts only when
    p | b.  Violations raise SelfCheckError.
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
    pool = _hit_classes(q, scan_primes(q.F, 2, max([pmax, *zs])))
    checkpoints = []
    for hd in _hit_densities(pool, zs, x):
        z = hd.z
        hit = float(hd.exact) if hd.exact is not None else hd.marked_density
        tail = [m for p, _, m in pool if z < p <= pmax]
        residual = 0.0  # a loop: from Python 3.12 on, sum() compensates its rounding
        for m in tail:
            residual += 1.0 / m
        lower = 1.0 - hit - residual - (len(hd.progressions) + len(tail)) / x
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


class DensityReport(NamedTuple):
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
    checkpoints: list[tuple[int, int, int]]
    flags: list[str]

    def to_json(self) -> str:
        """Every field but the checkpoints, which checkpoints_csv prints."""
        payload = self._asdict()
        del payload["checkpoints"]
        payload["series"] = [s._asdict() for s in self.series]
        payload["series_A"] = [s._asdict() for s in self.series_A]
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
    and the nonemptiness verdicts into one report.  Each counting route
    gives its counts at the checkpoints x/4, x/2 and x: the sieve reads them
    all off one bounded pool at x, which the floor identity then reuses, and
    the oracle off one gcd vector.  method 'both' runs the two routes and
    insists they agree at every checkpoint; under every method the floor
    identity must equal count_B."""
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
    rk = ord_crt(q.cache, q.k)
    cps = sorted(set(cx for cx in (x // 4, x // 2, x) if cx >= 1))
    sieve = oracle = None
    if method != "oracle":
        sieve = _sieve_counts(q, x, cps)
    if method != "sieve":
        gv = _gcd_vector(q.F, x, None)
        oracle = [_counts_from_gvec(gv, q.k, cx) for cx in cps]
    if sieve and oracle:
        for cx, sc, oc in zip(cps, sieve, oracle):
            if sc != oc:
                raise SelfCheckError(f"oracle {oc} and sieve {sc} disagree at x={cx}")
    counts = dict(zip(cps, sieve or oracle))
    count_a, count_b = counts[x]
    fi = floor_identity_B(q, x)
    if fi != count_b:
        raise SelfCheckError(f"floor identity {fi} != count_B {count_b} at x={x}")
    series_b, series_a = series_checkpoints(q, T)
    nb = b_nonempty(q)
    na = a_nonempty(q)
    if rk == INF:
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
