"""Small integer arithmetic used everywhere else: sieves, factoring and a
general CRT pair solver.  lcm_checked, an lcm refused past 64 bits, is
called by nothing in the package any more: it remains only as the hook the
benchmark tracer (perfbench/tracer.py) binds by name.

Everything here is deterministic and exact.  Factoring divides out the factors
below 1000, then splits what is left with Pollard's rho in Brent's variant
(BIT 20 (1980) 176-184) and certifies the prime factors by Miller-Rabin with
the first 12 prime bases, which has no false positive below 3.18 * 10^23.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

# lcm_checked signals above this (unsigned 64-bit range).
U64_MAX = 2**64 - 1
# Moduli accepted by the orbit routines.  Kept below 2**62 so a product of two
# reduced residues always fits double-width arithmetic; Python ints would not
# wrap anyway, but the bound is part of the API contract.
MODULUS_MAX = 2**62


# prime_blocks sieves this many odd numbers at a time, and density_lab's
# class marking marks this many multiples of ell(k) at a time, so that each
# stage of the sieve route works in one 128 KB bool segment whatever the
# limit.  Each segment costs one slice per base prime (per class, in the
# marking), so the length trades time at large limits for memory at small
# ones.  On a 2-vCPU Xeon the sieve to 10^9 took 8.9 s in segments of 2^16,
# 6.3 s in 2^17, 4.8 s in 2^18 and 3.1 s in 2^20 (0.25 s to 10^8 from 2^17
# up), while `density --method sieve` at x = 10^6 peaked 0.3 MB higher in RSS
# at 2^18 than at 2^17.  On a 2-vCPU AMD EPYC, marking x^2+1, k = 1 to 10^8
# takes 0.06 s in 2^17 against 0.04 s in 2^18.
_SIEVE_SEGMENT = 1 << 17


def prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit, ascending, as int64 numpy blocks: one block per
    segment of an odd-only segmented sieve of Eratosthenes (Bays and Hudson,
    BIT 17 (1977) 121-127).  Index j of a segment stands for the odd number
    2j + 1; the odd base primes up to sqrt(limit) come from the same sieve
    and mark the segments one after another, so the sieve holds one segment
    at a time whatever the limit."""
    import numpy as np  # on first call, so that importing arith_core stays cheap

    if limit < 2:
        return
    # the odd primes up to sqrt(limit), which mark the segments.  Lists and
    # only numpy calls that the scans make anyway: the first call of each
    # numpy function in a command maps about 64 KB more of numpy's code.
    odd = [p for block in prime_blocks(math.isqrt(limit)) for p in block.tolist()][1:]
    squares = [p * p for p in odd]
    base = np.array(odd, dtype=np.int64)
    n_odd = (limit + 1) // 2  # the odd numbers 1, 3, ..., up to limit
    for j0 in range(0, n_odd, _SIEVE_SEGMENT):
        seg = np.ones(min(_SIEVE_SEGMENT, n_odd - j0), dtype=bool)
        # the base primes with p^2 up to the segment's last odd number
        live = base[: bisect.bisect_left(squares, 2 * (j0 + seg.size))]
        # the odd multiples of p have j = p // 2 (mod p); start at p^2
        at_square = live * live // 2 - j0
        past_j0 = (live // 2 - j0) % live
        starts = np.where(at_square > past_j0, at_square, past_j0)
        for p, start in zip(live.tolist(), starts.tolist()):
            seg[start::p] = False
        primes = np.flatnonzero(seg).astype(np.int64, copy=False)
        del seg  # freed before the consumer runs, which keeps its working set small
        primes *= 2
        primes += 2 * j0 + 1
        if j0 == 0:
            primes[0] = 2  # index 0 stands for 1, which is no prime: put 2 there
        yield primes


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 numpy array (empty for
    limit < 2): prime_blocks, concatenated."""
    import numpy as np

    blocks = list(prime_blocks(limit))
    if len(blocks) < 2:  # no copy, and no concatenate below 2^18
        return blocks[0] if blocks else np.zeros(0, dtype=np.int64)
    return np.concatenate(blocks)


class FactoredInteger(NamedTuple):
    """n together with its factorization [(p, e), ...] in ascending p."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def prime_set(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


# factorize divides out the factors below _TRIAL_BOUND; a cofactor left below
# _TRIAL_BOUND**2 has no factor below its square root, so it is prime.
_TRIAL_BOUND = 1000
# Miller-Rabin with these bases (the first 12 primes) is exact for every n
# below _MR_EXACT_MAX (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_MAX = 318665857834031151167461
# Pollard-Brent rho multiplies this many differences before taking one gcd.
_RHO_BATCH = 128


def _is_prime(n: int) -> bool:
    """Miller-Rabin for an odd n > _TRIAL_BOUND below _MR_EXACT_MAX."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard's rho with Brent's
    cycle detection on y -> y^2 + c mod n from y = 2, for c = 1, 2, 3, ...
    until one c splits n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> FactoredInteger:
    """Factorization of 1 <= n < 3.18 * 10^23: trial division below 1000,
    then Pollard-Brent rho and Miller-Rabin on the cofactor."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    if n >= _MR_EXACT_MAX:
        raise ValueError(f"factorize limited to n below {_MR_EXACT_MAX}")
    m = n
    out = []
    p = 2
    while p < _TRIAL_BOUND and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    large: Counter[int] = Counter()
    pending = [m] if m > 1 else []
    while pending:
        f = pending.pop()
        if f < _TRIAL_BOUND**2 or _is_prime(f):
            large[f] += 1
        else:
            d = _rho_divisor(f)
            pending += [d, f // d]
    out += sorted(large.items())
    return FactoredInteger(n, tuple(out))


def lcm_checked(a: int, b: int) -> int | None:
    """lcm(a, b) for positive a, b, or None if it exceeds the unsigned
    64-bit range.  None is the overflow signal; callers never see a wrapped
    value."""
    if a <= 0 or b <= 0:
        raise ValueError("lcm_checked needs positive arguments")
    v = (a // math.gcd(a, b)) * b
    return v if v <= U64_MAX else None


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for not-necessarily-coprime
    moduli.  Returns (r, lcm(m1, m2)) with 0 <= r < lcm, or None when the
    congruences are inconsistent."""
    if m1 <= 0 or m2 <= 0:
        raise ValueError("moduli must be positive")
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    ll = m1 // g * m2
    # solve r1 + m1*t = r2 (mod m2)  =>  t = (r2-r1)/g * inv(m1/g) mod m2/g
    m2g = m2 // g
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2g)) % m2g if m2g > 1 else 0
    return ((r1 + m1 * t) % ll, ll)
