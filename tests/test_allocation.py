"""Memory guards for the sieve route: the bounded prime scan keeps O(block)
temporaries next to its ord and injective columns, and the sieve marks the B
and the A classes into one bool array.  tracemalloc sees numpy's buffers, so
these peaks do not depend on the test process's RSS."""

import tracemalloc

from dyngcd.density_lab import GcdQuery, count_sieve
from dyngcd.orbit_engine import OrdCache, parse_polynomial
from dyngcd.prime_lab import scan_primes

F = parse_polynomial("x^2+1")


def _peak_mb(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_bounded_scan_peak_stays_near_its_columns():
    # 78,498 primes: the sieve's 1 MB mask, the primes and the two columns
    # (about 1.3 MB), and one block's temporaries
    scan, peak = _peak_mb(scan_primes.__wrapped__, F, 2, 10**6, sieve_bound=10**6)
    assert len(scan) == 78498
    assert peak < 3, f"{peak:.2f} MB"


def test_sieve_count_peak_at_1e7():
    scan_primes.cache_clear()  # the scan's own peak belongs to the measurement
    _, peak = _peak_mb(count_sieve, GcdQuery(OrdCache(F), 1), 10**7)
    assert peak < 30, f"{peak:.2f} MB"
