"""Memory guards: every entry point of the int64 lanes refuses a modulus of
2^31 or more before it allocates, the exact prime scan keeps one pool of
lanes next to its columns, the injectivity screen's temporaries stay within
a few pools' width, the pool reader keeps only its pool, the
sieve marks the B and the A classes one segment at a time, and the oracle
and the rank table hold one pool of lanes, whatever their size.  tracemalloc
sees numpy's buffers, so these peaks do not depend on the test process's
RSS."""

import tracemalloc

import numpy as np
import pytest

from dyngcd.arith_core import sieve_primes
from dyngcd.cli import main
from dyngcd.density_lab import GcdQuery, _gcd_vector, count_oracle, count_sieve
from dyngcd.orbit_engine import OrdCache, first_zero_scan, ord_table, parse_polynomial
from dyngcd.prime_lab import (
    _injective_column,
    ell_pool,
    is_injective_mod_p,
    low_rank_primes,
    scan_primes,
)

F = parse_polynomial("x^2+1")


def _peak_mb(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_exact_scan_peak_stays_near_its_columns():
    # 78,498 primes: the sieve's segments and their concatenation, the window
    # cut from it, the ord and injective columns (0.7 MB), one pool of lanes
    # and a round's temporaries; the primes are their own caps, so no cap
    # column is allocated
    scan, peak = _peak_mb(scan_primes.__wrapped__, F, 2, 10**6)
    assert len(scan) == 78498
    assert peak < 3, f"{peak:.2f} MB"


def test_injectivity_screen_peak_stays_near_its_column():
    # the cubic's closed form takes about a dozen int64 temporaries per
    # prime, 5.0 MiB over 78,498 primes at once; screened a pool's width at
    # a time it traced 0.34 MiB, and the bool column itself is 0.07 MiB
    primes = sieve_primes(10**6)
    inj, peak = _peak_mb(_injective_column, parse_polynomial("x^3+x^2+1"), primes)
    assert inj.size == primes.size
    assert peak < 0.5, f"{peak:.2f} MB"


def test_pool_reader_peak_stays_near_one_block():
    # the 78,498 primes of the bounded scan come and go a segment at a time;
    # only the 42 rows with ell(p) <= 10^6 stay
    pool, peak = _peak_mb(ell_pool.__wrapped__, F, 10**6)
    assert len(pool) == 42
    assert peak < 1.5, f"{peak:.2f} MB"


def test_sieve_count_peak_at_1e7():
    # at k = 1 a whole hit array would take 10 MB and the full scan's
    # columns 8.5 MB; the sieve route holds one segment of each
    ell_pool.cache_clear()  # the pool reader's own peak belongs to the measurement
    _, peak = _peak_mb(count_sieve, GcdQuery(OrdCache(F), 1), 10**7)
    assert peak < 3, f"{peak:.2f} MB"


@pytest.mark.parametrize("x, bound", [(10**4, 0.5), (10**5, 3)])
def test_oracle_peak_holds_one_copy_of_its_lanes(x, bound):
    # an int64 array over the lanes takes 78 KB at 10^4.  The walk holds the
    # indices, the residues and at most 4,096 lanes in its pool, counted
    # down in the same rounds, and g comes after the walk: the peaks read
    # 0.42 and 2.29 MiB, against 0.79 and 7.92 MiB when every lane was live
    # at once and a second pass counted them down
    g, peak = _peak_mb(_gcd_vector.__wrapped__, F, x, None)
    assert g.size == x + 1
    assert peak < bound, f"{peak:.2f} MB"


@pytest.mark.parametrize("limit", [10**4, 10**5])
def test_rank_table_peak_is_its_arrays_and_one_pool(limit):
    # the table, the moduli and the scan's output are three arrays of the
    # table's size; the pool's (7, 4096) int64 columns and a round's
    # temporaries add 0.27 MiB, whatever the limit.  With every lane live
    # at once that excess read 0.64 MiB at 10^4 and 6.4 MiB at 10^5
    t, peak = _peak_mb(ord_table.__wrapped__, F, limit)
    assert peak < 3 * t.nbytes / 2**20 + 0.3, f"{peak:.2f} MB"


# only sizes of 2^31 or more: those are refused before any allocation
LANE_ENTRY_POINTS = [
    (first_zero_scan, (F, np.array([2**31]), np.array([5]))),
    (scan_primes, (F, 2, 2**31)),
    (ell_pool, (F, 2**31)),
    (low_rank_primes, (F, 2.0, 2**31)),
    (ord_table, (F, 2**31)),
    (count_oracle, (GcdQuery(OrdCache(F), 1), 2**31)),
    # a cubic mod 2^31 has no closed-form answer, so it needs the value table
    (is_injective_mod_p, (parse_polynomial("x^3+2"), 2**31)),
]


@pytest.mark.parametrize(
    "fn, args", LANE_ENTRY_POINTS, ids=[fn.__name__ for fn, _ in LANE_ENTRY_POINTS]
)
def test_lane_entry_point_refuses_a_modulus_of_2_31(fn, args):
    with pytest.raises(ValueError, match="moduli below 2\\^31, not moduli up to 2147483648$"):
        fn(*args)


def test_oversized_coefficient_scan_is_refused_before_sieving(capsys):
    # sieving to 3*10^7 first took a 30 MB mask before the kernel refused
    argv = ["scan", "--poly", "x^2+100000000000000000000", "--pmax", "30000000"]
    rc, peak = _peak_mb(main, argv)
    assert rc == 2 and capsys.readouterr().out == ""
    assert peak < 1, f"{peak:.2f} MB"
