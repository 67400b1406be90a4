"""Every invariant suite can fail: each one, run at bound 90 on x^2+1 with one
injected fault, must report ok = False rather than pass or crash.  The fault
is either one corrupted rank in the ord_table the suite reads, or a wrong
answer from one name the suite reads from dyngcd.verify.  oracle_sieve and
scan_policies have their own fault tests (test_density_lab, test_prime_lab);
low_rank_growth is a diagnostic that reports a break and never fails."""

import numpy as np
import pytest

from dyngcd import verify
from dyngcd.orbit_engine import OrdCache, ord_table, parse_polynomial
from dyngcd.prime_lab import PrimeScan

F = parse_polynomial("x^2+1")
BOUND = 90
SUITES = dict(verify._SUITES)


def _wrapped(name, edit):
    """verify's name, with edit applied to what the true one returns."""
    true = getattr(verify, name)
    return name, lambda *args: edit(true(*args), *args)


def _bump_last(series):
    return [s[:-1] + [s[-1]._replace(value=s[-1].value + 1)] for s in series]


def _injective_nowhere(scan):
    return PrimeScan(scan.p, scan.ord, np.zeros_like(scan.injective))


# ord(5) = 3 for x^2+1; 7 is no rank of 5 at all, since it breaks the rank
# cap, and no lcm with another rank of the table hides it
TABLE_FAULT = (5, 7)
TABLE_SUITES = (
    "rank_multiples", "rank_crt", "rank_lcm", "joint_rank_lcm", "prime_ell", "rank_cap",
    "record_consistency",
)
NAME_FAULTS = {
    "exact_divisibility": _wrapped("a_value", lambda a, F, n: a + (n == 2)),
    "joint_rank": _wrapped("ell", lambda e, cache, n: e + (n == 5)),
    "rigid_valuations": _wrapped(
        "nu_p_of_a", lambda val, F, n, p, e_max: val._replace(value=val.value + n % 2)),
    "anomalous_injective": _wrapped("scan_primes", lambda scan, *_: _injective_nowhere(scan)),
    "floor_identity": _wrapped("floor_identity_B", lambda b, q, x: b + 1),
    "inclusion_exclusion": _wrapped("count_A_inclusion_exclusion", lambda a, q, x: a + 1),
    "nonempty": _wrapped("a_nonempty", lambda v, q: v._replace(holds=not v.holds)),
    "series_cauchy": _wrapped("series_checkpoints", lambda s, q, T: _bump_last(s)),
    "subset_collapse": _wrapped("_b_mask", lambda mask, g, k: ~mask),
    "y_lower_bound": _wrapped("y_k_lower_bound", lambda y, q, x: y + 10**6),
}
OWN_TESTS = ("oracle_sieve", "scan_policies")
FAULTS = [(s, None) for s in TABLE_SUITES] + list(NAME_FAULTS.items())


@pytest.fixture(scope="module")
def table():
    return ord_table(F, BOUND * BOUND // 9)


def test_every_suite_has_a_fault():
    named = [s for s, _ in FAULTS] + list(OWN_TESTS) + ["low_rank_growth"]
    assert sorted(named) == sorted(SUITES)


@pytest.mark.parametrize("suite,fault", FAULTS, ids=[s for s, _ in FAULTS])
def test_suite_fails_on_an_injected_fault(suite, fault, table, monkeypatch):
    if fault is None:
        table = table.copy()
        n, r = TABLE_FAULT
        table[n] = r
    else:
        monkeypatch.setattr(verify, *fault)
    ok, detail = SUITES[suite](F, BOUND, OrdCache(F), table)
    assert not ok, detail
    # the one suite that no fault can fail
    assert SUITES["low_rank_growth"](F, BOUND, OrdCache(F), table)[0]
