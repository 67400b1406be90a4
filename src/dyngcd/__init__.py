"""Divisibility structure of polynomial orbit sequences: ranks of apparition,
prime scans, and exact densities of the gcd sets.

The public names below are loaded from their submodule on first use
(PEP 562), so `import dyngcd` stays cheap: numpy and the density, prime and
verify layers load only when a name from them is asked for.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("factorize", "sieve_primes"), "arith_core"),
    **dict.fromkeys(
        (
            "INF", "CacheMismatchError", "IntPolynomial", "OrbitClass", "OrdCache",
            "ParseError", "PreperiodicOrbitError", "a_mod", "a_value",
            "classify_orbit", "ell", "growth_constant_estimate", "nu_p_of_a",
            "ord_crt", "ord_direct", "ord_table", "parse_polynomial",
            "require_wandering",
        ),
        "orbit_engine",
    ),
    **dict.fromkeys(
        (
            "PrimeScan", "is_injective_mod_p", "low_rank_primes", "scan_csv",
            "scan_primes",
        ),
        "prime_lab",
    ),
    **dict.fromkeys(
        (
            "DensityReport", "GcdQuery", "MembershipVerdict", "NonemptyVerdict",
            "SelfCheckError", "SeriesTruncation", "a_nonempty", "b_nonempty",
            "build_density_report", "count_A_inclusion_exclusion", "count_oracle",
            "count_sieve", "floor_identity_B", "linear_coprime_report",
            "membership", "series_checkpoints", "series_density_A",
            "series_density_B", "small_prime_hit_density", "y_k_lower_bound",
        ),
        "density_lab",
    ),
    **dict.fromkeys(("SuiteResult", "run_suites"), "verify"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
