"""Command line front end.

Exit codes: 0 success, 2 bad input (parse failure, preperiodic orbit, invalid
arguments, a modulus of 2^31 or more or coefficients too large for the int64
kernels, not enough memory, a --cache path that cannot be read or written),
3 cache fingerprint mismatch, corrupt cache or a cached rank that its orbit
walk contradicts, 4 internal cross-check failure (dual-route disagreement or
a failed verify suite).  main holds stdout until the command returns, whatever
its exit code, and drops it when the command raises: a refusal prints nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
from pathlib import Path

from . import __version__
from .orbit_engine import (
    INF,
    CacheMismatchError,
    OrdCache,
    classify_orbit,
    growth_constant_estimate,
    ord_crt,
    parse_polynomial,
    require_wandering,
)

# prime_lab, density_lab and verify (and with them numpy) are imported by the
# commands that use them, so that `ord`, `classify` and `--version` start fast.

_DENSITY_ORACLE_MAX = 2 * 10**4


def _cache_path(ns) -> Path | None:
    """The --cache file; a relative path resolves under $DYNGCD_CACHE_DIR
    when that is set."""
    if not ns.cache:
        return None
    path = Path(ns.cache)
    base = os.environ.get("DYNGCD_CACHE_DIR")
    return Path(base) / path if base and not path.is_absolute() else path


def _load_cache(ns, F) -> OrdCache:
    path = _cache_path(ns)
    if path is not None and path.exists():
        return OrdCache.load(path, F)
    return OrdCache(F)


def _save_cache(ns, cache: OrdCache) -> None:
    path = _cache_path(ns)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        cache.save(path)


def _fmt_rank(r) -> str:
    return "inf" if r == float("inf") else str(int(r))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(ns) -> int:
    F = parse_polynomial(ns.poly)
    oc = classify_orbit(F)
    if oc.wandering:
        print(f"{F}: wandering (escape radius {F.escape_radius})")
    else:
        chain = " -> ".join(str(v) for v in oc.prefix)
        print(
            f"{F}: preperiodic, preperiod {oc.preperiod}, period {oc.period}: {chain}"
        )
    return 0


def cmd_ord(ns) -> int:
    F = parse_polynomial(ns.poly)
    require_wandering(F)
    cache = _load_cache(ns, F)
    for n in ns.n:
        r = ord_crt(cache, n)
        le = INF if r == INF else math.lcm(n, int(r))
        print(f"n={n} ord={_fmt_rank(r)} ell={_fmt_rank(le)}")
    _save_cache(ns, cache)
    return 0


def cmd_scan(ns) -> int:
    from .prime_lab import scan_csv, scan_primes

    F = parse_polynomial(ns.poly)
    if ns.pmax < 2:
        raise ValueError("--pmax must be >= 2")
    cache = _load_cache(ns, F)  # a refused cache costs no scan
    scan = scan_primes(F, ns.pmin, ns.pmax)
    _save_cache(ns, cache)
    sys.stdout.write(scan_csv(scan))
    return 0


def cmd_density(ns) -> int:
    from .density_lab import GcdQuery, build_density_report

    F = parse_polynomial(ns.poly)
    q = GcdQuery(_load_cache(ns, F), ns.k)
    method = ns.method
    if method is None:
        method = "both" if ns.x <= _DENSITY_ORACLE_MAX else "sieve"
    report = build_density_report(q, ns.x, method=method, T=ns.T)
    _save_cache(ns, q.cache)
    if ns.format == "json":
        print(report.to_json())
    elif ns.format == "csv":
        sys.stdout.write(report.checkpoints_csv())
    else:
        print(f"poly {F}  k={report.k}  g={report.g_form}  x={report.x}  [{method}]")
        print(
            f"count_A {report.count_A}  count_B {report.count_B}"
            f"  floor_identity {report.floor_identity}"
        )
        for s in report.series:
            print(f"series_B T={s.T}  value {s.value:.6f}  last_block {s.last_block:.2e}")
        for s in report.series_A:
            print(f"series_A T={s.T}  value {s.value:.6f}  last_block {s.last_block:.2e}")
        print(
            f"nonempty_A {report.nonempty_A}  nonempty_B {report.nonempty_B}"
            f"  witness {report.witness}"
        )
        for cx, ca, cb in report.checkpoints:
            print(f"  x={cx}  A {ca} ({ca / cx:.4f})  B {cb} ({cb / cx:.4f})")
        for flag in report.flags:
            print(f"flag: {flag}")
    return 0


def cmd_series(ns) -> int:
    from .density_lab import GcdQuery, series_checkpoints

    F = parse_polynomial(ns.poly)
    if ns.T < 1:
        raise ValueError("T must be >= 1")
    q = GcdQuery(_load_cache(ns, F), ns.k)
    series_b, series_a = series_checkpoints(q, ns.T)
    _save_cache(ns, q.cache)
    print("T,series_B,last_block_B,series_A,last_block_A")
    for sb, sa in zip(series_b, series_a):
        print(
            f"{sb.T},{sb.value:.9f},{sb.last_block:.3e},{sa.value:.9f},{sa.last_block:.3e}"
        )
    return 0


def cmd_verify(ns) -> int:
    from .verify import DEFAULT_POLYS, run_suites

    polys = [parse_polynomial(p) for p in ns.poly] if ns.poly else list(DEFAULT_POLYS)
    for F in polys:  # refuse a preperiodic orbit before any suite runs
        require_wandering(F)
    failed = 0
    for F in polys:
        for res in run_suites(F, ns.bound):
            tag = "PASS" if res.ok else "FAIL"
            print(f"{tag} {res.name} [{res.poly}] {res.detail}")
            failed += 0 if res.ok else 1
    if failed:
        print(f"{failed} suite(s) failed", file=sys.stderr)
        return 4
    return 0


def cmd_coprime(ns) -> int:
    from .density_lab import GcdQuery, linear_coprime_report

    F = parse_polynomial(ns.poly)
    q = GcdQuery(_load_cache(ns, F), 1, linear=(ns.a, ns.b))
    report = linear_coprime_report(q, ns.x, ns.z or [10, 100, 1000])
    _save_cache(ns, q.cache)
    if ns.format == "json":
        print(report.to_json())
    else:
        print(
            f"poly {F}  g={q.g_str()}  x={report.x}"
            f"  coprime {report.count_coprime} ({report.density:.6f})"
        )
        for c in report.checkpoints:
            print(
                f"  z={c.z}  hit {c.hit_exact:.6f}  residual {c.residual:.6f}"
                f"  lower_bound {c.lower_bound:.6f}"
            )
    return 0


def cmd_diag(ns) -> int:
    from .prime_lab import low_rank_growth, scan_primes

    F = parse_polynomial(ns.poly)
    require_wandering(F)
    x = ns.x
    if x < 2:
        raise ValueError("--x must be >= 2")
    checkpoints = {min(max(c, 100), x) for c in (x // 100, x // 10, x)}
    rows, _ = low_rank_growth(F, ns.beta, checkpoints)
    scan = scan_primes(F, 2, x)
    pretty = int(scan.pretty.sum())
    print(f"# low-rank primes (beta={ns.beta})")
    for rx, cnt, _, _ in rows:
        print(f"x={rx}  count={cnt}")
    print("# pretty primes")
    print(f"pretty={pretty} of {len(scan)} primes  share={pretty / len(scan):.4f}")
    print("# growth constant")
    print(f"log a_n / d^n -> {growth_constant_estimate(F, 12):.9f}")
    print("# primes p <= x dividing a_p")
    print(f"anomalous (ord = p): {scan.p[scan.anomalous].tolist()}")
    print(f"F(0) divisors (ord = 1): {scan.p[scan.ord == 1].tolist()}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache", help="rank cache file (relative paths resolve under DYNGCD_CACHE_DIR)")

    ap = argparse.ArgumentParser(
        prog="dyngcd",
        description="orbit gcd structure: ranks of apparition, prime scans, densities",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="orbit type of 0")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ord", parents=[common], help="rank of apparition and joint rank")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, action="append", required=True)
    p.set_defaults(func=cmd_ord)

    p = sub.add_parser("scan", parents=[common], help="exact prime scan as CSV")
    p.add_argument("--poly", required=True)
    p.add_argument("--pmin", type=int, default=2)
    p.add_argument("--pmax", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("density", parents=[common], help="counts, identity, series, nonemptiness")
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--T", type=int, default=2000, help="series truncation depth")
    p.add_argument("--method", choices=["oracle", "sieve", "both"], default=None)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("series", parents=[common], help="density series truncations")
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--poly", action="append")
    p.add_argument("--bound", type=int, default=300)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coprime", parents=[common], help="gcd(a*n+b, a_n) = 1 density report")
    p.add_argument("--poly", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--z", type=int, action="append", help="small-prime cutoff, repeatable")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_coprime)

    p = sub.add_parser("diag", help="low-rank counts, pretty and anomalous primes")
    p.add_argument("--poly", required=True)
    p.add_argument("--x", type=int, default=10**4)
    p.add_argument("--beta", type=float, default=0.5)
    p.set_defaults(func=cmd_diag)

    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = ns.func(ns)
    except CacheMismatchError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:  # density_lab.SelfCheckError included
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # ParseError, PreperiodicOrbitError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return rc


if __name__ == "__main__":
    sys.exit(main())
