"""Orbits of 0 under an integer polynomial F and their divisibility structure.

The sequence studied everywhere in this package is

    a_0 = 0,   a_n = F(a_{n-1})

for F of degree >= 2 with positive leading coefficient.  When the orbit of 0
escapes to infinity (the "wandering" case) the sequence is a divisibility
sequence: n | m implies a_n | a_m.  The central quantity is the rank of
apparition

    ord(n) = least r >= 1 with n | a_r   (infinite when no such r exists)

together with ell(n) = lcm(n, ord(n)), the period of the indices r at which
n divides gcd(r, a_r).

Infinite ranks are represented by math.inf (exposed here as INF); the capped
search additionally uses None for "not determined within the cap".
"""

from __future__ import annotations

import math
import os
import re
from functools import lru_cache
from typing import NamedTuple

from .arith_core import MODULUS_MAX, factorize

INF = math.inf

# a_value refuses to materialize orbit values past this index; their size is
# doubly exponential in n and nothing in the package needs them.
_EXACT_INDEX_MAX = 64


class ParseError(ValueError):
    """Raised for text that does not describe an admissible polynomial."""


class PreperiodicOrbitError(ValueError):
    """Raised when an operation requires a wandering orbit but 0 is preperiodic."""

    def __init__(self, poly: "IntPolynomial", orbit_prefix: list[int]):
        self.poly = poly
        self.orbit_prefix = orbit_prefix
        chain = " -> ".join(str(v) for v in orbit_prefix)
        super().__init__(f"orbit of 0 under {poly} is preperiodic: {chain}")


class CacheMismatchError(RuntimeError):
    """Raised when a rank cache is used with a different polynomial than the
    one it was computed for, or holds entries that cannot be ranks."""


class _Frozen:
    """Base of the immutable __slots__ classes: __init__ sets each slot once
    through object.__setattr__, and nothing sets or deletes one after.  A
    copy or an unpickled instance is built by __init__ from the slots, so
    __init__ must take them positionally in __slots__ order."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class IntPolynomial(_Frozen):
    """Integer polynomial c_0 + c_1 x + ... + c_d x^d, degree d >= 2, c_d >= 1.

    coeffs are stored ascending, so coeffs[i] is the coefficient of x^i.
    Equal and hashed by coeffs, so that the lru caches key on it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if len(coeffs) < 3:
            raise ParseError("degree must be at least 2")
        if coeffs[-1] < 1:
            raise ParseError("leading coefficient must be positive")
        if any(not isinstance(c, int) for c in coeffs):
            raise ParseError("coefficients must be integers")
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is IntPolynomial else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def escape_radius(self) -> int:
        """R = 1 + sum |c_i| over i < d.  Any |z| > R has |F(z)| > |z|, so an
        orbit value beyond R never comes back."""
        return 1 + sum(abs(c) for c in self.coeffs[:-1])

    def eval_int(self, v: int) -> int:
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def eval_mod(self, v: int, m: int) -> int:
        acc = self.coeffs[-1] % m
        for c in reversed(self.coeffs[:-1]):
            acc = (acc * v + c) % m
        return acc

    def coeff_key(self) -> str:
        """Canonical ascending coefficient list, e.g. '1,0,1' for x^2+1."""
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?x(?:\^(\d+))?$|^(\d+)$")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse either an ascending coefficient list '1,0,1' or an expression
    like 'x^2+1', '2*x^3-x+5'.  Both forms produce the same polynomial."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial")
    if "," in s:
        try:
            coeffs = tuple(int(p.strip()) for p in s.split(","))
        except ValueError as e:
            raise ParseError(f"bad coefficient list {text!r}") from e
        return IntPolynomial(coeffs)
    # expression form: split into signed terms
    s = s.replace(" ", "").replace("X", "x")
    if s[0] not in "+-":
        s = "+" + s
    tokens = re.findall(r"[+-][^+-]+", s)
    if "".join(tokens) != s:
        raise ParseError(f"cannot parse {text!r}")
    degree_coeffs: dict[int, int] = {}
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        m = _TERM_RE.match(tok[1:])
        if not m:
            raise ParseError(f"cannot parse term {tok!r} in {text!r}")
        if m.group(3) is not None:
            exp, coeff = 0, int(m.group(3))
        else:
            coeff = int(m.group(1)) if m.group(1) else 1
            exp = int(m.group(2)) if m.group(2) else 1
        degree_coeffs[exp] = degree_coeffs.get(exp, 0) + sign * coeff
    deg = max(degree_coeffs)
    return IntPolynomial(tuple(degree_coeffs.get(i, 0) for i in range(deg + 1)))


# ---------------------------------------------------------------------------
# orbit classification
# ---------------------------------------------------------------------------


class OrbitClass(NamedTuple):
    """Orbit type of 0: wandering, or preperiodic with the least m and cycle
    length period >= 1 such that a_m = a_{m+period} over the integers."""

    wandering: bool
    preperiod: int | None = None
    period: int | None = None
    prefix: tuple[int, ...] = ()


@lru_cache(maxsize=None)
def classify_orbit(F: IntPolynomial) -> OrbitClass:
    """Decide wandering vs preperiodic by exact iteration.

    Values that stay within [-R, R] must repeat within 2R+2 steps; the first
    value beyond R certifies escape.
    """
    R = F.escape_radius
    seen: dict[int, int] = {}
    orbit = []
    v = 0
    for i in range(2 * R + 3):
        if abs(v) > R:
            return OrbitClass(True, prefix=tuple(orbit))
        if v in seen:
            return OrbitClass(
                False, preperiod=seen[v], period=i - seen[v], prefix=tuple(orbit + [v])
            )
        seen[v] = i
        orbit.append(v)
        v = F.eval_int(v)
    raise AssertionError("orbit classification did not terminate")


def require_wandering(F: IntPolynomial) -> None:
    cls = classify_orbit(F)
    if not cls.wandering:
        raise PreperiodicOrbitError(F, list(cls.prefix))


# ---------------------------------------------------------------------------
# orbit walks.  Every residue kernel reads its answer off one walk of the
# orbit of 0 mod m that stops at its first return: the first step r with
# a_r = 0 or a_r = a_pos, where Brent's tortoise (Brent, BIT 20 (1980)
# 176-184) waits at a_pos, pos the last power of two passed (0 at first).
# - A zero is a return to a_0: the orbit is a pure cycle of period r = ord(m).
# - A meeting proves a_pos on the cycle with exact period r - pos < r.  On a
#   pure cycle 0 comes back at the period, before any meeting, so m has no rank.
# So period == r exactly when 0 is on the cycle, and a_n = a_(r + (n - r) mod
# period) for n >= r.  The return comes in fewer than 3 (tail + period) steps,
# about sqrt(m) for a typical map.  A walk reports (r, period, a_r), or
# (limit, 0, a_limit) when it reaches its step limit first.
# ---------------------------------------------------------------------------


def _check_modulus(m: int) -> None:
    if m < 1:
        raise ValueError("modulus must be positive")
    if m > MODULUS_MAX:
        raise ValueError(f"modulus {m} exceeds the 2^62 bound")


def a_value(F: IntPolynomial, n: int) -> int:
    """Exact a_n.  Only sensible for small n; the value has about d^n digits."""
    if n < 0 or n > _EXACT_INDEX_MAX:
        raise ValueError(f"exact orbit values limited to 0 <= n <= {_EXACT_INDEX_MAX}")
    v = 0
    for _ in range(n):
        v = F.eval_int(v)
    return v


def _first_return(
    F: IntPolynomial, m: int, limit: int,
    r: int = 0, v: int = 0, tortoise: int = 0, pos: int = 0, s: int = 1,
) -> tuple[int, int, int]:
    """The walk mod m in Python ints, for any modulus up to 2^62.  It resumes
    after step r from a_r = v and the tortoise state (tortoise, pos, s); the
    defaults start at a_0."""
    for r in range(r + 1, limit + 1):
        v = F.eval_mod(v, m)
        if v == 0:
            return r, r, v
        if v == tortoise:
            return r, r - pos, v
        if r == s:
            tortoise, pos, s = v, s, 2 * s
    return limit, 0, v


def a_mod(F: IntPolynomial, n: int, m: int) -> int:
    """a_n mod m in fewer than n steps: the first return, then (n - r) mod
    period more."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    _check_modulus(m)
    r, period, v = _first_return(F, m, n)
    if period:
        for _ in range((n - r) % period):
            v = F.eval_mod(v, m)
    return v


def ord_direct_capped(F: IntPolynomial, n: int, cap: int) -> int | float | None:
    """First r <= cap with a_r = 0 mod n; INF when cap >= n and there is no
    such r at all; None when cap < n and no r <= cap qualifies."""
    _check_modulus(n)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    r, period, _ = _first_return(F, n, cap)
    if period == r:
        return r
    # a return off 0, or n orbit steps without a zero, proves the rank
    # infinite; the contract reports that only for cap >= n
    return INF if cap >= n else None


def ord_direct(F: IntPolynomial, n: int) -> int | float:
    """Rank of apparition of n: least r >= 1 with n | a_r, else INF."""
    return ord_direct_capped(F, n, n)  # cap = n always resolves


# ---------------------------------------------------------------------------
# vectorized orbit kernels (numpy int64; moduli must stay below 2^31 so that
# a product of two residues fits int64).  They import numpy when called, so
# that the scalar commands never load it.
# ---------------------------------------------------------------------------

_VEC_MODULUS_MAX = 2**31
_INT64_LIMIT = 2**63
# _first_return_vec steps in lockstep only while more lanes than this are
# live, then finishes each lane in _first_return.  A numpy round costs 10-20 us
# whatever its lane count and a scalar step about 1 us, so the break-even is
# near 10 lanes; the last lanes are mostly prime powers such as 2^13, whose
# orbits run thousands of steps past the others.
_TAIL_LANES = 8


def check_int64_horner(coeffs: tuple[int, ...], m_max: int) -> None:
    """Refuse coefficients for which a Horner step acc * v + c on residues
    acc, v < m_max could leave int64 (numpy would wrap it silently)."""
    if (m_max - 1) ** 2 + max(abs(c) for c in coeffs) >= _INT64_LIMIT:
        raise ValueError(
            f"coefficients too large for the int64 kernel at moduli up to {m_max}"
        )


def _horner_vec(coeffs: tuple[int, ...], v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """F(v) mod m lane by lane; the caller has passed check_int64_horner.
    A monic F starts at v + c_(d-1), one multiply and one reduction less."""
    if coeffs[-1] == 1:
        acc, rest = v + coeffs[-2], coeffs[-3::-1]
    else:
        import numpy as np

        acc, rest = np.full(v.shape, coeffs[-1], dtype=np.int64), coeffs[-2::-1]
    acc %= m
    for c in rest:
        acc *= v
        acc += c
        acc %= m
    return acc


def _first_return_vec(
    coeffs: tuple[int, ...], mods: np.ndarray, limits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The walk for every lane of int64 arrays that passed check_int64_horner,
    with limits >= 1, as arrays (r, period, a_r mod m).  The lanes step in
    lockstep, so they share one tortoise schedule; a lane retires at its
    return or its limit, and limits are only tested from the step of the
    smallest live one.  The last _TAIL_LANES lanes finish in _first_return
    from the state the lockstep walk left them in."""
    import numpy as np

    steps, period, ends = np.zeros((3, mods.size), dtype=np.int64)
    idx = np.arange(mods.size)
    v = tortoise = np.zeros(mods.size, dtype=np.int64)
    r, pos, s = 0, 0, 1
    nxt = int(limits.min()) if limits.size else 0
    while mods.size > _TAIL_LANES:
        r += 1
        v = _horner_vec(coeffs, v, mods)
        back = (v == 0) | (v == tortoise)
        done = back | (limits <= r) if r >= nxt else back
        if done.any():
            i = idx[done]
            steps[i], ends[i], period[i] = r, v[done], back[done] * (r - pos)
            keep = ~done
            mods, limits, idx, v = mods[keep], limits[keep], idx[keep], v[keep]
            tortoise = tortoise[keep]
            nxt = int(limits.min()) if limits.size else 0
        if r == s:
            tortoise, pos, s = v, s, 2 * s
    F = IntPolynomial(coeffs)
    tail = zip(idx.tolist(), mods.tolist(), limits.tolist(), v.tolist(), tortoise.tolist())
    for i, m, limit, vi, ti in tail:
        steps[i], period[i], ends[i] = _first_return(F, m, limit, r, vi, ti, pos, s)
    # a lane that ended on 0 returned to a_0, so its period is r, not r - pos
    zero = ends == 0
    period[zero] = steps[zero]
    return steps, period, ends


def first_zero_scan(
    F: IntPolynomial, mods: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """For each modulus mods[i], the least r <= caps[i] with a_r = 0 mod
    mods[i], or 0 when there is none: one ord_direct_capped per lane, run in
    lockstep."""
    import numpy as np

    mods = np.asarray(mods, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.int64)
    if mods.size and int(mods.max()) >= _VEC_MODULUS_MAX:
        raise ValueError("vector kernel limited to moduli below 2^31")
    if mods.size and int(mods.min()) < 2:
        raise ValueError("vector kernel needs moduli >= 2")
    if mods.size:
        check_int64_horner(F.coeffs, int(mods.max()))
    steps, period, _ = _first_return_vec(F.coeffs, mods, caps)
    return np.where(period == steps, steps, 0)


def _a_mod_vec(
    coeffs: tuple[int, ...], mods: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """a_targets[i] mod mods[i] for every lane, from int64 arrays with
    targets >= 1 that passed check_int64_horner: one a_mod per lane.  After
    the lockstep walk the lanes are sorted by the steps they have left, so
    the ones still stepping are always a suffix; they step in lockstep while
    more than _TAIL_LANES of them are live, and the rest in Python ints."""
    import numpy as np

    steps, period, v = _first_return_vec(coeffs, mods, targets)
    left = (targets - steps) % np.maximum(period, 1)
    order = np.argsort(left)
    v, mods, left = v[order], mods[order], left[order]
    # step j < lock advances the lanes with more than j steps left, more
    # than _TAIL_LANES of them; the last _TAIL_LANES lanes then finish alone
    lock = int(left[-_TAIL_LANES - 1]) if left.size > _TAIL_LANES else 0
    for k in np.searchsorted(left, np.arange(lock), side="right").tolist():
        v[k:] = _horner_vec(coeffs, v[k:], mods[k:])
    F = IntPolynomial(coeffs)
    for i in range(max(left.size - _TAIL_LANES, 0), left.size):
        vi, m = int(v[i]), int(mods[i])
        for _ in range(int(left[i]) - lock):
            vi = F.eval_mod(vi, m)
        v[i] = vi
    out = np.empty_like(v)
    out[order] = v
    return out


@lru_cache(maxsize=8)
def ord_table(F: IntPolynomial, limit: int) -> np.ndarray:
    """Ranks of apparition for every modulus up to limit, as an int64 array t
    with t[n] = ord(n) and 0 meaning infinite.  t[1] = 1.  Read-only."""
    import numpy as np

    if limit < 1:
        raise ValueError("limit must be >= 1")
    t = np.zeros(limit + 1, dtype=np.int64)
    t[1] = 1
    mods = np.arange(2, limit + 1, dtype=np.int64)
    t[2:] = first_zero_scan(F, mods, mods)
    t.setflags(write=False)
    return t


# ---------------------------------------------------------------------------
# rank cache
# ---------------------------------------------------------------------------

_CACHE_VERSION = 1


class OrdCache:
    """The rank context of one polynomial F: a map modulus -> rank of
    apparition, kept on disk between runs.

    Stored entries are exact: a finite value r means a_r is the first orbit
    value divisible by the key, and INF means no orbit value ever is.  The
    CSV on disk encodes INF as 0 and carries F's coefficients as its
    fingerprint.
    """

    __slots__ = ("F", "ranks")

    def __init__(self, F: IntPolynomial, ranks: dict[int, int | float] | None = None):
        self.F = F
        self.ranks = {} if ranks is None else ranks

    def put(self, n: int, rank: int | float) -> None:
        old = self.ranks.get(n)
        if old is not None and old != rank:
            raise CacheMismatchError(f"conflicting ranks for {n}: {old} vs {rank}")
        self.ranks[n] = rank

    def rank_of(self, F: IntPolynomial, n: int) -> int | float:
        """Cached ord_direct."""
        # F stays for perfbench/tracer.py, which wraps rank_of(self, F, n)
        if F != self.F:
            raise CacheMismatchError(f"cache built for {self.F}, used with {F}")
        r = self.ranks.get(n)
        if r is None:
            r = ord_direct(F, n)
            self.ranks[n] = r
        return r

    def save(self, path) -> None:
        """Write the CSV to a temporary file beside path, then move it over
        path in one os.replace, so no reader ever sees a half-written cache."""
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(f"# poly={self.F.coeff_key()}\n")
                fh.write(f"# version={_CACHE_VERSION}\n")
                fh.write("p,ord\n")
                for n in sorted(self.ranks):
                    r = self.ranks[n]
                    fh.write(f"{n},{0 if r == INF else int(r)}\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path, F: IntPolynomial) -> "OrdCache":
        """Read the cache of F written by save.  A file for another
        polynomial, or one that is not UTF-8 or whose entries cannot be ranks
        (a key below 1 or listed twice, or a rank outside 0 = INF or
        1 <= r <= n), is refused with CacheMismatchError."""
        meta: dict[str, str] = {}
        ranks: dict[int, int | float] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError:
            raise CacheMismatchError(f"{path}: not a UTF-8 text file") from None
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = val.strip()
                continue
            if line == "p,ord":
                continue
            ps, _, rs = line.partition(",")
            try:
                n, r = int(ps), int(rs)
            except ValueError:
                raise CacheMismatchError(f"{path}: malformed entry {line!r}") from None
            if n < 1 or not (r == 0 or 1 <= r <= n):
                raise CacheMismatchError(f"{path}: impossible rank {r} for {n}")
            if n in ranks:
                raise CacheMismatchError(f"{path}: modulus {n} listed twice")
            ranks[n] = INF if r == 0 else r
        if "poly" not in meta:
            raise CacheMismatchError(f"{path}: missing polynomial fingerprint")
        if meta.get("version") != str(_CACHE_VERSION):
            raise CacheMismatchError(f"{path}: unsupported cache version")
        if meta["poly"] != F.coeff_key():
            raise CacheMismatchError(
                f"{path}: cache is for poly {meta['poly']!r}, expected {F.coeff_key()!r}"
            )
        return cls(F, ranks)


# ---------------------------------------------------------------------------
# composite ranks via CRT, and the joint rank ell
# ---------------------------------------------------------------------------


def ord_crt(cache: OrdCache, n: int) -> int | float:
    """Rank of apparition of n for cache.F, composed from its prime powers:
    ord(n) = lcm of ord(p^e) over p^e || n, infinite as soon as one factor is.
    p is ranked before p^e: ord(p) | ord(p^e), so an infinite ord(p) settles
    the answer without walking the much longer orbit mod p^e.  A finite
    ord(n) is exact and at most n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    F = cache.F
    acc = 1
    for p, e in factorize(n).factors:
        if e > 1 and cache.rank_of(F, p) == INF:
            return INF
        r = cache.rank_of(F, p**e)
        if r == INF:
            return INF
        acc = math.lcm(acc, r)
    return acc


def ell(cache: OrdCache, n: int) -> int | float:
    """ell(n) = lcm(n, ord(n)) for cache.F: the exact period of indices r
    with n | gcd(r, a_r).  It is a Python int however large, and infinite
    exactly when n is not pretty."""
    r = ord_crt(cache, n)
    return INF if r == INF else math.lcm(n, r)


class Valuation(NamedTuple):
    """A p-adic valuation capped at e_max.  saturated means the true value is
    >= e_max and only the cap is reported."""

    value: int
    saturated: bool


def nu_p_of_a(F: IntPolynomial, n: int, p: int, e_max: int) -> Valuation:
    """nu_p(a_n) truncated at e_max, via a single orbit pass mod p^e_max."""
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    q = p**e_max
    _check_modulus(q)
    r = a_mod(F, n, q)
    if r == 0:
        return Valuation(e_max, True)
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return Valuation(v, False)


# ---------------------------------------------------------------------------
# growth constant
# ---------------------------------------------------------------------------


def growth_constant_estimate(F: IntPolynomial, n_iters: int) -> float:
    """log|a_n| / d^n at n = n_iters; the sequence converges to the growth
    constant of the orbit (positive for wandering F).

    Exact integers are used until |a_n| > 2R; after that the iteration runs in
    log space with the dominant-term correction log1p((F(a)-c_d a^d)/(c_d a^d)),
    which is exact to double precision because the correction shrinks like
    |a|^(-1).
    """
    if n_iters < 5:
        raise ValueError("n_iters must be at least 5")
    require_wandering(F)
    d = F.degree
    cd = F.coeffs[-1]
    R = F.escape_radius
    v = 0
    n = 0
    while n < n_iters and abs(v) <= 2 * R:
        v = F.eval_int(v)
        n += 1
    if n == n_iters:
        return math.log(abs(v)) / d**n
    L = math.log(abs(v))
    s = 1 if v > 0 else -1
    logcd = math.log(cd)
    while n < n_iters:
        # a = s*e^L, so c_i a^(i-d) / c_d = (c_i/c_d) * s^(i-d) * e^((i-d)L)
        delta = 0.0
        for i, c in enumerate(F.coeffs[:-1]):
            if c == 0:
                continue
            sgn = 1 if (d - i) % 2 == 0 else s
            delta += (c / cd) * sgn * math.exp((i - d) * L)
        L = logcd + d * L + math.log1p(delta)
        s = s if d % 2 == 1 else 1
        n += 1
    return L / d**n
