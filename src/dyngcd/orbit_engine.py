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
from typing import Iterator, NamedTuple

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
        """F(v) mod m: Horner's rule on Python ints, reduced once."""
        return self.eval_int(v) % m

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
    defaults start at a_0.  Each step is Horner's rule on the coefficients
    reduced mod m, with one reduction at its end."""
    lead, *rest = (c % m for c in reversed(F.coeffs))
    for r in range(r + 1, limit + 1):
        acc = lead
        for c in rest:
            acc = acc * v + c
        v = acc % m
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
# live, then finishes each lane in _first_return.  On a 2-vCPU Xeon a numpy
# round over a few lanes costs 6-8 us and a scalar step 0.2-0.3 us, about 30
# to a round.  But the last lanes are mostly prime powers such as 2^13, whose
# orbits run thousands of steps past the others, so few rounds have between 8
# and 30 lanes: ord_table to 10^4, the oracle at 10^4, an exact scan to 2*10^5
# and the pool at 10^6 took the same time within noise at 8, 16, 24 and 32.
_TAIL_LANES = 8
# _first_return_vec keeps at most this many lanes live and the rest waiting,
# so that its working set does not grow with the number of lanes: the oracle
# at 10^5 traced a peak of 2.3 MiB, against 7.9 MiB with every lane live from
# the first round.  prime_lab cuts its blocks and its screen's slices to the
# same width, so an exact scan's primes refill the pool batch after batch in
# one walk, and each of ell_pool's blocks is one batch.
_LANE_POOL = 4096


def check_int64_horner(coeffs: tuple[int, ...], m_max: int) -> None:
    """The one guard of the int64 lanes, which each lane entry point calls
    with its largest modulus before its first allocation: refuse m_max >=
    2^31, and coefficients for which a Horner step acc * v + c on residues
    acc, v < m_max could leave int64 (numpy would wrap it silently)."""
    if m_max >= _VEC_MODULUS_MAX:
        raise ValueError(f"the int64 kernels take moduli below 2^31, not moduli up to {m_max}")
    if (m_max - 1) ** 2 + max(abs(c) for c in coeffs) >= _INT64_LIMIT:
        raise ValueError(
            f"coefficients too large for the int64 kernel at moduli up to {m_max}"
        )


@lru_cache(maxsize=None)
def _horner_steps(coeffs: tuple[int, ...]) -> tuple[tuple[bool, int], ...]:
    """(reduce, c) for each Horner step acc = acc * v + c of F past its top
    two coefficients: reduce says whether acc must be reduced mod m before
    the multiply, because with residues below 2^31 the product could leave
    int64 otherwise.  For x^2 + x + 1 it never must, so a step of F takes
    one reduction where a reduction at every multiply takes two."""
    top = _VEC_MODULUS_MAX - 1
    lead, c, *rest = coeffs[::-1]
    size = (top if lead == 1 else top * top) + abs(c)  # a bound on |acc|
    steps = []
    for c in rest:
        reduce = size * top + abs(c) >= _INT64_LIMIT
        size = (top if reduce else size) * top + abs(c)
        steps.append((reduce, c))
    return tuple(steps)


def _horner_vec(coeffs: tuple[int, ...], v: np.ndarray, m: np.ndarray, out=None) -> np.ndarray:
    """F(v) mod m lane by lane, into out if given (which may be v itself);
    the caller has passed check_int64_horner.  A monic F starts from v
    itself, which needs no reduction, and a zero coefficient adds nothing;
    otherwise the steps reduce as _horner_steps says."""
    import numpy as np

    lead, c = coeffs[-1], coeffs[-2]
    if lead == 1:
        acc = v + c if c else v  # acc is v until the first multiply copies it
    else:
        acc = np.full(v.shape, lead, dtype=np.int64)
        acc %= m
        acc *= v
        acc += c
    for reduce, c in _horner_steps(coeffs):
        if acc is v:
            acc = v * v  # check_int64_horner bounds v * v + c
        else:
            if reduce:
                acc %= m
            acc *= v
        if c:
            acc += c
    return np.remainder(acc, m, out=out)


def _first_return_vec(
    coeffs: tuple[int, ...], mods: np.ndarray, limits: np.ndarray, countdown: bool = False
) -> Iterator[tuple[np.ndarray, ...]]:
    """The walk for every lane of int64 arrays that passed check_int64_horner,
    with limits >= 1.  Yields (i, r, period, v) for the lanes i that retire,
    a round's lanes at a time: the (r, period, a_r mod m) of _first_return.
    With countdown it yields (i, v) with v = a_limit mod m instead: a lane
    that returns before its limit steps on (limit - r) mod period more
    rounds, and retires then.

    At most _LANE_POOL lanes are live, in the columns of one (7, pool) array.
    They come in from the last index back, and whenever half the pool has
    retired the next batch fills it; a retired column takes the last live
    one.  So the longest lanes start first when the limits ascend with the
    index, as the oracle's, ord_table's and the prime scans' do (ell_pool's
    blocks fit in one batch).  Each batch keeps its own tortoise schedule
    from the round it came in, so each lane takes the steps it takes alone.
    Limits are only tested from the round of the smallest live end.  Once
    every lane is in and at most _TAIL_LANES are live, they finish in
    _first_return."""
    import numpy as np

    waiting = limits.size
    width = min(waiting, _LANE_POOL)
    lanes = np.empty((7, width), dtype=np.int64)
    # tpos and start are the rounds in which the lane's tortoise last moved
    # and its batch came in
    mod, idx, v, end, tpos, tortoise, start = lanes
    live = R = 0
    nxt = move = _INT64_LIMIT  # the next round that tests limits, moves a tortoise
    moves = {}  # the start round of each batch -> its next tortoise move
    while True:
        if waiting and 2 * live <= width:
            k = min(width - live, waiting)
            waiting -= k
            new, lane = slice(waiting, waiting + k), slice(live, live + k)
            mod[lane] = mods[new]
            np.add(limits[new], R, out=end[lane])
            idx[lane] = np.arange(waiting, waiting + k)
            v[lane] = tortoise[lane] = 0
            tpos[lane] = start[lane] = R
            live += k
            nxt = min(nxt, int(end[lane].min()))
            moves[R] = move = R + 1
        if live <= _TAIL_LANES and not waiting:
            break
        R += 1
        vl = v[:live]
        _horner_vec(coeffs, vl, mod[:live], out=vl)
        back = vl == 0
        back |= vl == tortoise[:live]
        j = None
        if not countdown:
            done = back | (end[:live] <= R) if R >= nxt else back
            if np.count_nonzero(done):
                j = done.nonzero()[0]
                vj = v[j]
                r = R - start[j]
                yield idx[j], r, np.where(vj == 0, r, back[j] * (R - tpos[j])), vj
        else:
            # a returned lane counts down (limit - r) mod period rounds to its
            # end.  0 does not come back before it: on a pure cycle 0 recurs
            # a period after r, and otherwise 0 is not on the cycle.  A pure
            # cycle can meet its tortoise again, at the exact period, and so
            # gets the same end again
            if np.count_nonzero(back):
                c = back.nonzero()[0]
                left = R - np.where(v[c] == 0, start[c], tpos[c])  # the period
                np.remainder(end[c] - R, left, out=left)
                left += R
                end[c] = left
                nxt = min(nxt, int(left.min()))
            # nxt is exact here, so some lane ends in round nxt
            if R >= nxt:
                done = end[:live] <= R
                j = done.nonzero()[0]
                yield idx[j], v[j]
        if j is not None:
            live -= j.size
            # the live lanes past the new end fill the holes below it
            movers = (~done[live:]).nonzero()[0]
            if movers.size:
                lanes[:, j[: movers.size]] = lanes[:, live + movers]
        if R >= nxt:
            nxt = int(end[:live].min()) if live else _INT64_LIMIT
        if R == move:
            for s0, t in list(moves.items()):
                if t == R:
                    on = start[:live] == s0
                    if np.count_nonzero(on):
                        np.copyto(tortoise[:live], v[:live], where=on)
                        tpos[:live][on] = R
                        moves[s0] = 2 * R - s0
                    else:
                        del moves[s0]
            move = min(moves.values(), default=_INT64_LIMIT)
    F = IntPolynomial(coeffs)
    tail = [], [], [], []
    for m, i, vi, e, pi, ti, s0 in lanes[:, :live].T.tolist():
        pos = pi - s0
        r, period, vi = _first_return(F, m, e - s0, R - s0, vi, ti, pos, 2 * pos or 1)
        left = (e - s0 - r) % period if countdown and period else 0
        for _ in range(left):
            vi = F.eval_mod(vi, m)
        for col, x in zip(tail, (i, r, period, vi)):
            col.append(x)
    if live:
        i, r, period, vi = (np.array(col, dtype=np.int64) for col in tail)
        yield (i, vi) if countdown else (i, r, period, vi)


def first_zero_scan(
    F: IntPolynomial, mods: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """For each modulus mods[i], the least r <= caps[i] with a_r = 0 mod
    mods[i], or 0 when there is none: one ord_direct_capped per lane, run in
    lockstep."""
    import numpy as np

    mods = np.asarray(mods, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.int64)
    if mods.size:
        check_int64_horner(F.coeffs, int(mods.max()))
        if int(mods.min()) < 2:
            raise ValueError("vector kernel needs moduli >= 2")
    found = np.zeros(mods.size, dtype=np.int64)
    for i, r, period, _ in _first_return_vec(F.coeffs, mods, caps):
        found[i] = np.where(period == r, r, 0)
    return found


def _a_mod_vec(
    coeffs: tuple[int, ...], mods: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """a_targets[i] mod mods[i] for every lane, from int64 arrays with
    targets >= 1 that passed check_int64_horner: one a_mod per lane, counted
    down in the walk's own rounds."""
    import numpy as np

    out = np.empty(mods.size, dtype=np.int64)
    for i, v in _first_return_vec(coeffs, mods, targets, countdown=True):
        out[i] = v
    return out


@lru_cache(maxsize=8)
def ord_table(F: IntPolynomial, limit: int) -> np.ndarray:
    """Ranks of apparition for every modulus up to limit, as an int64 array t
    with t[n] = ord(n) and 0 meaning infinite.  t[1] = 1.  Read-only.  limit
    passes check_int64_horner before the table is allocated."""
    import numpy as np

    if limit < 1:
        raise ValueError("limit must be >= 1")
    check_int64_horner(F.coeffs, limit)
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

    rank_of is the one writer of ranks.  An entry it walked is exact: a
    finite value r means a_r is the first orbit value divisible by the key,
    and INF means no orbit value ever is.  An entry handed to __init__ (in
    practice one that load read from disk) is a claim until it is walked:
    the first rank_of read of it walks ord_direct and refuses a claim the
    walk contradicts.  The CSV on disk encodes INF as 0 and carries F's
    coefficients as its fingerprint.
    """

    __slots__ = ("F", "ranks", "unchecked")

    def __init__(self, F: IntPolynomial, ranks: dict[int, int | float] | None = None):
        self.F = F
        self.ranks = {} if ranks is None else ranks
        self.unchecked = set(self.ranks)

    def rank_of(self, F: IntPolynomial, n: int) -> int | float:
        """Cached ord_direct; CacheMismatchError when the walk of a claimed
        rank disagrees with it."""
        # F stays for perfbench/tracer.py, which wraps rank_of(self, F, n)
        if F != self.F:
            raise CacheMismatchError(f"cache built for {self.F}, used with {F}")
        r = self.ranks.get(n)
        if r is None or n in self.unchecked:
            walked = ord_direct(F, n)
            if r is not None and r != walked:
                raise CacheMismatchError(
                    f"cached rank {r} for {n}, but its orbit walk gives {walked}"
                )
            self.unchecked.discard(n)
            self.ranks[n] = r = walked
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
        """Read the cache of F in the layout save writes: "# poly=...",
        "# version=1", "p,ord", then one "n,rank" row a line.  Any other
        layout, a file for another polynomial or not UTF-8, or a row that
        cannot be a rank (a key below 1 or listed twice, or a rank outside
        0 = INF or 1 <= r <= n) is refused with CacheMismatchError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError:
            raise CacheMismatchError(f"{path}: not a UTF-8 text file") from None
        poly, *head = lines[:3] or [""]
        if not poly.startswith("# poly=") or head != [f"# version={_CACHE_VERSION}", "p,ord"]:
            raise CacheMismatchError(f"{path}: not a version {_CACHE_VERSION} rank cache")
        poly = poly[len("# poly=") :]
        if poly != F.coeff_key():
            raise CacheMismatchError(
                f"{path}: cache is for poly {poly!r}, expected {F.coeff_key()!r}"
            )
        ranks: dict[int, int | float] = {}
        for line in lines[3:]:
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

    a_j stays exact while it has at most R.bit_length() + 1100 bits, R the
    escape radius.  Past that F(a) = c_d a^d (1 + delta) with |delta| < R/|a|
    < 2^-1099, so log|a_(i+1)| = log c_d + d log|a_i| to far below double
    precision, and log|a_n| / d^n = log|a_j| / d^j + log c_d (d^-j - d^-n) / (d - 1).
    """
    if n_iters < 5:
        raise ValueError("n_iters must be at least 5")
    require_wandering(F)
    d = F.degree
    max_bits = F.escape_radius.bit_length() + 1100
    v, j = 0, 0
    while j < n_iters and abs(v).bit_length() <= max_bits:
        v = F.eval_int(v)
        j += 1
    tail = math.log(F.coeffs[-1]) * (d**-j - d**-n_iters) / (d - 1)
    return math.log(abs(v)) / d**j + tail
