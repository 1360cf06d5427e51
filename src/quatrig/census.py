"""Exact enumeration engines: the empirical counting functions on the left
side of every counting theorem.  The tests hold the Dirichlet-coefficient
oracle that reproduces them through an entirely independent route (exact
multiplication of Euler factors).

Quaternion algebras have |disc| = q^2 for the squarefree product q of their
finite ramified primes, so the quaternion division and subfield censuses
count squarefree q <= y = sqrt(x) with no prime factor split in a field:
prime sums over the floor set {y // k} (_prime_sum_counts), in O(y^(3/4))
time and O(sqrt(y)) memory.  One listing (quaternion_algebras_by_disc)
yields the same q with their primes for the callers that need the algebras
themselves.  The other censuses (central simple algebras, division algebras
of degree n >= 3) come from one bounded product-of-primes enumerator
(arith.squarefree_products) over ascending primes; each folds its residue
distribution of local invariants along the way and sums per-node weights
into threshold slots, so counts never depend on enumeration order.  The
embed-quads census (fund-disc is that of the matrix algebra) counts
squarefree numbers in residue classes in O(sqrt(x)) steps, over the odd
squarefree d <= sqrt(x) that the same enumerator lists.  The readers
that need the fields themselves walk the fundamental discriminants in
blocks, so no command builds an array as long as its limit: one numpy
stream in |delta| order (_fundamental_blocks), and, for the real fields
that embed in an indefinite algebra, flag bytes ANDed with residue
tables (_real_fields).  Splitting data comes from arith.kronecker_vec,
Euler's criterion or those tables, least primes from prefixes of the
primes grown tenfold.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, compress
from math import gcd, isqrt, lcm, log, prod

from . import arith
from .arith import (
    divisors,
    factorize,
    iroot,
    kronecker_symbol,
    kronecker_vec,
    mobius,
    np,
    prime_list,
    primes_upto,
    product_discriminant,
    squarefree_counts,
    squarefree_products,
)
from .brauer import QuaternionAlgebraQ
from .fields import PlaceQ, QuadraticField, independent_mod_squares


class InternalInconsistency(RuntimeError):
    """Two independent computations of the same census disagree."""


class DependentDiscriminants(ValueError):
    """The given discriminants are multiplicatively dependent mod squares."""


@dataclass(frozen=True)
class CountTable:
    """Census results: exact counts at an ascending list of thresholds."""

    thresholds: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if list(self.thresholds) != sorted(self.thresholds):
            raise ValueError("thresholds must be ascending")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise InternalInconsistency("counts must be nondecreasing in x")

    def rows(self):
        return list(zip(self.thresholds, self.counts))


def _ascending(thresholds) -> list[int]:
    """Census thresholds, sorted; every one must be >= 1."""
    thresholds = sorted(int(x) for x in thresholds)
    if not thresholds or thresholds[0] < 1:
        raise ValueError("x must be >= 1")
    return thresholds


def _counts_at_thresholds(weighted_discs, thresholds) -> list[int]:
    """Total weight of the (disc, weight) pairs with disc <= x, for each
    ascending threshold x; no disc may exceed the last threshold."""
    slots = [0] * len(thresholds)
    for disc, w in weighted_discs:
        slots[bisect_left(thresholds, disc)] += w
    return list(accumulate(slots))


# -- central simple algebra enumeration ------------------------------------

def _csa_nodes(m: int, n: int, bound: int):
    """(disc, (dist, lcm)) for every choice of finite local invariants of a
    degree-n algebra over Q with denominators dividing m and |disc| <= bound.

    Each ramified prime p picks a denominator d | m (d > 1), contributing
    p^(n^2 - n^2/d) to the discriminant, and a numerator coprime to d; a d
    whose 2^(n^2 - n^2/d) already exceeds the bound is never offered.
    dist[r] counts the numerator choices whose invariant sum is r/m mod 1,
    tracked exactly and sparsely; lcm is the lcm of the chosen denominators.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if n % m != 0:
        raise ValueError("m must divide n")
    bits = max(bound, 0).bit_length()  # 2^w > bound once w >= bits
    options = [(w, (d, [a * (m // d) for a in range(1, d) if gcd(a, d) == 1]))
               for d in divisors(m)[1:] if (w := n * n - n * n // d) < bits]

    def fold(state, p, option):
        dist, lcm_f = state
        d, residues = option
        ndist = {}
        for r, cnt in dist.items():
            for s in residues:
                key = (r + s) % m
                ndist[key] = ndist.get(key, 0) + cnt
        return ndist, lcm(lcm_f, d)

    # m = 1, or a bound below 2^w for every d, has no options: the matrix algebra alone
    max_p = iroot(max(bound, 0), options[0][0]) if options else 0
    return squarefree_products(prime_list(max_p), bound, ({0: 1}, 1),
                               fold, lambda p: [(p ** w, opt) for w, opt in options])


def _completions(node, m: int, exact: int | None = None) -> int:
    """Ways to complete the finite local data (dist, lcm) of a node by the
    real place (invariant 0, or 1/2 when m is even) to an integral invariant
    sum; with `exact`, only completions of division degree exactly `exact`."""
    dist, lcm_f = node
    ways = dist.get(0, 0) if exact in (None, lcm_f) else 0
    if m % 2 == 0 and exact in (None, lcm(lcm_f, 2)):
        ways += dist.get(m // 2, 0)
    return ways


def census_csa(m: int, n: int, thresholds) -> CountTable:
    """N_{m,n}(x): central simple algebras of dimension n^2 whose division
    degree divides m, counted by exhaustive generation of Hasse data."""
    thresholds = _ascending(thresholds)
    nodes = _csa_nodes(m, n, thresholds[-1])
    counts = _counts_at_thresholds(((disc, _completions(node, m)) for disc, node in nodes),
                                   thresholds)
    return CountTable(tuple(thresholds), tuple(counts))


def count_csa(m: int, n: int, x: int) -> int:
    return census_csa(m, n, [x]).counts[0]


def census_division(n: int, thresholds) -> CountTable:
    """Division algebras of dimension n^2, counted two independent ways.

    n = 2: the prime-sum count of squarefree q <= sqrt(x), less q = 1 (the
    real place fixes the parity, so each q > 1 is one division algebra),
    checked against the sum over d <= x^(1/4) of mu(d) floor(sqrt(x)/d^2),
    with mu(d) by trial division.  n >= 3: a direct count of the Hasse data
    of division degree exactly n, and the Moebius inclusion-exclusion over
    the N_{m,n}; the m = n term weighs the same nodes as the direct count,
    in the same pass.  Raises InternalInconsistency if the routes disagree
    anywhere."""
    if n < 2:
        raise ValueError("n must be >= 2")
    thresholds = _ascending(thresholds)
    if n == 2:
        ys = [isqrt(x) for x in thresholds]
        sieved = [c - 1 for c in _prime_sum_counts((), ys)]
        moebius = [c - 1 for c in squarefree_counts(ys)]
        if sieved != moebius:
            raise InternalInconsistency(
                f"division census mismatch: sieve {sieved} vs Moebius sum {moebius}")
        return CountTable(tuple(thresholds), tuple(sieved))
    direct = [0] * len(thresholds)
    incl_excl = [0] * len(thresholds)
    for disc, node in _csa_nodes(n, n, thresholds[-1]):
        slot = bisect_left(thresholds, disc)
        direct[slot] += _completions(node, n, exact=n)
        incl_excl[slot] += _completions(node, n)
    direct, incl_excl = list(accumulate(direct)), list(accumulate(incl_excl))
    for m in divisors(n)[:-1]:
        mu = mobius(n // m)
        if mu:
            sub = census_csa(m, n, thresholds)
            incl_excl = [a + mu * b for a, b in zip(incl_excl, sub.counts)]
    if direct != incl_excl:
        raise InternalInconsistency(
            f"division census mismatch: direct {direct} vs inclusion-exclusion {incl_excl}")
    return CountTable(tuple(thresholds), tuple(direct))


def count_division(n: int, x: int) -> int:
    return census_division(n, [x]).counts[0]


# -- block sizes ---------------------------------------------------------------

# The discriminant stream walks its range in blocks of SEGMENT integers, so
# its arrays stay a few MB at any range (2^18 measured fastest at 10^7).  It
# starts at FIRST_BLOCK and doubles up to SEGMENT, so a reader that stops
# early reads few; both need a multiple of 16.
SEGMENT = 1 << 18
FIRST_BLOCK = 1 << 10

# The real-field listing ANDs each block with a table of period q for each
# ramified q <= min(limit, QR_TABLE): q + SEGMENT bytes, built in about
# 0.15 us per residue (0.6 s at the cap), while Euler's criterion costs
# about 1 us per surviving field, so past the limit the table does not
# pay.  The cap bounds the tables' memory.
QR_TABLE = 1 << 22


# -- prime sums over the floor set -------------------------------------------------

def _floor_step(small, large, y: int, p: int, coef, base) -> None:
    """A(v) += coef * (A(v // p) - base) at every v >= p^2 of the floor set
    {y // k}, one row of A per entry of coef: small[:, v] holds A(v) for
    v <= L = isqrt(y), large[:, k] holds A(y // k) for 1 <= k <= L.  Every
    A(v // p) is read before any write, so it is the value before this p."""
    L = small.shape[1] - 1
    k1, kmax = min(L // p, y // (p * p)), min(L, y // (p * p))
    coef, base = coef[:, None], base[:, None]
    large[:, 1:k1 + 1] += coef * (large[:, p:k1 * p + 1:p] - base)
    large[:, k1 + 1:kmax + 1] += coef * (small[:, y // (p * np.arange(k1 + 1, kmax + 1))] - base)
    small[:, p * p:] += coef * (small[:, np.arange(p * p, L + 1) // p] - base)


def _periodic_sums(weight, period: int, ms: np.ndarray) -> np.ndarray:
    """sum weight(m) over 0 <= m <= M for each M in ms, weight an array
    function of the given period, walked once in blocks of SEGMENT."""
    full, rest = np.divmod(ms, period)
    length = period if full.any() else int(rest.max(initial=-1)) + 1
    sums, total = np.zeros(len(ms), dtype=np.int64), 0
    for lo in range(0, length, SEGMENT):
        part = np.cumsum(weight(np.arange(lo, min(lo + SEGMENT, length)))) + total
        here = (rest >= lo) & (rest < lo + SEGMENT)
        sums[here], total = part[rest[here] - lo], int(part[-1])
    return full * total + sums


def _prime_sum_counts(deltas: tuple[int, ...], ys: list[int], even_only: bool = False) -> list[int]:
    """For each ascending y >= 1, the number of squarefree q <= y with no
    prime factor split in any Q(sqrt(delta_i)); with even_only, only those
    with mu(q) = 1.  Two phases over the floor set of y, in O(y^(3/4)) time
    and O(sqrt(y)) memory.  Lucy_Hedgehog's recursion turns the sums of
    chi_S(n), 2 <= n <= v, into sums over the primes for each product S of
    the fields; for p prime to them, [p splits in none] = 2^-r sum_S
    (-1)^|S| chi_S(p), and the p dividing them are put right one by one.
    Then min_25's recursion: G starts as that nonsplit prime count, and each
    nonsplit p <= sqrt(y), descending, adds the q of least prime p,
    f(p) (G(v // p) - G(p)) at v >= p^2, so that 1 + G(y) counts them all.
    even_only runs f(p) = 1 and f(p) = mu(p) = -1 and halves the sum."""
    r = len(deltas)
    nbytes = (40 << r) * isqrt(ys[-1])  # phase 1's floor rows and their temporaries
    if nbytes > 2.5 * arith.SIEVE_MEMORY_BUDGET:
        raise arith.SieveBudgetError(f"census to {ys[-1]} exceeds budget: about {nbytes} bytes")
    subsets = [s for k in range(r + 1) for s in combinations(deltas, k)]
    chars = [product_discriminant(s) for s in subsets]
    signs = np.array([(-1) ** len(s) for s in subsets])
    f = np.array([1, -1] if even_only else [1])

    def chi_sums(d, v):  # the sums of chi_d(n) over 2 <= n <= v
        return (v if d == 1 else _periodic_sums(lambda n: kronecker_vec(d, n), abs(d), v)) - 1

    counts = {}
    for y in sorted(set(ys)):
        L = isqrt(y)
        values = np.arange(L + 1), y // np.arange(L + 1).clip(1)  # large[:, 0] is unused
        small, large = (np.stack([chi_sums(d, v) for d in chars]) for v in values)
        primes = primes_upto(L)
        chi = np.stack([-kronecker_vec(d, primes) for d in chars]).astype(np.int64)
        for j, p in enumerate(primes.tolist()):
            _floor_step(small, large, y, p, chi[:, j], small[:, p - 1])
        small, large = signs @ small, signs @ large
        for p, _ in factorize(lcm(*deltas)):  # Lucy counted chi_S(p) at p; use the true weight
            weight = (1 << r) * all(kronecker_symbol(d, p) != 1 for d in deltas) - sum(
                sign * kronecker_symbol(d, p) for sign, d in zip(signs.tolist(), chars))
            small[p:] += weight
            large[1:min(L, y // p) + 1] += weight
        small, large = f[:, None] * (small >> r), f[:, None] * (large >> r)
        for p in reversed(_nonsplit_primes(deltas, L)):
            _floor_step(small, large, y, p, f, small[:, p])
        counts[y] = (int(large[:, 1].sum()) + len(f)) // len(f)
    return [counts[y] for y in ys]


# -- fundamental discriminants ---------------------------------------------------

def _check_limit(limit: int) -> None:
    """A listing of the fields with |delta| <= limit needs 0 <= limit <= SIEVE_MEMORY_BUDGET."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > arith.SIEVE_MEMORY_BUDGET:
        raise arith.SieveBudgetError(
            f"census to {limit} exceeds budget {arith.SIEVE_MEMORY_BUDGET}")


def _fundamental_blocks(limit: int):
    """The fundamental discriminants with |delta| <= limit, one int64 array
    per block [lo, lo + size) of |delta|, sorted by |delta| with the negative
    one first on ties; the sizes double from FIRST_BLOCK up to SEGMENT.  A
    block flags the k in it that no odd prime square divides (each p^2 >=
    SEGMENT struck with the others, at most one per block) and reads off +-k
    for squarefree k = 1, 3 mod 4 (the sign fixed by k mod 4), and +-4m for
    k = 4m with 16 not dividing k, where m is squarefree exactly when the odd
    part of k is, and +-m = 2, 3 mod 4.  Memory is O(sqrt(limit) + SEGMENT);
    a limit past SIEVE_MEMORY_BUDGET raises SieveBudgetError."""
    _check_limit(limit)
    primes = primes_upto(isqrt(limit))
    squares = primes[primes > 2] ** 2
    struck = squares[squares < SEGMENT].tolist()  # one stride each
    squares = squares[squares >= SEGMENT]
    lo, full = 0, min(FIRST_BLOCK, SEGMENT)
    while lo <= limit:
        size = min(full, limit + 1 - lo)
        sq = np.ones(size, dtype=bool)
        for m in struck:
            sq[-lo % m::m] = False
        offset = -lo % squares
        sq[offset[offset < size]] = False
        # row i flags (-(lo + i), +(lo + i)); every lo is a multiple of 16
        flags = np.zeros((size, 2), dtype=bool)
        flags[1::4, 1] = sq[1::4]
        flags[3::4, 0] = sq[3::4]
        flags[4::16, 0] = sq[4::16]
        flags[8::16] = sq[8::16, None]
        flags[12::16, 1] = sq[12::16]
        if lo == 0:
            flags[1:2, 1] = False  # 1 is not a discriminant
        found = np.flatnonzero(flags)  # 2 |delta|, plus 1 for the positive one
        deltas = (found >> 1) + lo
        deltas *= (found & 1) * 2 - 1
        yield deltas
        lo, full = lo + full, min(2 * full, SEGMENT)


@lru_cache(maxsize=8)
def fundamental_discriminants(limit: int) -> np.ndarray:
    """All fundamental discriminants with |delta| <= limit, sorted by |delta|
    with the negative one first on ties; read-only, since it is cached.  A
    first pass over _fundamental_blocks counts them and a second fills the
    table, the only array as long as the limit.  No command reads it; it
    serves library callers and tests that want the discriminants as one array."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    # the table peaks near 5.3 bytes per unit of limit (tracemalloc at 10^7);
    # the derived tables are capped at 2.5 bytes per unit of the budget, 2.5 GB
    if 6 * limit > 2.5 * arith.SIEVE_MEMORY_BUDGET:
        raise arith.SieveBudgetError(
            f"fundamental-discriminant table to {limit} exceeds budget: about {6 * limit} bytes")
    table = np.empty(sum(map(len, _fundamental_blocks(limit))), dtype=np.int64)
    end = 0
    for deltas in _fundamental_blocks(limit):
        table[end:end + len(deltas)] = deltas
        end += len(deltas)
    table.flags.writeable = False
    return table


def fundamental_discriminant_count(x: int) -> int:
    """The number of fundamental discriminants |delta| <= x: the embed-quads census of M(2, Q)."""
    return count_embedding_quads(QuaternionAlgebraQ.from_primes(()), x)


def _embeds_mask(algebra: QuaternionAlgebraQ, deltas: np.ndarray,
                 nonsplit: dict | None = None) -> np.ndarray:
    """Which deltas embed in the algebra (no ramified place splits); `nonsplit`,
    one dict per deltas array, keeps each prime's kronecker_vec(deltas, p) != 1."""
    nonsplit = {} if nonsplit is None else nonsplit
    ok = np.ones(len(deltas), dtype=bool)
    for v in algebra.ramification:
        if v.is_infinite:
            ok &= deltas < 0
        else:
            if v.p not in nonsplit:
                nonsplit[v.p] = kronecker_vec(deltas, v.p) != 1
            ok &= nonsplit[v.p]
    return ok


def count_embedding_quads(algebra: QuaternionAlgebraQ, x: int,
                          not_totally_complex: bool = False) -> int:
    """Number of quadratic fields with |delta| <= x embedding into the
    algebra (no ramified place splits); the option restricts to real fields."""
    return census_embedding_quads(algebra, [x], not_totally_complex).counts[0]


def census_embedding_quads(algebra: QuaternionAlgebraQ, thresholds,
                           not_totally_complex: bool = False) -> CountTable:
    """Quadratic fields with |delta| <= x embedding into the algebra, for
    each threshold.  delta = +-n or +-4n for squarefree n <= N = x or x/4,
    and whether it counts depends on n mod 8P, P the odd ramified primes:
    the sum over odd d <= sqrt(N) of mu(d) #{m <= N/d^2 : m d^2 counts}, as
    the weight of m d^2 is that of m g^2, g = gcd(d, P).  delta = 1 is taken
    out where it fell in the counted classes.  O(sqrt(x) + 8P) time."""
    thresholds = _ascending(thresholds)
    # the (d, mu(d), g) rows, the primes to y = isqrt(x) and one threshold's
    # terms of the sum: tracemalloc peaks at 34-50 bytes per unit of y at any
    # number of thresholds (10^10 to 10^12), so 80 is checked like the other tables
    if (nbytes := 80 * (y := isqrt(thresholds[-1]))) > 2.5 * arith.SIEVE_MEMORY_BUDGET:
        raise arith.SieveBudgetError(
            f"census to {thresholds[-1]} exceeds budget: about {nbytes} bytes")
    odd = [v.p for v in algebra.ramification if not v.is_infinite and v.p > 2]
    signs = (1,) if not_totally_complex else (1, -1)

    def weight(four, g, m):  # the fields delta = +-four m g^2 that count
        n, w = m * (g * g), np.zeros(len(m), dtype=np.int64)
        for sign in signs:
            delta = sign * four * n
            w += (delta % 4 == 1 if four == 1 else sign * n % 4 >= 2) & _embeds_mask(algebra, delta)
        return w

    # every odd squarefree d <= y (an even d puts 4 | n), with mu(d) and g
    rows = squarefree_products(prime_list(y)[1:], y, (1, 1),
                               lambda s, p, _: (-s[0], s[1] * p if p in odd else s[1]))
    ds, mu, g = np.fromiter((v for d, s in rows for v in (d, *s)), dtype=np.int64).reshape(-1, 3).T
    squares, groups = ds * ds, sorted(set(g.tolist()))  # plain np.unique would import numpy.ma
    counts = []
    for x in thresholds:  # one threshold's terms at a time: memory does not grow with their number
        count = -int(weight(1, 1, np.array([1]))[0])  # delta = 1 is no discriminant
        for n, four in ((x, 1), (x // 4, 4)):
            for gv in groups:
                at = np.flatnonzero((squares <= n) & (g == gv))
                # a period past every m walks only as far as the largest m
                period = min(8 * prod(odd) // gv, x + 1)
                count += int(mu[at] @ _periodic_sums(lambda m: weight(four, gv, m), period,
                                                     n // squares[at]))
        counts.append(count)
    return CountTable(tuple(thresholds), tuple(counts))


# -- quaternion algebras with prescribed subfields ---------------------------

def _nonsplit_primes(deltas: tuple[int, ...], limit: int) -> list[int]:
    """Finite primes p <= limit that split in none of the given fields, off the list view,
    without numpy: 2 splits for d = 1 mod 8, an odd p by Euler's criterion (0 if p | d)."""
    arith.check_fundamental(*deltas)
    return [p for p in prime_list(limit)
            if not any(d % 8 == 1 if p == 2 else pow(d, p // 2, p) == 1 for d in deltas)]


def _real_fields(primes, limit: int) -> list[int]:
    """The fundamental delta in [2, limit], ascending, at which none of the
    given finite primes splits: the real quadratic fields that embed in an
    indefinite algebra ramified at them.  A delta > 1 is fundamental when
    delta = 1, 5, 8, 9, 12 or 13 mod 16 and no odd prime square divides it.
    The range is walked in blocks of SEGMENT, one flag byte per delta: the
    pattern of period 16 (without delta = 1 mod 8, where 2 splits, when 2 is
    ramified) is struck at the multiples of each odd p^2 <= limit, then
    ANDed with a table of period q for each odd ramified q <= min(limit,
    QR_TABLE), which flags 0 and the non-residues mod q.  Any other q is
    tested on the survivors by Euler's criterion.  Memory is O(sqrt(limit)
    + SEGMENT), plus q + SEGMENT bytes per table and the kept delta."""
    _check_limit(limit)
    base = bytes(r in (5, 8, 12, 13) or (r in (1, 9) and 2 not in primes) for r in range(16))
    tables, euler = [], []
    for q in sorted(set(primes) - {2}):
        if q > min(limit, QR_TABLE):
            euler.append(q)
            continue
        table = bytearray(b"\x01") * q
        for r in range(1, q // 2 + 1):
            table[r * r % q] = 0
        # one period past a block, so each block reads one slice at lo mod q
        tables.append((q, table * (SEGMENT // q + 1) + table[:SEGMENT % q]))
    squares = [p * p for p in prime_list(isqrt(limit))[1:]]
    kept = []
    for lo in range(0, limit + 1, SEGMENT):  # every lo is a multiple of 16
        size = min(SEGMENT, limit + 1 - lo)
        flags = bytearray(base * (size // 16 + 1))
        if lo == 0:
            flags[1] = 0  # 1 is not a discriminant
        for m in squares:
            start = -lo % m
            flags[start:size:m] = bytes(len(range(start, size, m)))
        if tables:
            mask = int.from_bytes(flags[:size], "little")
            for q, table in tables:
                mask &= int.from_bytes(table[lo % q:lo % q + size], "little")
            flags = mask.to_bytes(size, "little")
        found = list(compress(range(lo, lo + size), flags))
        for q in euler:  # Euler's criterion, as in _nonsplit_primes
            found = [d for d in found if pow(d, q // 2, q) != 1]
        kept += found
    return kept


def quaternion_algebras_by_disc(y: int, deltas=(), base=()) -> list[tuple[int, tuple]]:
    """(q, primes) in ascending q <= y for every squarefree q made of all the
    `base` primes and any others that split in none of the fields
    Q(sqrt(delta_i)), primes ascending: the quaternion algebras over Q of
    |disc| = q^2 that ramify at the base primes and otherwise admit every
    field.  Each base prime must split in one of the fields, as the primes
    of a descended algebra do.  With no base, _prime_sum_counts(deltas, [y])
    counts the same q without listing them."""
    deltas, base = tuple(deltas), tuple(sorted(base))
    arith.check_fundamental(*deltas)  # before any early return
    b = prod(base)
    if b > y:
        return []
    rows = squarefree_products(_nonsplit_primes(deltas, y // b), y // b)
    return sorted((b * r, tuple(sorted(base + chosen))) for r, chosen in rows)


def check_independent(deltas) -> None:
    arith.check_fundamental(*deltas)
    if not independent_mod_squares(deltas):
        raise DependentDiscriminants(
            f"discriminants {tuple(deltas)} satisfy a multiplicative relation mod squares")


def census_quat_with_subfields(deltas, thresholds) -> CountTable:
    """Quaternion algebras over Q admitting every field Q(sqrt(delta_i)) as a
    maximal subfield, with |disc| <= x.  Ramification stays inside the places
    nonsplit in every field, and |disc| = q^2 for the product q of the finite
    ones; when the real place qualifies (all delta_i < 0) it absorbs either
    parity of the finite part, otherwise only even sets count.  One sieve
    prime-sum count of such q <= sqrt(x); the tests' Dirichlet-coefficient
    oracle is the independent route."""
    deltas = tuple(int(d) for d in deltas)
    check_independent(deltas)
    thresholds = _ascending(thresholds)
    counts = _prime_sum_counts(deltas, [isqrt(x) for x in thresholds],
                               even_only=not all(d < 0 for d in deltas))
    return CountTable(tuple(thresholds), tuple(counts))


def count_quat_with_subfields(deltas, x: int) -> int:
    return census_quat_with_subfields(deltas, [x]).counts[0]


# -- splitting statistics ----------------------------------------------------

def splitting_density(place: PlaceQ, x: int) -> tuple[Fraction, Fraction, Fraction]:
    """Empirical (split, inert, ramified) frequencies of a place over all
    fundamental |delta| <= x, as exact fractions summing to one."""
    if x < 100:
        raise ValueError("x must be >= 100")
    counts = np.zeros(3, dtype=np.int64)  # total, split, inert
    for deltas in _fundamental_blocks(x):
        kv = (deltas > 0).view(np.int8) if place.is_infinite else kronecker_vec(deltas, place.p)
        counts += len(kv), np.count_nonzero(kv == 1), np.count_nonzero(kv == -1)
    total, split, inert = counts.tolist()
    return tuple(Fraction(k, total) for k in (split, inert, total - split - inert))


def least_primes(count: int, keep) -> list[int]:
    """The `count` least primes among those the vector predicate keep(primes)
    selects, the sieve grown tenfold from 10^3 until enough are found."""
    limit = 10 ** 3
    while True:
        primes = primes_upto(limit)
        found = primes[keep(primes)][:count].tolist()
        if len(found) == count:
            return found
        limit *= 10


def smallest_inert_prime(field: QuadraticField) -> int:
    """Least rational prime inert in the field."""
    return least_primes(1, lambda ps: kronecker_vec(field.delta, ps) == -1)[0]


def _least_inert_primes(deltas: np.ndarray) -> np.ndarray:
    """The least prime inert in each field, walking prefixes of the primes
    grown tenfold from 10^3 against the unresolved discriminants."""
    least = np.zeros(len(deltas), dtype=np.int64)
    todo, seen, limit = np.arange(len(deltas)), 0, 10 ** 3
    while len(todo):
        primes = primes_upto(limit)
        for p in primes[seen:].tolist():
            inert = kronecker_vec(deltas[todo], p) == -1
            least[todo[inert]], todo = p, todo[~inert]
            if not len(todo):
                break
        seen, limit = len(primes), 10 * limit
    return least


def smallest_inert_stats(x: int) -> dict:
    """Empirical view of the effective-Chebotarev exponent: the maximum of
    log(p)/log(d_L) over fundamental |delta| <= x, p the least inert prime."""
    rows = ((d, p) for deltas in _fundamental_blocks(x)
            for d, p in zip(deltas.tolist(), _least_inert_primes(deltas).tolist()))
    ratio, d, p = max(((log(p) / log(abs(d)), d, p) for d, p in rows),
                      key=lambda row: row[0], default=(0.0, 0, 0))  # first on ties
    return {"max_ratio": ratio, "delta": d, "prime": p, "x": x}
