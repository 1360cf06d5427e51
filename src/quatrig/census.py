"""Exact enumeration engines: the empirical counting functions on the left
side of every counting theorem.  The tests hold the Dirichlet-coefficient
oracle that reproduces them through an entirely independent route (exact
multiplication of Euler factors).

Quaternion algebras have |disc| = q^2 for the squarefree product q of their
finite ramified primes, so the quaternion division and subfield censuses are
prefix counts of squarefree q <= sqrt(x).  One block kernel (_blocks) sieves
0..y in blocks of SEGMENT integers with the primes up to sqrt(y), in
O(sqrt(y) + SEGMENT) memory; _sieve_counts strikes 4 | q, a split prime
factor above sqrt(y) and, if asked, odd mu(q), then counts each threshold.  One listing
(quaternion_algebras_by_disc) yields the same q with their primes for the
callers that need the algebras themselves.  The other censuses (central
simple algebras, division algebras of degree n >= 3) come from one bounded
product-of-primes enumerator (arith.squarefree_products) over ascending
primes; each folds its residue distribution of local invariants along the
way and sums per-node weights into threshold slots, so counts never depend on
enumeration order.  Quadratic fields come from the same kernel, one block of
fundamental discriminants at a time (_fundamental_blocks), the one stream
every reader walks in |delta| order (census fund-disc is the embed-quads census
of the matrix algebra), so no command builds an array as long as its limit.
Splitting data comes from arith.kronecker_vec; least_primes finds least primes,
but _least_inert_primes walks the primes up to max |delta| itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm, log, prod

from . import arith
from .arith import (
    divisors,
    iroot,
    kronecker_vec,
    mobius,
    np,
    primes_upto,
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
    return squarefree_products(primes_upto(max_p).tolist(), bound, ({0: 1}, 1),
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

    n = 2: the sieve count of squarefree q <= sqrt(x), less q = 1 (the real
    place fixes the parity, so each q > 1 is one division algebra), checked
    against the sum over d <= x^(1/4) of mu(d) floor(sqrt(x)/d^2), with mu(d)
    by trial division.  n >= 3: a direct count of the Hasse data of division
    degree exactly n, and the Moebius inclusion-exclusion over the N_{m,n};
    the m = n term weighs the same nodes as the direct count, in the same
    pass.  Raises InternalInconsistency if the routes disagree anywhere."""
    if n < 2:
        raise ValueError("n must be >= 2")
    thresholds = _ascending(thresholds)
    if n == 2:
        ys = [isqrt(x) for x in thresholds]
        sieved = [c - 1 for c in _sieve_counts((), ys)]
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


# -- the block kernel ---------------------------------------------------------

# Every sieve census walks its range in blocks of SEGMENT integers, so its
# arrays stay a few MB at any range (2^18 measured fastest at 10^7).  The
# discriminant stream starts at FIRST_BLOCK and doubles up to SEGMENT, so a
# reader that stops early reads few; both need a multiple of 16.
SEGMENT = 1 << 18
FIRST_BLOCK = 1 << 10


def _blocks(y: int, first: int, step: int, deltas: tuple[int, ...] = ()):
    """(lo, ok) for each block [lo, lo + size) of 0..y, in order, the sizes
    doubling from `first` up to `step`: ok[i] says that n = lo + i >= 1 has
    no prime factor p <= sqrt(y) split in any Q(sqrt(delta_i)), and no factor
    p^2 for an odd nonsplit p; 4 is left to the readers.  Each p^2 >= step is
    struck with the others, at most one per block.  Memory is
    O(sqrt(y) + step); a y past SIEVE_MEMORY_BUDGET raises SieveBudgetError."""
    if y > arith.SIEVE_MEMORY_BUDGET:
        raise arith.SieveBudgetError(
            f"census to {y} exceeds budget {arith.SIEVE_MEMORY_BUDGET}")
    primes = primes_upto(isqrt(y))
    split = _split_mask(deltas, primes)
    squares = primes[~split & (primes > 2)] ** 2
    struck = [*primes[split].tolist(), *squares[squares < step].tolist()]  # one stride each
    squares = squares[squares >= step]
    lo, full = 0, min(first, step)
    while lo <= y:
        size = min(full, y + 1 - lo)
        ok = np.ones(size, dtype=bool)
        ok[0] = lo > 0  # n = 0 counts nothing
        for m in struck:
            ok[-lo % m::m] = False
        offset = -lo % squares
        ok[offset[offset < size]] = False
        yield lo, ok
        lo, full = lo + full, min(2 * full, step)


def _sieve_counts(deltas: tuple[int, ...], ys: list[int], even_only: bool = False) -> list[int]:
    """For each ascending y >= 1, the number of squarefree q <= y with no
    prime factor split in any Q(sqrt(delta_i)); with even_only, only those
    with mu(q) = 1.  One pass of the block kernel to the largest y; each
    block strikes 4 | q, then, with fields or even_only, divides the nonsplit
    primes <= sqrt(y) out of each q to leave 1 or its one larger prime P:
    kronecker_vec decides P, and the factor count gives mu(q) (the kernel's
    budget keeps q in uint32).  The flags are counted at every threshold."""
    counts = np.zeros(len(ys), dtype=np.int64)
    for lo, ok in _blocks(ys[-1], SEGMENT, SEGMENT, deltas):
        ok[-lo % 4::4] = False
        if deltas or even_only:
            if lo == 0:  # once the kernel has checked the budget
                nonsplit = _nonsplit_primes(deltas, isqrt(ys[-1]))
            small = np.ones(len(ok), dtype=np.uint32)  # product of the nonsplit prime factors
            odd = np.zeros(len(ok), dtype=bool)  # parity of their number
            for p in nonsplit:
                small[-lo % p::p] *= p
                if even_only:
                    odd[-lo % p::p] ^= True
            live = np.flatnonzero(ok)
            cofactor = (live + lo).astype(np.uint32) // small[live]  # 1 or P
            big = cofactor > 1
            drop = odd[live] != big if even_only else np.zeros(len(live), dtype=bool)
            for d in deltas:
                drop |= big & (kronecker_vec(d, cofactor) == 1)
            ok[live[drop]] = False
        counts += _prefix_counts(ok, np.clip(np.array(ys) + 1 - lo, 0, len(ok)).tolist())
    return counts.tolist()


def _prefix_counts(flags: np.ndarray, ends: list[int]) -> list[int]:
    """The number of set flags in flags[:e] for each ascending end e."""
    return list(accumulate(int(np.count_nonzero(flags[a:b])) for a, b in zip([0, *ends], ends)))


# -- fundamental discriminants ---------------------------------------------------

def _fundamental_blocks(limit: int):
    """The fundamental discriminants with |delta| <= limit, one int64 array
    per block of |delta|, sorted by |delta| with the negative one first on
    ties.  Block [lo, lo + size) reads the kernel's flags of k in it (no odd
    square divides k): +-k for squarefree k = 1, 3 mod 4 (the sign fixed by
    k mod 4), and +-4m for k = 4m with 16 not dividing k, where m is
    squarefree exactly when the odd part of k is, and +-m = 2, 3 mod 4."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    for lo, sq in _blocks(limit, FIRST_BLOCK, SEGMENT):
        # row i flags (-(lo + i), +(lo + i)); every block size is a multiple of 16
        flags = np.zeros((len(sq), 2), dtype=bool)
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


def _embeds_mask(algebra: QuaternionAlgebraQ, deltas: np.ndarray) -> np.ndarray:
    ok = np.ones(len(deltas), dtype=bool)
    for v in algebra.ramification:
        if v.is_infinite:
            ok &= deltas < 0
        else:
            ok &= kronecker_vec(deltas, v.p) != 1
    return ok


def count_embedding_quads(algebra: QuaternionAlgebraQ, x: int,
                          not_totally_complex: bool = False) -> int:
    """Number of quadratic fields with |delta| <= x embedding into the
    algebra (no ramified place splits); the option restricts to real fields."""
    return census_embedding_quads(algebra, [x], not_totally_complex).counts[0]


def census_embedding_quads(algebra: QuaternionAlgebraQ, thresholds,
                           not_totally_complex: bool = False) -> CountTable:
    """Quadratic fields with |delta| <= x embedding into the algebra, for
    each threshold: one pass over the blocks of fundamental discriminants,
    each block counting its embedding fields at or below every threshold;
    no table as long as the largest threshold is built."""
    thresholds = _ascending(thresholds)
    counts = np.zeros(len(thresholds), dtype=np.int64)
    for deltas in _fundamental_blocks(thresholds[-1]):
        ok = _embeds_mask(algebra, deltas)
        if not_totally_complex:
            ok &= deltas > 0
        ends = np.searchsorted(np.abs(deltas), thresholds, side="right")
        counts += _prefix_counts(ok, ends.tolist())
    return CountTable(tuple(thresholds), tuple(counts.tolist()))


# -- quaternion algebras with prescribed subfields ---------------------------

def _split_mask(deltas: tuple[int, ...], primes: np.ndarray) -> np.ndarray:
    """Which of the primes split in some field Q(sqrt(delta_i))."""
    split = np.zeros(len(primes), dtype=bool)
    for d in deltas:
        split |= kronecker_vec(d, primes) == 1
    return split


def _nonsplit_primes(deltas: tuple[int, ...], limit: int) -> list[int]:
    """Finite primes p <= limit that split in none of the given fields."""
    primes = primes_upto(limit)
    return primes[~_split_mask(deltas, primes)].tolist()


def quaternion_algebras_by_disc(y: int, deltas=(), base=()) -> list[tuple[int, tuple]]:
    """(q, primes) in ascending q <= y for every squarefree q made of all the
    `base` primes and any others that split in none of the fields
    Q(sqrt(delta_i)), primes ascending: the quaternion algebras over Q of
    |disc| = q^2 that ramify at the base primes and otherwise admit every
    field.  Each base prime must split in one of the fields, as the primes
    of a descended algebra do.  With no base, _sieve_counts(deltas, [y])
    counts the same q."""
    base = tuple(sorted(base))
    b = prod(base)
    if b > y:
        return []
    rows = squarefree_products(_nonsplit_primes(tuple(deltas), y // b), y // b)
    return sorted((b * r, tuple(sorted(base + chosen))) for r, chosen in rows)


def check_independent(deltas) -> None:
    for d in deltas:
        if not arith.is_fundamental_discriminant(d):
            raise arith.InvalidDiscriminant(f"{d} is not a fundamental discriminant")
    if not independent_mod_squares(deltas):
        raise DependentDiscriminants(
            f"discriminants {tuple(deltas)} satisfy a multiplicative relation mod squares")


def census_quat_with_subfields(deltas, thresholds) -> CountTable:
    """Quaternion algebras over Q admitting every field Q(sqrt(delta_i)) as a
    maximal subfield, with |disc| <= x.  Ramification stays inside the places
    nonsplit in every field, and |disc| = q^2 for the product q of the finite
    ones; when the real place qualifies (all delta_i < 0) it absorbs either
    parity of the finite part, otherwise only even sets count.  One sieve
    count of such q <= sqrt(x); the tests' Dirichlet-coefficient oracle is
    the independent route."""
    deltas = tuple(int(d) for d in deltas)
    check_independent(deltas)
    thresholds = _ascending(thresholds)
    counts = _sieve_counts(deltas, [isqrt(x) for x in thresholds],
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
    """The least prime inert in each field, walking the primes <= max |delta|
    against the unresolved discriminants: chi_delta is non-principal mod |delta|,
    so (delta|n) = -1 for some n < |delta|, and a prime factor of n is inert."""
    least = np.zeros(len(deltas), dtype=np.int64)
    todo = np.arange(len(deltas))
    for p in primes_upto(int(np.abs(deltas).max(initial=0))).tolist():
        if not len(todo):
            break
        inert = kronecker_vec(deltas[todo], p) == -1
        least[todo[inert]] = p
        todo = todo[~inert]
    return least


def smallest_inert_stats(x: int) -> dict:
    """Empirical view of the effective-Chebotarev exponent: the maximum of
    log(p)/log(d_L) over fundamental |delta| <= x, p the least inert prime."""
    rows = ((d, p) for deltas in _fundamental_blocks(x)
            for d, p in zip(deltas.tolist(), _least_inert_primes(deltas).tolist()))
    ratio, d, p = max(((log(p) / log(abs(d)), d, p) for d, p in rows),
                      key=lambda row: row[0], default=(0.0, 0, 0))  # first on ties
    return {"max_ratio": ratio, "delta": d, "prime": p, "x": x}
