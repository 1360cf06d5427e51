"""Exact enumeration engines: the empirical counting functions on the left
side of every counting theorem, and the Dirichlet-coefficient oracle that
reproduces them through an entirely independent route (exact multiplication
of Euler factors).

Ramification data is generated by one bounded product-of-primes enumerator
(arith.squarefree_products) over ascending primes; each census folds its own
state along the way (a residue distribution of local invariants, or a
parity) and sums per-node weights into threshold slots, so counts never
depend on enumeration order.  Each census kind builds its spec in one
function, shared by its CountTable and the CLI cache key.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm

import numpy as np

from . import arith
from .arith import (
    divisors,
    iroot,
    kronecker_symbol,
    ramanujan_sum,
    shared_sieve,
    squarefree_products,
)
from .brauer import QuaternionAlgebraQ
from .fields import (
    PlaceQ,
    QuadraticField,
    SplittingType,
    independent_mod_squares,
    splitting,
)


class InternalInconsistency(RuntimeError):
    """Two independent computations of the same census disagree."""


class DependentDiscriminants(ValueError):
    """The given discriminants are multiplicatively dependent mod squares."""


@dataclass(frozen=True)
class CountTable:
    """Census results: exact counts at an ascending list of thresholds."""

    thresholds: tuple[int, ...]
    counts: tuple[int, ...]
    spec: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if list(self.thresholds) != sorted(self.thresholds):
            raise ValueError("thresholds must be ascending")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise InternalInconsistency("counts must be nondecreasing in x")

    def count_at(self, x: int) -> int:
        idx = self.thresholds.index(x)
        return self.counts[idx]

    def rows(self):
        return list(zip(self.thresholds, self.counts))


def csa_spec(m: int, n: int) -> dict:
    return {"kind": "csa", "m": m, "n": n}


def division_spec(n: int) -> dict:
    return {"kind": "division", "n": n}


def embed_quads_spec(algebra: QuaternionAlgebraQ, not_totally_complex: bool) -> dict:
    return {"kind": "embed_quads", "ram": sorted(map(repr, algebra.ramification)),
            "not_totally_complex": not_totally_complex}


def quat_subfields_spec(deltas) -> dict:
    return {"kind": "quat_subfields", "deltas": [int(d) for d in deltas]}


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
    p^(n^2 - n^2/d) to the discriminant, and a numerator coprime to d.
    dist[r] counts the numerator choices whose invariant sum is r/m mod 1,
    tracked exactly; lcm is the lcm of the chosen denominators.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if n % m != 0:
        raise ValueError("m must divide n")
    options = [(n * n - n * n // d, (d, [a * (m // d) for a in range(1, d) if gcd(a, d) == 1]))
               for d in divisors(m)[1:]]

    def fold(state, p, option):
        dist, lcm_f = state
        d, residues = option
        ndist = [0] * m
        for r, cnt in enumerate(dist):
            if cnt:
                for s in residues:
                    ndist[(r + s) % m] += cnt
        return ndist, lcm(lcm_f, d)

    # m = 1 has no options: the matrix algebra alone
    max_p = iroot(max(bound, 0), options[0][0]) if options else 0
    primes = [int(p) for p in shared_sieve(max(max_p, 2)).primes_upto(max_p)]
    return squarefree_products(primes, bound, ([1] + [0] * (m - 1), 1), fold,
                               lambda p: [(p ** w, opt) for w, opt in options])


def _completions(node, exact: int | None = None) -> int:
    """Ways to complete the finite local data (dist, lcm) of a node by the
    real place (invariant 0, or 1/2 when m = len(dist) is even) to an
    integral invariant sum; with `exact`, only completions of division degree
    exactly `exact`."""
    dist, lcm_f = node
    m = len(dist)
    ways = dist[0] if exact in (None, lcm_f) else 0
    if m % 2 == 0 and exact in (None, lcm(lcm_f, 2)):
        ways += dist[m // 2]
    return ways


def _csa_disc_counts(m: int, n: int, bound: int) -> list[tuple[int, int]]:
    """Sorted (disc, multiplicity) pairs of the N_{m,n} census, |disc| <= bound."""
    counts: dict[int, int] = {}
    for disc, node in _csa_nodes(m, n, bound):
        w = _completions(node)
        if w:
            counts[disc] = counts.get(disc, 0) + w
    return sorted(counts.items())


def census_csa(m: int, n: int, thresholds) -> CountTable:
    """N_{m,n}(x): central simple algebras of dimension n^2 whose division
    degree divides m, counted by exhaustive generation of Hasse data."""
    thresholds = _ascending(thresholds)
    nodes = _csa_nodes(m, n, thresholds[-1])
    counts = _counts_at_thresholds(((disc, _completions(node)) for disc, node in nodes),
                                   thresholds)
    return CountTable(tuple(thresholds), tuple(counts), csa_spec(m, n))


def count_csa(m: int, n: int, x: int) -> int:
    return census_csa(m, n, [x]).counts[0]


def census_division(n: int, thresholds) -> CountTable:
    """Division algebras of dimension n^2, counted two independent ways: a
    direct count of the Hasse data of division degree exactly n, and the
    Moebius inclusion-exclusion over the N_{m,n}.  The m = n term weighs the
    same nodes as the direct count, in the same pass.  Raises
    InternalInconsistency if the routes disagree anywhere."""
    if n < 2:
        raise ValueError("n must be >= 2")
    thresholds = _ascending(thresholds)
    direct = [0] * len(thresholds)
    incl_excl = [0] * len(thresholds)
    for disc, node in _csa_nodes(n, n, thresholds[-1]):
        slot = bisect_left(thresholds, disc)
        direct[slot] += _completions(node, exact=n)
        incl_excl[slot] += _completions(node)
    direct, incl_excl = list(accumulate(direct)), list(accumulate(incl_excl))
    table = shared_sieve(n)
    for m in divisors(n)[:-1]:
        mu = table.mu(n // m)
        if mu:
            sub = census_csa(m, n, thresholds)
            incl_excl = [a + mu * b for a, b in zip(incl_excl, sub.counts)]
    if direct != incl_excl:
        raise InternalInconsistency(
            f"division census mismatch: direct {direct} vs inclusion-exclusion {incl_excl}")
    return CountTable(tuple(thresholds), tuple(direct), division_spec(n))


def count_division(n: int, x: int) -> int:
    return census_division(n, [x]).counts[0]


# -- fundamental discriminants (vectorized) ---------------------------------

@lru_cache(maxsize=8)
def fundamental_discriminants(limit: int) -> np.ndarray:
    """All fundamental discriminants with |delta| <= limit, sorted by |delta|
    with the negative one first on ties."""
    table = shared_sieve(max(limit, 4))
    sq = table.squarefree_flags()[:limit + 1]
    n = np.arange(limit + 1)
    # delta = +-n with n = 1 mod 4 squarefree (sign fixed by n mod 4), or
    # delta = 4m with m = 2, 3 mod 4 squarefree
    pos_mask = (n % 4 == 1) & sq
    neg_mask = (n % 4 == 3) & sq
    idx4 = n[n % 4 == 0]
    q = idx4 // 4
    pos4 = idx4[((q % 4 == 2) | (q % 4 == 3)) & sq[q]]
    neg4 = idx4[((q % 4 == 1) | (q % 4 == 2)) & sq[q]]
    pos_mask[pos4] = True
    neg_mask[neg4] = True
    pos_mask[:2] = False
    neg_mask[:2] = False
    deltas = np.concatenate([-n[neg_mask], n[pos_mask]])
    order = np.lexsort((deltas > 0, np.abs(deltas)))
    return deltas[order]


def fundamental_discriminant_count(x: int) -> int:
    """Exact number of fundamental discriminants delta != 1 with |delta| <= x."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return len(fundamental_discriminants(x))


@lru_cache(maxsize=64)
def _kronecker_residue_table(p: int) -> np.ndarray:
    """(delta|p) as a function of delta mod p (odd p) or delta mod 8 (p = 2)."""
    if p == 2:
        t = np.zeros(8, dtype=np.int8)
        t[[1, 7]] = 1
        t[[3, 5]] = -1
        return t
    t = np.full(p, -1, dtype=np.int8)
    t[0] = 0
    t[np.unique(np.arange(1, p, dtype=np.int64) ** 2 % p)] = 1
    return t


def _kronecker_vec(p: int, deltas: np.ndarray) -> np.ndarray:
    if p == 2:
        return _kronecker_residue_table(2)[deltas % 8]
    return _kronecker_residue_table(p)[deltas % p]


def _embeds_mask(algebra: QuaternionAlgebraQ, deltas: np.ndarray) -> np.ndarray:
    ok = np.ones(len(deltas), dtype=bool)
    for v in sorted(algebra.ramification, key=lambda v: (v.is_infinite, v.norm)):
        if v.is_infinite:
            ok &= deltas < 0
        else:
            ok &= _kronecker_vec(v.p, deltas) != 1
    return ok


def count_embedding_quads(algebra: QuaternionAlgebraQ, x: int,
                          not_totally_complex: bool = False) -> int:
    """Number of quadratic fields with |delta| <= x embedding into the
    algebra (no ramified place splits); the option restricts to real fields."""
    return census_embedding_quads(algebra, [x], not_totally_complex).counts[0]


def census_embedding_quads(algebra: QuaternionAlgebraQ, thresholds,
                           not_totally_complex: bool = False) -> CountTable:
    thresholds = _ascending(thresholds)
    deltas = fundamental_discriminants(thresholds[-1])
    ok = _embeds_mask(algebra, deltas)
    if not_totally_complex:
        ok &= deltas > 0
    admissible = np.sort(np.abs(deltas[ok]))
    counts = [int(np.searchsorted(admissible, x, side="right")) for x in thresholds]
    return CountTable(tuple(thresholds), tuple(counts),
                      embed_quads_spec(algebra, not_totally_complex))


# -- quaternion algebras with prescribed subfields ---------------------------

def _nonsplit_primes(deltas: tuple[int, ...], limit: int) -> list[int]:
    """Finite primes p <= limit that split in none of the given fields."""
    if limit < 2:
        return []
    primes = shared_sieve(limit).primes_upto(limit)
    keep = np.ones(len(primes), dtype=bool)
    for d in deltas:
        # (d|p) is a character of p mod |d|: evaluate it once per class met,
        # class 0 at |d| itself (kronecker_symbol needs a positive modulus)
        classes, where = np.unique(primes % abs(d), return_inverse=True)
        chi = np.array([kronecker_symbol(d, int(c) or abs(d)) for c in classes])
        keep &= chi[where] != 1
    return [int(p) for p in primes[keep]]


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
    parity of the finite part, otherwise only even sets count."""
    deltas = tuple(int(d) for d in deltas)
    check_independent(deltas)
    thresholds = _ascending(thresholds)
    y = isqrt(thresholds[-1])
    any_parity = all(d < 0 for d in deltas)
    products = squarefree_products(_nonsplit_primes(deltas, y), y, 0, lambda odd, p, _: 1 - odd)
    counts = _counts_at_thresholds(
        ((q * q, 1) for q, odd in products if any_parity or not odd), thresholds)
    return CountTable(tuple(thresholds), tuple(counts), quat_subfields_spec(deltas))


def count_quat_with_subfields(deltas, x: int) -> int:
    return census_quat_with_subfields(deltas, [x]).counts[0]


# -- Dirichlet-coefficient oracle -------------------------------------------

def _multiply_factor(arr: list[int], terms, n_max: int) -> list[int]:
    out = arr.copy()
    for pw, c in terms:
        if c == 0:
            continue
        for i in range(1, n_max // pw + 1):
            if arr[i]:
                out[i * pw] += c * arr[i]
    return out


def dirichlet_coefficients_csa(m: int, n: int, n_max: int) -> list[int]:
    """Coefficients a_N (N <= n_max) of the generating Dirichlet series whose
    partial sums equal the N_{m,n} census: exact root-of-unity averaging of
    Euler products, with Ramanujan sums as the closed-form numerators."""
    if n % m != 0:
        raise ValueError("m must divide n")
    weights = [(d, n * n - n * n // d) for d in divisors(m) if d > 1]
    min_w = min((w for _, w in weights), default=None)
    acc = [0] * (n_max + 1)
    for j in range(m):
        arr = [0] * (n_max + 1)
        arr[1] = 1
        if min_w is not None:
            max_p = iroot(n_max, min_w)
            if max_p >= 2:
                for p in shared_sieve(max_p).primes_upto(max_p):
                    p = int(p)
                    terms = [(p ** w, ramanujan_sum(d, j)) for d, w in weights
                             if p ** w <= n_max]
                    arr = _multiply_factor(arr, terms, n_max)
        real_factor = (1 + (-1) ** j) if m % 2 == 0 else 1
        if real_factor:
            for i in range(1, n_max + 1):
                acc[i] += real_factor * arr[i]
    for i in range(1, n_max + 1):
        if acc[i] % m != 0:
            raise InternalInconsistency(f"coefficient at {i} not divisible by {m}")
        acc[i] //= m
        if acc[i] < 0:
            raise InternalInconsistency(f"negative coefficient at {i}")
    return acc


def dirichlet_coefficients_embed(deltas, n_max: int) -> list[int]:
    """Coefficients a_N of the series counting quaternion algebras admitting
    all the given subfields, |disc| = N."""
    deltas = tuple(int(d) for d in deltas)
    check_independent(deltas)
    y = isqrt(n_max)
    primes = _nonsplit_primes(deltas, y)
    c0 = [0] * (n_max + 1)
    c0[1] = 1
    c1 = c0.copy()
    for p in primes:
        c0 = _multiply_factor(c0, [(p * p, 1)], n_max)
        c1 = _multiply_factor(c1, [(p * p, -1)], n_max)
    r1p = 1 if all(d < 0 for d in deltas) else 0
    out = [0] * (n_max + 1)
    for i in range(1, n_max + 1):
        num = (2 if r1p else 1) * c0[i] + (0 if r1p else 1) * c1[i]
        if num % 2 != 0:
            raise InternalInconsistency(f"odd numerator at {i}")
        out[i] = num // 2
        if out[i] < 0:
            raise InternalInconsistency(f"negative coefficient at {i}")
    return out


# -- splitting statistics ----------------------------------------------------

def splitting_density(place: PlaceQ, x: int) -> tuple[Fraction, Fraction, Fraction]:
    """Empirical (split, inert, ramified) frequencies of a place over all
    fundamental |delta| <= x, as exact fractions summing to one."""
    if x < 100:
        raise ValueError("x must be >= 100")
    deltas = fundamental_discriminants(x)
    total = len(deltas)
    if place.is_infinite:
        split = int((deltas > 0).sum())
        return (Fraction(split, total), Fraction(0), Fraction(total - split, total))
    kv = _kronecker_vec(place.p, deltas)
    split = int((kv == 1).sum())
    inert = int((kv == -1).sum())
    ram = total - split - inert
    return (Fraction(split, total), Fraction(inert, total), Fraction(ram, total))


def smallest_inert_prime(field: QuadraticField) -> int:
    """Least rational prime inert in the field."""
    limit = 64
    while True:
        for p in shared_sieve(limit).primes_upto(limit):
            if splitting(field, PlaceQ.finite(int(p))) is SplittingType.INERT:
                return int(p)
        limit *= 4


def smallest_inert_stats(x: int) -> dict:
    """Empirical view of the effective-Chebotarev exponent: the maximum of
    log(p)/log(d_L) over fundamental |delta| <= x, p the least inert prime."""
    import math

    deltas = fundamental_discriminants(x)
    best = (0.0, 0, 0)
    for d in deltas.tolist():
        f = QuadraticField(int(d))
        p = smallest_inert_prime(f)
        ratio = math.log(p) / math.log(abs(d)) if abs(d) > 1 else 0.0
        if ratio > best[0]:
            best = (ratio, int(d), p)
    return {"max_ratio": best[0], "delta": best[1], "prime": best[2], "x": x}
