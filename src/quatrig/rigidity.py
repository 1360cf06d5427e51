"""Effective-rigidity layer: explicit bound calculators with the unknown
absolute constants exposed as user parameters (default 1), plus the desk
experiments that exercise the distinguishing mechanisms the rigidity proofs
rely on: minimal distinguishing subfields, descent-distinguishing algebras,
arbitrarily-overlapping field pairs, and length-preserving families.

Search orders are fixed for reproducibility: discriminants by ascending
absolute value with the negative sign first on ties, primes ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations

from mpmath import mp

from .arith import (
    add_prime,
    chebyshev_theta,
    kronecker_symbol,
    shared_sieve,
    squarefree_products,
    squarefree_kernel,
)
from .brauer import (
    QuaternionAlgebraL,
    QuaternionAlgebraQ,
    descends,
    embeds,
    is_restriction,
    quaternion_iso,
)
from .census import fundamental_discriminants
from .fields import INFINITY, PlaceQ, QuadraticField

_BOUND_PREC = 100


class NotFoundWithinBound(RuntimeError):
    """Search exhausted its stated bound without a witness; reported
    separately from None (which asserts no witness exists at all)."""


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound, kept in mpmath form so astronomically large values
    survive; log10 is always finite-precision printable."""

    name: str
    inputs: dict
    value: object  # mpf

    @property
    def log10(self) -> float:
        with mp.workprec(_BOUND_PREC):
            return float(mp.log10(self.value))

    def as_json_value(self):
        v = self.value
        with mp.workprec(_BOUND_PREC):
            if v < mp.mpf(10) ** 308:
                return float(v)
            l10 = mp.log10(v)
            if l10 < mp.mpf(10) ** 308:
                return {"log10": float(l10)}
            return {"log10_log10": float(mp.log10(l10))}


def recognizing_bound(n_k: int, d_k: int, x: float) -> BoundReport:
    """Discriminant search radius guaranteeing that quaternion algebras of
    |disc| < x over a degree-n_k field are told apart by their maximal
    subfields: 64^(n_k^3) d_k^(n_k) exp(2 n_k (21x/log^3 x + x))."""
    if x <= 2:
        raise ValueError("x must exceed 2")
    with mp.workprec(_BOUND_PREC):
        xx = mp.mpf(x)
        expo = 2 * n_k * (21 * xx / mp.log(xx) ** 3 + xx)
        value = mp.mpf(64) ** (n_k ** 3) * mp.mpf(d_k) ** n_k * mp.exp(expo)
    return BoundReport("recognizing", {"n_k": n_k, "d_k": d_k, "x": x}, value)


def grunwald_wang_conductor_bound(n_k: int, b_omega: float, x: float) -> BoundReport:
    """Conductor bound 32^(n_k^2) B(Omega) (prod_{p<=x} p)^(2 n_k), the
    primorial handled through the theta function in log space."""
    if x <= 2:
        raise ValueError("x must exceed 2")
    theta = chebyshev_theta(x)
    with mp.workprec(_BOUND_PREC):
        value = (mp.mpf(32) ** (n_k ** 2) * mp.mpf(b_omega)
                 * mp.exp(mp.mpf(2) * n_k * theta))
    return BoundReport("grunwald_wang", {"n_k": n_k, "b_omega": b_omega, "x": x}, value)


def chlr_length_bound(volume: float, dimension: int, c1: float = 1.0,
                      c2: float = 1.0, c3: float = 1.0) -> BoundReport:
    """Length-spectrum agreement radius forcing commensurability:
    c1 e^(c2 log(V) V^130) in dimension 2, c3 e^((log V)^(log V)) in 3."""
    with mp.workprec(_BOUND_PREC):
        v = mp.mpf(volume)
        if dimension == 2:
            if v <= 1:
                raise ValueError("volume must exceed 1")
            value = mp.mpf(c1) * mp.exp(mp.mpf(c2) * mp.log(v) * v ** 130)
        elif dimension == 3:
            if v <= 1:
                raise ValueError("volume must exceed 1 so log V > 0")
            value = mp.mpf(c3) * mp.exp(mp.log(v) ** mp.log(v))
        else:
            raise ValueError("dimension must be 2 or 3")
    return BoundReport("chlr_length", {"volume": volume, "dimension": dimension,
                                       "c1": c1, "c2": c2, "c3": c3}, value)


def mcreid_area_bound(volume: float, c: float = 1.0) -> BoundReport:
    """Area radius e^(cV) for totally geodesic surface spectra."""
    with mp.workprec(_BOUND_PREC):
        value = mp.exp(mp.mpf(c) * mp.mpf(volume))
    return BoundReport("mcreid_area", {"volume": volume, "c": c}, value)


def brauer_rigidity_bound(d_base: float, c: float, disc1: float, disc2: float) -> BoundReport:
    """Discriminant radius d^(2C) (2 log(|disc B1||disc B2|))^4 |disc B1||disc B2|
    for recognizing quaternion algebras from their quaternion subalgebras.
    The base-field discriminant symbol is taken as an explicit input."""
    if min(d_base, disc1, disc2) <= 0:
        raise ValueError("inputs must be positive")
    with mp.workprec(_BOUND_PREC):
        prod = mp.mpf(disc1) * mp.mpf(disc2)
        value = mp.mpf(d_base) ** (2 * c) * (2 * mp.log(prod)) ** 4 * prod
    return BoundReport("brauer_rigidity",
                       {"d_base": d_base, "C": c, "disc1": disc1, "disc2": disc2}, value)


# -- distinguishing experiments ----------------------------------------------

@lru_cache(maxsize=4)
def _delta_list(delta_max: int) -> tuple[int, ...]:
    return tuple(int(d) for d in fundamental_discriminants(delta_max))


def distinguish_quaternions(b1: QuaternionAlgebraQ, b2: QuaternionAlgebraQ,
                            delta_max: int = 10 ** 6) -> int | None:
    """The fundamental discriminant of least |delta| (negative first on ties)
    whose field embeds in exactly one of the algebras; None when the algebras
    are isomorphic.  Raises NotFoundWithinBound past delta_max."""
    if quaternion_iso(b1, b2):
        return None
    for d in _delta_list(delta_max):
        f = QuadraticField(d)
        if embeds(f, b1) != embeds(f, b2):
            return d
    raise NotFoundWithinBound(
        f"no distinguishing |delta| <= {delta_max} for {b1} vs {b2}")


@dataclass(frozen=True)
class ScanReport:
    x: int
    delta_max: int
    pairs: tuple  # ((ram1, ram2, delta), ...)
    max_abs_delta: int
    histogram: dict = dc_field(compare=False, default_factory=dict)
    bound_log10: float = 0.0

    @property
    def all_distinguished(self) -> bool:
        return all(d is not None for _, _, d in self.pairs)


def _all_quaternion_algebras(x: int) -> list[QuaternionAlgebraQ]:
    """Quaternion algebras over Q with |disc| <= x (disc = q^2 for squarefree
    q; the parity of the finite part fixes the real place)."""
    y = math.isqrt(x)
    primes = [int(p) for p in shared_sieve(max(y, 4)).primes_upto(max(y, 2))]
    return [QuaternionAlgebraQ.from_primes(fs, include_infinity=len(fs) % 2 == 1)
            for _, fs in sorted(squarefree_products(primes, y, (), add_prime))]


def rigidity_scan(x: int, delta_max: int = 10 ** 6,
                  not_totally_complex: bool = False) -> ScanReport:
    """Distinguish every unordered pair of non-isomorphic quaternion algebras
    over Q with |disc| <= x by a quadratic field with |delta| <= delta_max;
    the empirical maximum must sit below the recognizing bound (it does, by
    many orders of magnitude).  A failed search would falsify the rigidity
    theorem at desk scale and is raised, never recorded."""
    if x < 4:
        raise ValueError("x must be >= 4")
    algebras = _all_quaternion_algebras(x)
    deltas = [int(d) for d in fundamental_discriminants(delta_max)]
    results = []
    hist: dict[int, int] = {}
    max_abs = 0
    for b1, b2 in combinations(algebras, 2):
        restrict_real = (not_totally_complex
                         and not b1.ramified_at_infinity
                         and not b2.ramified_at_infinity)
        found = None
        for d in deltas:
            if restrict_real and d < 0:
                continue
            f = QuadraticField(d)
            if embeds(f, b1) != embeds(f, b2):
                found = d
                break
        if found is None:
            raise NotFoundWithinBound(
                f"pair {b1}, {b2} not distinguished by |delta| <= {delta_max}")
        results.append((repr(b1), repr(b2), found))
        hist[abs(found)] = hist.get(abs(found), 0) + 1
        max_abs = max(max_abs, abs(found))
    bound = recognizing_bound(1, 1, x)
    if math.log(max_abs) > bound.log10 * math.log(10):
        raise NotFoundWithinBound("empirical maximum exceeds the recognizing bound")
    return ScanReport(x, delta_max, tuple(results), max_abs, hist, bound.log10)


def distinguish_brauer_pairs(l1: QuadraticField, l2: QuadraticField,
                             bl1: QuaternionAlgebraL, bl2: QuaternionAlgebraL,
                             x_max: int = 10 ** 8) -> QuaternionAlgebraQ | None:
    """The least-|disc| indefinite algebra over Q restricting to exactly one
    of the two given quaternion algebras (None when the restriction data
    already agree).  Both inputs must descend."""
    if l1.is_real or l2.is_real:
        raise ValueError("the desk experiments run over imaginary quadratic fields")
    d1 = descends(bl1)
    d2 = descends(bl2)
    if d1 is None or d2 is None:
        raise ValueError("both algebras must be restrictions from Q")
    if l1.delta == l2.delta and bl1.ramification == bl2.ramification:
        return None
    for b in _all_quaternion_algebras(x_max):
        if b.ramified_at_infinity:
            continue
        r1 = is_restriction(b, l1, bl1)
        r2 = is_restriction(b, l2, bl2)
        if r1 != r2:
            return b
    raise NotFoundWithinBound(f"no distinguishing algebra with |disc| <= {x_max}")


def limit_pair(m: int) -> tuple[int, int, int, int]:
    """Two distinct negative fundamental discriminants with identical
    splitting type at every prime p <= m, lexicographically minimal in
    (|delta1|, |delta2|), plus the two least primes split in the first field
    and inert in the second.

    Any finite splitting pattern is realized by infinitely many fields, so
    every candidate delta1 admits a partner; the lexicographic minimum
    therefore pairs the very first negative fundamental discriminant with
    its earliest pattern match.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    small = [int(p) for p in shared_sieve(max(m, 4)).primes_upto(m)]

    def pattern(delta: int) -> tuple[int, ...]:
        return tuple(kronecker_symbol(delta, p) for p in small)

    d1 = -3
    target = pattern(d1)
    cap = 10 ** 4
    while True:
        for d in fundamental_discriminants(cap).tolist():
            d = int(d)
            if d < 0 and d != d1 and pattern(d) == target:
                return (d1, d, *_split_inert_witnesses(d1, d))
        cap *= 10


def _split_inert_witnesses(d1: int, d2: int) -> tuple[int, int]:
    found = []
    limit = 10 ** 3
    while True:
        for p in shared_sieve(limit).primes_upto(limit).tolist():
            p = int(p)
            if kronecker_symbol(d1, p) == 1 and kronecker_symbol(d2, p) == -1:
                if p not in found:
                    found.append(p)
                if len(found) == 2:
                    return found[0], found[1]
        limit *= 10
        found = []


def length_preserving_family(algebra: QuaternionAlgebraQ, deltas, count: int
                             ) -> list[QuaternionAlgebraQ]:
    """`count` pairwise non-isomorphic algebras strictly containing the given
    ramification set, each still admitting every field Q(sqrt(delta_i)):
    the moduli disc(B) p1 p2, disc(B) p1 p3, ... over ascending primes
    nonsplit in all the fields and outside Ram(B)."""
    deltas = tuple(int(d) for d in deltas)
    for d in deltas:
        f = QuadraticField(d)
        if not embeds(f, algebra):
            raise ValueError(f"field {d} does not embed in {algebra}")
    # infinitude of common nonsplit primes fails exactly on an odd-order
    # square relation among the discriminants
    for k in range(1, len(deltas) + 1, 2):
        for combo in combinations(deltas, k):
            if squarefree_kernel(math.prod(combo)) == 1:
                raise ValueError(
                    f"odd-order relation {combo}: no common inert primes")
    ram_primes = set(algebra.finite_primes)
    picked: list[int] = []
    limit = 10 ** 3
    while len(picked) < count + 1:
        picked = []
        for p in shared_sieve(limit).primes_upto(limit).tolist():
            p = int(p)
            if p in ram_primes:
                continue
            if all(kronecker_symbol(d, p) == -1 for d in deltas):
                picked.append(p)
            if len(picked) == count + 1:
                break
        limit *= 10
    base = picked[0]
    out = []
    for extra in picked[1:count + 1]:
        fin = sorted(algebra.finite_primes + (base, extra))
        out.append(QuaternionAlgebraQ(frozenset(
            {PlaceQ.finite(p) for p in fin}
            | ({INFINITY} if algebra.ramified_at_infinity else set()))))
    for b in out:
        for d in deltas:
            assert embeds(QuadraticField(d), b)
    return out
