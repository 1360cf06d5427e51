"""Quadratic fields over Q: places, splitting data, regulators, heights and
the integral-basis quantity used by the conductor bounds.

Fields are keyed by their fundamental discriminant alone; no embedding into C
is stored, so conjugate identifications are equalities of discriminants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt, prod

from mpmath import mp

from .arith import (
    PRECISION_BITS,
    InvalidDiscriminant,
    is_fundamental_discriminant,
    kronecker_symbol,
    pell_fundamental,
)


class SplittingType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class PlaceQ:
    """A place of Q: a finite prime, or the real place (norm 1 by convention)."""

    p: int | None  # None marks the real place

    def __post_init__(self):
        if self.p is not None and self.p < 2:
            raise ValueError(f"{self.p} is not a prime")

    @classmethod
    def infinity(cls) -> "PlaceQ":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "PlaceQ":
        return cls(p)

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    @property
    def norm(self) -> int:
        return 1 if self.p is None else self.p

    def __lt__(self, other):
        # finite places ascending, the real place last
        a = self.p if self.p is not None else float("inf")
        b = other.p if other.p is not None else float("inf")
        return a < b

    def __repr__(self):
        return "inf" if self.p is None else str(self.p)


INFINITY = PlaceQ.infinity()


@dataclass(frozen=True)
class QuadraticField:
    """Quadratic field of fundamental discriminant delta (delta != 0, 1)."""

    delta: int

    def __post_init__(self):
        if not is_fundamental_discriminant(self.delta):
            raise InvalidDiscriminant(f"{self.delta} is not a fundamental discriminant")

    @property
    def is_real(self) -> bool:
        return self.delta > 0

    @property
    def signature(self) -> str:
        return "real" if self.delta > 0 else "imaginary"

    @property
    def absolute_discriminant(self) -> int:
        return abs(self.delta)

    def __repr__(self):
        m = self.delta // 4 if self.delta % 4 == 0 else self.delta
        return f"Q(sqrt({m}))"


def make_field(delta: int) -> QuadraticField:
    return QuadraticField(delta)


def splitting(field: QuadraticField, place: PlaceQ) -> SplittingType:
    """Splitting of a place of Q in the field: the Kronecker symbol decides
    finite primes; the real place splits for real fields and ramifies (turns
    complex) for imaginary ones."""
    if place.is_infinite:
        return SplittingType.SPLIT if field.delta > 0 else SplittingType.RAMIFIED
    k = kronecker_symbol(field.delta, place.p)
    if k == 1:
        return SplittingType.SPLIT
    if k == -1:
        return SplittingType.INERT
    return SplittingType.RAMIFIED


@dataclass(frozen=True)
class QuadraticPlace:
    """A place of a quadratic field lying over a place of Q.

    index distinguishes the two factors of a split place; for a split finite
    prime p, index 1 carries the smaller square root of delta mod p in
    [0, p/2] (label), so descent data is reproducible.
    """

    base: PlaceQ
    splitting: SplittingType
    index: int = 1
    label: int | None = None

    def __post_init__(self):
        if self.index not in (1, 2):
            raise ValueError("index must be 1 or 2")
        if self.index == 2 and self.splitting is not SplittingType.SPLIT:
            raise ValueError("index 2 only occurs at split places")

    @property
    def norm(self) -> int:
        if self.base.is_infinite:
            return 1
        if self.splitting is SplittingType.INERT:
            return self.base.p ** 2
        return self.base.p

    def conjugate(self) -> "QuadraticPlace":
        if self.splitting is not SplittingType.SPLIT:
            return self
        other = 2 if self.index == 1 else 1
        lbl = None
        if self.label is not None and not self.base.is_infinite:
            lbl = (self.base.p - self.label) % self.base.p if self.base.p > 2 else self.label
        return QuadraticPlace(self.base, self.splitting, other, lbl)

    def __repr__(self):
        tag = "inf" if self.base.is_infinite else str(self.base.p)
        if self.splitting is SplittingType.SPLIT:
            return f"{tag}.{self.index}"
        return tag


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod an odd prime p (Tonelli-Shanks); requires a to
    be a quadratic residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def split_root_label(field: QuadraticField, p: int) -> int:
    """The smaller square root of delta mod p in [0, p/2], used to label
    index 1 of a split prime."""
    if p == 2:
        return 1
    r = sqrt_mod(field.delta, p)
    return min(r, p - r)


def places_above(field: QuadraticField, place: PlaceQ) -> tuple[QuadraticPlace, ...]:
    """The places of the field over a place of Q, with deterministic labels."""
    sp = splitting(field, place)
    if sp is not SplittingType.SPLIT:
        return (QuadraticPlace(place, sp),)
    # two real places of a real field, ordered by the sign of sqrt(delta), or
    # two primes over a split p, index 1 carrying the smaller root label
    label = None if place.is_infinite else split_root_label(field, place.p)
    first = QuadraticPlace(place, sp, 1, label)
    return first, first.conjugate()


def regulator(field: QuadraticField):
    """log of the fundamental (norm +-1) unit of a real quadratic field."""
    if not field.is_real:
        raise InvalidDiscriminant("regulator requires a real field")
    return pell_fundamental(field.delta).regulator()


@dataclass(frozen=True)
class QuadraticInteger:
    """An algebraic integer of degree <= 2: a rational integer, or the root
    of a monic irreducible x^2 + b*x + c over Z."""

    b: int | None = None
    c: int | None = None
    n: int | None = None

    @classmethod
    def rational(cls, n: int) -> "QuadraticInteger":
        return cls(n=n)

    @classmethod
    def quadratic(cls, b: int, c: int) -> "QuadraticInteger":
        disc = b * b - 4 * c
        r = isqrt(abs(disc))
        if disc >= 0 and r * r == disc:
            raise ValueError("x^2 + bx + c is reducible over Q")
        return cls(b=b, c=c)

    @property
    def degree(self) -> int:
        return 1 if self.n is not None else 2

    def is_zero(self) -> bool:
        return self.n == 0


def height(alpha: QuadraticInteger):
    """Absolute logarithmic height: (1/deg) * log of the Mahler measure of
    the minimal polynomial."""
    if alpha.is_zero():
        raise ValueError("height of zero is undefined")
    with mp.workprec(PRECISION_BITS):
        if alpha.degree == 1:
            return mp.log(max(1, abs(alpha.n)))
        b, c = alpha.b, alpha.c
        disc = b * b - 4 * c
        if disc < 0:
            # conjugate pair of modulus sqrt(c)
            return mp.log(max(1, mp.mpf(c))) / 2
        s = mp.sqrt(disc)
        r1 = (-b + s) / 2
        r2 = (-b - s) / 2
        mahler = max(1, abs(r1)) * max(1, abs(r2))
        return mp.log(mahler) / 2


def basis_bound(field: QuadraticField):
    """B(Omega) = prod over the two embeddings of (|sigma(1)| + |sigma(omega)|)
    for the standard basis {1, omega}, omega = (b + sqrt(delta))/2 with
    b = delta mod 2."""
    d = field.delta
    b = d % 2
    with mp.workprec(PRECISION_BITS):
        if d > 0:
            s = mp.sqrt(d)
            w1 = (b + s) / 2
            w2 = (b - s) / 2
            return (1 + abs(w1)) * (1 + abs(w2))
        # complex embeddings: |omega| = sqrt(b^2 + |delta|)/2
        mod = mp.sqrt(b * b - d) / 2
        return (1 + mod) ** 2


def independent_mod_squares(deltas) -> bool:
    """True when no nonempty subproduct of the discriminants is a square,
    i.e. the compositum of the fields has full degree 2^r."""
    from itertools import combinations

    from .arith import squarefree_kernel

    ds = list(deltas)
    for k in range(1, len(ds) + 1):
        for combo in combinations(ds, k):
            if squarefree_kernel(prod(combo)) == 1:
                return False
    return True
