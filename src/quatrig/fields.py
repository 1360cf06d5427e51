"""Quadratic fields over Q: places, splitting data, regulators, heights and
the integral-basis quantity used by the conductor bounds.

Fields are keyed by their fundamental discriminant alone; no embedding into C
is stored, so conjugate identifications are equalities of discriminants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from math import isqrt, prod

from .arith import (
    PRECISION_BITS,
    InvalidDiscriminant,
    check_fundamental,
    kronecker_symbol,
    mpmath,
    pell_fundamental,
    squarefree_kernel,
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
        check_fundamental(self.delta)

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

    index tells apart the two places over a split place of Q, and
    conjugation swaps them.  By convention index 1 is the place over the
    smaller square root of delta mod p for a split prime p (the token `p.1`),
    and the embedding with sqrt(delta) > 0 for the real place.
    """

    base: PlaceQ
    splitting: SplittingType
    index: int = 1

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
        return QuadraticPlace(self.base, self.splitting, 3 - self.index)

    def __repr__(self):
        if self.splitting is SplittingType.SPLIT:
            return f"{self.base!r}.{self.index}"
        return repr(self.base)


def places_above(field: QuadraticField, place: PlaceQ) -> tuple[QuadraticPlace, ...]:
    """The places of the field over a place of Q: one, or the two of a split
    place, index 1 first."""
    sp = splitting(field, place)
    if sp is not SplittingType.SPLIT:
        return (QuadraticPlace(place, sp),)
    return QuadraticPlace(place, sp, 1), QuadraticPlace(place, sp, 2)


def regulator(field: QuadraticField):
    """log of the fundamental (norm +-1) unit of a real quadratic field."""
    if not field.is_real:
        raise InvalidDiscriminant("regulator requires a real field")
    return pell_fundamental(field.delta, check=False).regulator()  # checked by QuadraticField


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
    with mpmath.mp.workprec(PRECISION_BITS):
        if alpha.degree == 1:
            return mpmath.mp.log(max(1, abs(alpha.n)))
        b, c = alpha.b, alpha.c
        disc = b * b - 4 * c
        if disc < 0:
            # conjugate pair of modulus sqrt(c)
            return mpmath.mp.log(max(1, mpmath.mp.mpf(c))) / 2
        s = mpmath.mp.sqrt(disc)
        r1 = (-b + s) / 2
        r2 = (-b - s) / 2
        mahler = max(1, abs(r1)) * max(1, abs(r2))
        return mpmath.mp.log(mahler) / 2


def basis_bound(field: QuadraticField):
    """B(Omega) = prod over the two embeddings of (|sigma(1)| + |sigma(omega)|)
    for the standard basis {1, omega}, omega = (b + sqrt(delta))/2 with
    b = delta mod 2."""
    d = field.delta
    b = d % 2
    with mpmath.mp.workprec(PRECISION_BITS):
        if d > 0:
            s = mpmath.mp.sqrt(d)
            w1 = (b + s) / 2
            w2 = (b - s) / 2
            return (1 + abs(w1)) * (1 + abs(w2))
        # complex embeddings: |omega| = sqrt(b^2 + |delta|)/2
        mod = mpmath.mp.sqrt(b * b - d) / 2
        return (1 + mod) ** 2


def square_subproducts(deltas):
    """The nonempty sub-tuples of the discriminants whose product is a square,
    lazily: by size, then in combinations() order."""
    deltas = tuple(deltas)
    for k in range(1, len(deltas) + 1):
        for combo in combinations(deltas, k):
            if squarefree_kernel(prod(combo)) == 1:
                yield combo


def independent_mod_squares(deltas) -> bool:
    """True when no nonempty subproduct of the discriminants is a square,
    i.e. the compositum of the fields has full degree 2^r."""
    return next(square_subproducts(deltas), None) is None
