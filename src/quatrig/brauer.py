"""Central simple algebras over Q as Hasse-invariant data, and quaternion
algebras over Q and over quadratic fields.

An algebra is identified with its local invariant map; no structure constants
are ever computed, since every operation here factors through that data:
construction, discriminants, tensor/opposite, scalar restriction to a
quadratic field, the maximal-subfield embedding criterion, and the descent
criterion recognizing restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .arith import factorize
from .fields import (
    INFINITY,
    PlaceQ,
    QuadraticField,
    QuadraticPlace,
    SplittingType,
    places_above,
    splitting,
)


class InvalidAlgebra(ValueError):
    """Hasse data violates one of the existence conditions."""


class DegreeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class CentralSimpleAlgebraQ:
    """A central simple algebra over Q given by its degree and its finite-
    support map of local invariants (reduced fractions in (0,1))."""

    degree: int
    invariant_items: tuple[tuple[PlaceQ, Fraction], ...]

    @property
    def invariants(self) -> dict[PlaceQ, Fraction]:
        return dict(self.invariant_items)

    @property
    def division_degree(self) -> int:
        return lcm(*(f.denominator for _, f in self.invariant_items))

    @property
    def is_division(self) -> bool:
        return self.division_degree == self.degree

    def __repr__(self):
        inv = ", ".join(f"{v}:{f}" for v, f in self.invariant_items)
        return f"CSA(n={self.degree}, {{{inv}}})"


def make_csa(n: int, assignments: dict[PlaceQ, Fraction]) -> CentralSimpleAlgebraQ:
    """Validate Hasse data and build the algebra.  Raises InvalidAlgebra when
    some denominator does not divide n, the real invariant is not 1/2, or the
    invariant sum is not an integer."""
    if n < 1:
        raise InvalidAlgebra("degree must be >= 1")
    items = []
    total = Fraction(0)
    for place, frac in assignments.items():
        frac = Fraction(frac)
        if not 0 < frac < 1:
            raise InvalidAlgebra(f"invariant {frac} at {place} not in (0,1)")
        if n % frac.denominator != 0:
            raise InvalidAlgebra(f"denominator {frac.denominator} does not divide degree {n}")
        if place.is_infinite and frac != Fraction(1, 2):
            raise InvalidAlgebra(f"real invariant must be 1/2, got {frac}")
        items.append((place, frac))
        total += frac
    if total.denominator != 1:
        raise InvalidAlgebra(f"invariant sum {total} is not an integer")
    items.sort(key=lambda it: it[0])
    return CentralSimpleAlgebraQ(n, tuple(items))


def disc_norm(algebra: CentralSimpleAlgebraQ) -> int:
    """|disc(A)| = product over ramified finite p of p^(n^2(1-1/m_p)); the
    real place contributes norm 1."""
    n = algebra.degree
    return prod(place.p ** (n * n - n * n // frac.denominator)
                for place, frac in algebra.invariant_items if not place.is_infinite)


def opposite(algebra: CentralSimpleAlgebraQ) -> CentralSimpleAlgebraQ:
    inv = {v: Fraction(f.denominator - f.numerator, f.denominator)
           for v, f in algebra.invariant_items}
    return make_csa(algebra.degree, inv)


def tensor_class(a1: CentralSimpleAlgebraQ, a2: CentralSimpleAlgebraQ) -> CentralSimpleAlgebraQ:
    """Brauer class of a1 (x) a2: invariant maps add mod 1, zeros drop.
    Returns the division-algebra representative of the class."""
    combined: dict[PlaceQ, Fraction] = {}
    for v, f in list(a1.invariant_items) + list(a2.invariant_items):
        combined[v] = (combined.get(v, Fraction(0)) + f) % 1
    combined = {v: f for v, f in combined.items() if f != 0}
    return make_csa(lcm(*(f.denominator for f in combined.values())), combined)


def iso(a1: CentralSimpleAlgebraQ, a2: CentralSimpleAlgebraQ) -> bool:
    """Isomorphism test: the invariant map is a complete invariant for a
    fixed degree."""
    if a1.degree != a2.degree:
        raise DegreeMismatch(f"degrees {a1.degree} and {a2.degree} differ")
    return a1.invariant_items == a2.invariant_items


# -- quaternion algebras over Q --------------------------------------------

@dataclass(frozen=True)
class QuaternionAlgebraQ:
    """Quaternion algebra over Q: an even-cardinality set of ramified places,
    each carrying invariant 1/2.  The empty set is admitted (the matrix
    algebra); division-only filters are applied by callers."""

    ramification: frozenset[PlaceQ]

    def __post_init__(self):
        if len(self.ramification) % 2 != 0:
            raise InvalidAlgebra("quaternion ramification sets have even cardinality")

    @classmethod
    def from_primes(cls, finite_primes, include_infinity: bool = False) -> "QuaternionAlgebraQ":
        places = {PlaceQ.finite(p) for p in finite_primes}
        if include_infinity:
            places.add(INFINITY)
        return cls(frozenset(places))

    @property
    def finite_primes(self) -> tuple[int, ...]:
        return tuple(sorted(v.p for v in self.ramification if not v.is_infinite))

    @property
    def ramified_at_infinity(self) -> bool:
        return INFINITY in self.ramification

    @property
    def reduced_discriminant(self) -> int:
        return prod(self.finite_primes)

    @property
    def disc_norm(self) -> int:
        return self.reduced_discriminant ** 2

    @property
    def is_division(self) -> bool:
        return bool(self.ramification)

    def as_csa(self) -> CentralSimpleAlgebraQ:
        return make_csa(2, {v: Fraction(1, 2) for v in self.ramification})

    def __repr__(self):
        return f"B({format_ram_set(self.ramification)})" if self.ramification else "M(2,Q)"


def quaternion_iso(b1: QuaternionAlgebraQ, b2: QuaternionAlgebraQ) -> bool:
    return b1.ramification == b2.ramification


def embeds(field: QuadraticField, algebra: QuaternionAlgebraQ) -> bool:
    """Albert-Brauer-Hasse-Noether embedding criterion: the field embeds as a
    maximal subfield exactly when no ramified place of the algebra splits."""
    return all(splitting(field, v) is not SplittingType.SPLIT
               for v in algebra.ramification)


# -- quaternion algebras over quadratic fields -----------------------------

@dataclass(frozen=True)
class QuaternionAlgebraL:
    """Quaternion algebra over a quadratic field, as its ramified places.
    Complex places never ramify; for a real field the two real places may
    carry invariant 1/2."""

    field: QuadraticField
    ramification: frozenset[QuadraticPlace]

    def __post_init__(self):
        if len(self.ramification) % 2 != 0:
            raise InvalidAlgebra("ramification sets have even cardinality")
        for place in self.ramification:
            if place.base.is_infinite and not self.field.is_real:
                raise InvalidAlgebra("complex places cannot ramify")

    @property
    def finite_places(self) -> frozenset[QuadraticPlace]:
        return frozenset(v for v in self.ramification if not v.base.is_infinite)

    @property
    def infinite_places(self) -> frozenset[QuadraticPlace]:
        return frozenset(v for v in self.ramification if v.base.is_infinite)

    @property
    def is_split(self) -> bool:
        return not self.ramification

    def __repr__(self):
        return f"B_{self.field}({format_ram_set_l(self.ramification)})"


def restrict(algebra: QuaternionAlgebraQ, field: QuadraticField) -> QuaternionAlgebraL:
    """Scalar extension to the quadratic field: the local invariant at a
    place over p is the local degree times 1/2 mod 1, so only split places
    (local degree 1) survive; inert and ramified primes kill the invariant,
    and the real place survives exactly when the field is real."""
    ram: set[QuadraticPlace] = set()
    for v in algebra.ramification:
        above = places_above(field, v)
        if len(above) == 2:  # a split place
            ram.update(above)
    return QuaternionAlgebraL(field, frozenset(ram))


def descends(algebra_l: QuaternionAlgebraL) -> frozenset[int] | None:
    """Descent criterion.  Returns the set of rational primes {p_j} when the
    finite ramification is a union of full conjugate pairs over split primes
    and the infinite ramification is conjugation-stable; otherwise None.  The
    set may be empty (split algebras descend trivially)."""
    inf = algebra_l.infinite_places
    if algebra_l.field.is_real and len(inf) == 1:
        return None  # a single ramified real place is never a restriction
    by_prime: dict[int, set[int]] = {}
    for place in algebra_l.finite_places:
        if place.splitting is not SplittingType.SPLIT:
            return None
        by_prime.setdefault(place.base.p, set()).add(place.index)
    for indices in by_prime.values():
        if indices != {1, 2}:
            return None
    return frozenset(by_prime)


def is_restriction(b0: QuaternionAlgebraQ, field: QuadraticField,
                   algebra_l: QuaternionAlgebraL) -> bool:
    """True when b0 (x) L has the same ramification set as the given algebra."""
    if algebra_l.field != field:
        raise ValueError("algebra is not defined over the given field")
    return restrict(b0, field).ramification == algebra_l.ramification


# -- ramification-set text format ------------------------------------------

def _place_tokens(text: str, indexed: bool):
    """(place of Q, index or None) for each comma-separated token: `inf` or a
    prime in ASCII digits, followed by `.1` or `.2` when indexed allows it."""
    text = text.strip()
    if not text:
        return
    for token in text.split(","):
        token = token.strip()
        head, dot, index = token.partition(".")
        if dot and (not indexed or index not in ("1", "2")):
            raise ValueError(f"malformed place token {token!r}")
        if head == "inf":
            base = INFINITY
        else:
            if not (head.isascii() and head.isdigit()):
                raise ValueError(f"malformed place token {token!r}")
            p = int(head)
            if p < 2 or factorize(p) != [(p, 1)]:
                raise ValueError(f"{p} is not a prime")
            base = PlaceQ.finite(p)
        yield base, int(index) if dot else None


def parse_ram_set(text: str) -> QuaternionAlgebraQ:
    """Parse the comma-separated place list of a quaternion algebra over Q:
    `inf` for the real place, a prime for a finite place.  An empty string
    gives the matrix algebra."""
    return QuaternionAlgebraQ(frozenset(base for base, _ in _place_tokens(text, False)))


def format_ram_set(places) -> str:
    return ",".join(map(repr, sorted(places)))


def parse_ram_set_l(text: str, field: QuadraticField) -> QuaternionAlgebraL:
    """Parse places of a quadratic field: `p` for an inert or ramified prime,
    `p.1`/`p.2` for the factors of a split prime, `inf.1`/`inf.2` for the
    real places of a real field."""
    places: set[QuadraticPlace] = set()
    for base, index in _place_tokens(text, True):
        above = places_above(field, base)
        if index is None and len(above) != 1:
            raise ValueError(f"{base} is split in {field}; use {base}.1/{base}.2")
        if index is not None and len(above) != 2:
            raise ValueError(f"{base} is not split in {field}")
        places.add(above[(index or 1) - 1])
    return QuaternionAlgebraL(field, frozenset(places))


def format_ram_set_l(places) -> str:
    return ",".join(map(repr, sorted(places, key=lambda v: (v.base, v.index))))
