"""The geometric dictionary: traces versus lengths, closed geodesics from
real quadratic fields, rational-equivalence classes, the maximal-order
coarea/covolume formulas, disc-versus-volume bounds, and the geometric
censuses built on the algebraic engines.

Volume formulas are implemented exactly as displayed by their sources even
where other normalizations exist in the literature; every inequality tested
downstream uses the same normalization, so the suite is self-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .arith import (
    PRECISION_BITS,
    InvalidDiscriminant,
    add_prime,
    pell_fundamental,
    shared_sieve,
    squarefree_products,
    zeta_k_at_2,
)
from .brauer import (
    QuaternionAlgebraL,
    QuaternionAlgebraQ,
    descends,
    is_restriction,
)
from .census import _embeds_mask, _nonsplit_primes, fundamental_discriminants
from .fields import QuadraticField, regulator


class NonHyperbolicTrace(ValueError):
    """|t| <= 2: elliptic or parabolic, no geodesic length."""


class DefiniteAlgebra(ValueError):
    """The algebra is ramified at the real place; no Fuchsian group."""


def length_from_trace(t) -> float:
    """Geodesic length from a hyperbolic trace: l = 2*arccosh(|t|/2)."""
    if abs(t) <= 2:
        raise NonHyperbolicTrace(f"trace {t} is not hyperbolic")
    with mp.workprec(PRECISION_BITS):
        return float(2 * mp.acosh(abs(mp.mpf(t)) / 2))


def trace_from_length(length) -> float:
    """Inverse of length_from_trace (positive branch)."""
    if length <= 0:
        raise ValueError("length must be positive")
    with mp.workprec(PRECISION_BITS):
        return float(2 * mp.cosh(mp.mpf(length) / 2))


@dataclass(frozen=True)
class GeodesicDatum:
    """A closed geodesic arising from a real quadratic order: the field
    discriminant, the norm-one Pell trace, and the resulting length.

    `length` uses the norm-one fundamental unit (the shortest geodesic in
    the field's rational class); `squared_unit_length` is the length of the
    norm-one unit u0/sigma(u0) = +-eps0^2 produced by the quotient
    construction, which is 4 * regulator in either norm case.
    """

    delta: int
    trace: int
    length: float
    squared_unit_length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("length must be positive")


def geodesic_from_field(delta: int) -> GeodesicDatum:
    if delta <= 0:
        raise InvalidDiscriminant("geodesics require a real quadratic field")
    sol = pell_fundamental(delta)
    with mp.workprec(PRECISION_BITS):
        eps1 = (sol.t1 + sol.u1 * mp.sqrt(delta)) / 2
        length = float(2 * mp.log(eps1))
        reg = regulator(QuadraticField(delta))
        datum = GeodesicDatum(delta, sol.t1, length, float(4 * reg))
    arccosh_form = length_from_trace(sol.t1)
    if abs(arccosh_form - datum.length) > 1e-9:
        raise AssertionError(
            f"length formulas disagree at delta={delta}: {arccosh_form} vs {datum.length}")
    return datum


def rational_classes(data) -> list[list[GeodesicDatum]]:
    """Partition geodesics into rational-equivalence classes.  Lengths from
    distinct real quadratic fields are never rational multiples of one
    another, so the grouping is by exact field discriminant (never by
    floating-point length ratios)."""
    groups: dict[int, list[GeodesicDatum]] = {}
    for d in data:
        groups.setdefault(d.delta, []).append(d)
    return [groups[k] for k in sorted(groups)]


# -- volume formulas ----------------------------------------------------------

@dataclass(frozen=True)
class CoareaValue:
    value: float
    disc_bound: float  # 2 pi^2 |disc(B)|


def coarea_maximal_order(algebra: QuaternionAlgebraQ | None = None, *,
                         n_k: int = 1, zeta_k2: float | None = None,
                         d_k: int = 1, ram_norms=None) -> CoareaValue:
    """Coarea of the norm-one group of a maximal order in an indefinite
    quaternion algebra: 8 pi^2 zeta_k(2) prod (|p|-1) / (4 pi^2)^{n_k}.

    Either pass an algebra over Q, or the totally-real data (n_k, zeta_k(2),
    ramified-place norms); d_k is accepted for interface completeness but the
    displayed formula does not involve it.  Also returns the 2 pi^2 |disc|
    bound, asserted to dominate the value.
    """
    if algebra is not None:
        if algebra.ramified_at_infinity:
            raise DefiniteAlgebra("coarea requires an indefinite algebra")
        n_k = 1
        zeta_k2 = math.pi ** 2 / 6
        ram_norms = algebra.finite_primes
        disc = algebra.disc_norm
    else:
        if zeta_k2 is None:
            raise ValueError("zeta_k2 required")
        ram_norms = tuple(ram_norms or ())
        disc = 1
        for q in ram_norms:
            disc *= q * q
    prod = 1.0
    for q in ram_norms:
        prod *= q - 1
    value = 8 * math.pi ** 2 * float(zeta_k2) * prod / (4 * math.pi ** 2) ** n_k
    bound = 2 * math.pi ** 2 * disc
    if value > bound * (1 + 1e-12):
        raise AssertionError(f"coarea {value} exceeds 2 pi^2 |disc| = {bound}")
    return CoareaValue(value, bound)


def covolume_kleinian(algebra_l: QuaternionAlgebraL) -> float:
    """Covolume of the norm-one group of a maximal order over an imaginary
    quadratic field: d_k^(3/2) zeta_k(2) prod (N(P)-1) / (4 pi^2)^(n_k - 1)
    with n_k = 2."""
    field = algebra_l.field
    if field.is_real:
        raise InvalidDiscriminant("Kleinian covolume requires an imaginary field")
    zk2 = float(zeta_k_at_2(field.delta))
    prod = 1.0
    for place in algebra_l.finite_places:
        prod *= place.norm - 1
    d_k = field.absolute_discriminant
    return d_k ** 1.5 * zk2 * prod / (4 * math.pi ** 2)


def minimal_covolume_cf(d_k: int, n_k: int, zeta_k2: float, ram_norms,
                        kb_index: int = 1) -> float:
    """Minimal covolume of a maximal group in the commensurability class:
    2 pi^2 zeta_k(2) d_k^(3/2) Phi / ((4 pi^2)^{n_k} [k_B : k]) where Phi is
    the product of (N(p)-1)/2 over ramified places."""
    if kb_index < 1:
        raise ValueError("kb_index must be >= 1")
    phi = 1.0
    for q in ram_norms:
        phi *= (q - 1) / 2
    return (2 * math.pi ** 2 * zeta_k2 * d_k ** 1.5 * phi
            / ((4 * math.pi ** 2) ** n_k * kb_index))


def disc_bound_from_volume(volume: float, dimension: int):
    """Upper bound for |disc(B)| of the invariant algebra of a manifold of
    the given volume: (10^93 V^13)^10 in dimension 2, 10^57 V^7 in 3."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    with mp.workprec(PRECISION_BITS):
        v = mp.mpf(volume)
        if dimension == 2:
            return (mp.mpf(10) ** 93 * v ** 13) ** 10
        if dimension == 3:
            return mp.mpf(10) ** 57 * v ** 7
    raise ValueError("dimension must be 2 or 3")


# -- censuses -----------------------------------------------------------------

@dataclass(frozen=True)
class CommensurabilityClass:
    """Wide-commensurability class of an arithmetic lattice: the invariant
    trace field (discriminant, 1 for the rationals) together with the
    invariant quaternion algebra's ramification; two classes are equal
    exactly when both coincide."""

    field_delta: int
    ramification: frozenset


def _indefinite_algebras_by_coarea_bound(prod_bound: float):
    """All indefinite quaternion algebras over Q whose ramified primes p have
    prod(p - 1) <= prod_bound, as sorted prime tuples (even cardinality)."""
    limit = max(int(prod_bound) + 1, 4)
    primes = [int(p) for p in shared_sieve(limit).primes_upto(limit)]
    return sorted(chosen for _, chosen in squarefree_products(
        primes, prod_bound, (), add_prime, lambda p: ((p - 1, None),))
        if len(chosen) % 2 == 0)


def fuchsian_classes(volume: float) -> list[CommensurabilityClass]:
    """Commensurability classes over Q with maximal-order coarea at most V,
    the coarea formula standing proxy for the class minimum."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    prod_bound = volume * 3 / math.pi ** 2
    out = [CommensurabilityClass(
        1, QuaternionAlgebraQ.from_primes(primes).ramification)
        for primes in _indefinite_algebras_by_coarea_bound(prod_bound)]
    if len(set(out)) != len(out):
        raise AssertionError("census emitted duplicate commensurability classes")
    return out


def class_census_fuchsian(volume: float) -> int:
    return len(fuchsian_classes(volume))


def class_census_with_lengths(deltas, volume: float) -> int:
    """Classes whose orbifolds carry geodesics in every field Q(sqrt(delta_i)):
    indefinite algebras admitting all the fields, with at least one finite
    ramified place, and coarea at most V."""
    from .census import check_independent

    deltas = tuple(int(d) for d in deltas)
    if deltas:
        check_independent(deltas)
        if any(d < 0 for d in deltas):
            raise InvalidDiscriminant("geodesic fields are real quadratic")
    from .arith import kronecker_symbol

    prod_bound = volume * 3 / math.pi ** 2
    count = 0
    for primes in _indefinite_algebras_by_coarea_bound(prod_bound):
        if not primes:
            continue  # geodesic existence needs a finite ramified place
        if all(kronecker_symbol(d, p) != 1 for d in deltas for p in primes):
            count += 1
    return count


@dataclass(frozen=True)
class GeodesicCensus:
    count: int
    classes: int
    max_length: float
    length_bound: float  # 2x: the n_k = 1, d_k = 1 specialization
    data: tuple[GeodesicDatum, ...]


def geodesic_census(algebra: QuaternionAlgebraQ, x: int, volume: float = 0.0,
                    const_c: float = 1.0) -> GeodesicCensus:
    """One geodesic per real quadratic field of discriminant <= x embedding
    into the (indefinite) algebra; rationally inequivalent classes are
    counted by distinct fields.  The reported length bound is the rational
    specialization 2x, scaled by e^(cV) when a volume is supplied."""
    if algebra.ramified_at_infinity:
        raise DefiniteAlgebra("geodesic census requires an indefinite algebra")
    deltas = fundamental_discriminants(x)
    mask = _embeds_mask(algebra, deltas) & (deltas > 0)
    data = tuple(geodesic_from_field(int(d)) for d in sorted(deltas[mask].tolist()))
    classes = len(rational_classes(data))
    max_len = max((d.length for d in data), default=0.0)
    bound = 2.0 * x * math.exp(const_c * volume)
    return GeodesicCensus(len(data), classes, max_len, bound, data)


@dataclass(frozen=True)
class SurfaceClass:
    algebra: QuaternionAlgebraQ
    area: float
    ggs_area_bound: float


def surface_census(algebra_l: QuaternionAlgebraL, x: int, volume: float = 1.0,
                   const_c: float = 1.0) -> list[SurfaceClass]:
    """All indefinite algebras over Q with |disc| <= x whose scalar extension
    is the given algebra, ordered by disc; each carries its coarea and the
    2 pi^2 |disc| e^(CV) area bound.  Empty when the algebra does not descend.
    Every output is re-verified through the restriction map."""
    field = algebra_l.field
    if field.is_real:
        raise InvalidDiscriminant("surface census runs over imaginary quadratic fields")
    desc = descends(algebra_l)
    if desc is None:
        return []
    base = sorted(desc)
    base_disc = 1
    for p in base:
        base_disc *= p
    if base_disc ** 2 > x:
        return []
    rest = math.isqrt(x) // base_disc
    pool = [p for p in _nonsplit_primes((field.delta,), rest) if p not in desc]
    # the added primes must make the ramified set even
    found = sorted((base_disc * q, tuple(sorted(base + list(chosen))))
                   for q, chosen in squarefree_products(pool, rest, (), add_prime)
                   if len(chosen) % 2 == len(base) % 2)
    out = []
    ecv = math.exp(const_c * volume)
    for disc, primes in found:
        b0 = QuaternionAlgebraQ.from_primes(primes)
        if not is_restriction(b0, field, algebra_l):
            raise AssertionError(f"constructed algebra {b0} fails restriction replay")
        area = coarea_maximal_order(b0).value
        out.append(SurfaceClass(b0, area, 2 * math.pi ** 2 * disc ** 2 * ecv))
    return out
