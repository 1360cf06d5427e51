import math
import random
from fractions import Fraction

import pytest

from quatrig.arith import InvalidDiscriminant, is_fundamental_discriminant
from quatrig.fields import (
    INFINITY,
    PlaceQ,
    QuadraticInteger,
    QuadraticPlace,
    SplittingType,
    basis_bound,
    height,
    independent_mod_squares,
    make_field,
    places_above,
    regulator,
    splitting,
    square_subproducts,
)


def test_make_field():
    assert make_field(-4).signature == "imaginary"
    assert make_field(5).signature == "real"
    f8 = make_field(8)
    assert f8.is_real and f8.absolute_discriminant == 8
    for bad in (45, 1, 0, -5):
        with pytest.raises(InvalidDiscriminant):
            make_field(bad)


def test_splitting_spec_values():
    qi = make_field(-4)
    assert splitting(qi, PlaceQ.finite(5)) is SplittingType.SPLIT
    assert splitting(qi, INFINITY) is SplittingType.RAMIFIED
    assert splitting(make_field(5), PlaceQ.finite(5)) is SplittingType.RAMIFIED
    assert splitting(make_field(5), INFINITY) is SplittingType.SPLIT


def test_ramified_iff_divides():
    for delta in range(-200, 200):
        if not is_fundamental_discriminant(delta):
            continue
        f = make_field(delta)
        for p in (2, 3, 5, 7, 11, 13, 101):
            ram = splitting(f, PlaceQ.finite(p)) is SplittingType.RAMIFIED
            assert ram == (delta % p == 0)


def test_places_above():
    qi = make_field(-4)
    above5 = places_above(qi, PlaceQ.finite(5))
    assert len(above5) == 2
    assert {v.norm for v in above5} == {5}
    assert [v.index for v in above5] == [1, 2]
    (above3,) = places_above(qi, PlaceQ.finite(3))
    assert above3.norm == 9 and above3.splitting is SplittingType.INERT
    real_pair = places_above(make_field(5), INFINITY)
    assert len(real_pair) == 2 and all(v.norm == 1 for v in real_pair)


def test_split_place_conjugation_involution():
    qi = make_field(-4)
    for p in (5, 13, 17, 29):
        v1, v2 = places_above(qi, PlaceQ.finite(p))
        assert v1.conjugate() == v2
        assert v2.conjugate() == v1
        assert v1.index == 1 and v2.index == 2
    (inert,) = places_above(qi, PlaceQ.finite(3))
    assert inert.conjugate() == inert


def test_quadratic_place_validation():
    with pytest.raises(ValueError):
        QuadraticPlace(PlaceQ.finite(3), SplittingType.INERT, index=2)


def test_regulator():
    assert abs(float(regulator(make_field(5))) - math.log((1 + math.sqrt(5)) / 2)) < 1e-12
    assert abs(float(regulator(make_field(8))) - math.log(1 + math.sqrt(2))) < 1e-12
    with pytest.raises(InvalidDiscriminant):
        regulator(make_field(-4))


def test_regulator_bounded_by_discriminant():
    # degree-1 analog of Reg_L <= d_L^{n_k}
    for delta in range(2, 10 ** 4 + 1):
        if is_fundamental_discriminant(delta):
            assert float(regulator(make_field(delta))) <= delta


def test_height_spec_values():
    assert abs(float(height(QuadraticInteger.rational(2))) - math.log(2)) < 1e-12
    alpha = QuadraticInteger.quadratic(-3, 1)  # (3+sqrt5)/2
    assert abs(float(height(alpha)) - 0.5 * math.log((3 + math.sqrt(5)) / 2)) < 1e-12
    assert float(height(QuadraticInteger.quadratic(0, 1))) == 0.0  # alpha = i
    with pytest.raises(ValueError):
        height(QuadraticInteger.rational(0))
    with pytest.raises(ValueError):
        QuadraticInteger.quadratic(-3, 2)  # x^2-3x+2 = (x-1)(x-2)


class _RingElement:
    """(a + b*sqrt(delta))/2 with a = b*delta mod 2, for exercising height laws."""

    def __init__(self, delta, a, b):
        self.delta, self.a, self.b = delta, Fraction(a), Fraction(b)

    def __mul__(self, other):
        assert self.delta == other.delta
        a = (self.a * other.a + self.delta * self.b * other.b) / 2
        b = (self.a * other.b + self.b * other.a) / 2
        return _RingElement(self.delta, a, b)

    def power(self, n):
        out = _RingElement(self.delta, 2, 0)  # = 1
        for _ in range(n):
            out = out * self
        return out

    def to_quadratic_integer(self):
        trace = self.a
        norm = (self.a * self.a - self.delta * self.b * self.b) / 4
        assert trace.denominator == 1 and norm.denominator == 1
        if self.b == 0:
            half = self.a / 2
            assert half.denominator == 1
            return QuadraticInteger.rational(int(half))
        return QuadraticInteger.quadratic(-int(trace), int(norm))


def _random_element(rng, delta=None):
    while True:
        if delta is None:
            d = rng.choice([x for x in range(-60, 60)
                            if x not in (0, 1) and is_fundamental_discriminant(x)])
        else:
            d = delta
        if d % 2 == 1:
            a = rng.randint(-6, 6)
            b = rng.choice([x for x in range(-6, 7) if (x - a) % 2 == 0])
        else:
            a, b = 2 * rng.randint(-3, 3), rng.randint(-6, 6)
        el = _RingElement(d, a, b)
        if el.b != 0:
            return el


def test_height_power_law():
    rng = random.Random(17)
    for _ in range(200):
        el = _random_element(rng)
        h1 = float(height(el.to_quadratic_integer()))
        for n in range(1, 6):
            pw = el.power(n)
            if pw.b == 0 and pw.a == 0:
                continue
            hn = float(height(pw.to_quadratic_integer()))
            assert abs(hn - n * h1) < 1e-10


def test_height_product_subadditive():
    rng = random.Random(23)
    for _ in range(200):
        a = _random_element(rng)
        b = _random_element(rng, delta=a.delta)
        prod = a * b
        if prod.a == 0 and prod.b == 0:
            continue
        ha = float(height(a.to_quadratic_integer()))
        hb = float(height(b.to_quadratic_integer()))
        hp = float(height(prod.to_quadratic_integer() if prod.b != 0
                          else prod.to_quadratic_integer()))
        assert hp <= ha + hb + 1e-10


def test_conjugates_equal_height_exactly():
    # conjugates share the minimal polynomial, so equality is structural
    alpha = QuadraticInteger.quadratic(-3, 1)
    beta = QuadraticInteger.quadratic(-3, 1)
    assert float(height(alpha)) == float(height(beta))


def test_basis_bound_spec_values():
    assert abs(float(basis_bound(make_field(-4))) - 4) < 1e-12
    assert 4 <= 2 ** 8 * 4 ** 2
    phi = (1 + math.sqrt(5)) / 2
    assert abs(float(basis_bound(make_field(5))) - (1 + phi) * (1 + phi - 1)) < 1e-9
    assert abs(float(basis_bound(make_field(8))) - (1 + math.sqrt(2)) ** 2) < 1e-9


def test_basis_bound_dominated():
    # B(Omega) <= 2^(n^3) d^n with n = 2
    for delta in (-4, -3, 5, 8, -163, 997):
        b = float(basis_bound(make_field(delta)))
        assert b <= 2 ** 8 * delta ** 2


def test_independent_mod_squares():
    assert independent_mod_squares([-4, 5])
    assert independent_mod_squares([-3, 5, -7])
    assert not independent_mod_squares([-3, -3])
    assert not independent_mod_squares([-3, 5, -15])


def test_square_subproducts():
    assert list(square_subproducts(())) == []
    assert list(square_subproducts((-4, 5))) == []
    assert list(square_subproducts((-3, -3))) == [(-3, -3)]
    assert list(square_subproducts((-3, 5, -15))) == [(-3, 5, -15)]
    assert list(square_subproducts((5, 5, 13))) == [(5, 5)]


def test_square_subproducts_stops_at_the_first_square(monkeypatch):
    from quatrig import fields

    calls = []
    kernel = fields.squarefree_kernel
    monkeypatch.setattr(fields, "squarefree_kernel", lambda n: calls.append(n) or kernel(n))
    deltas = [5, 5] + [p for p in range(13, 400, 4) if all(p % d for d in range(2, p))][:18]
    assert len(deltas) == 20
    assert not independent_mod_squares(deltas)
    # the 20 single fields, then the pair (5, 5): never the 2^20 subproducts
    assert len(calls) == 21
