from fractions import Fraction

import pytest

from quatrig.arith import is_fundamental_discriminant
from quatrig.brauer import (
    DegreeMismatch,
    InvalidAlgebra,
    QuaternionAlgebraL,
    QuaternionAlgebraQ,
    descends,
    disc_norm,
    embeds,
    format_ram_set,
    is_restriction,
    iso,
    make_csa,
    opposite,
    parse_ram_set,
    parse_ram_set_l,
    restrict,
    tensor_class,
)
from quatrig.fields import INFINITY, PlaceQ, QuadraticField, SplittingType, make_field, splitting


def _alg(n, assignments):
    return make_csa(n, {PlaceQ.finite(p) if p != "inf" else INFINITY: Fraction(*f)
                        for p, f in assignments.items()})


def test_make_csa_spec_values():
    m2 = make_csa(2, {})
    assert m2.division_degree == 1
    hamilton = _alg(2, {2: (1, 2), "inf": (1, 2)})
    assert hamilton.division_degree == 2
    with pytest.raises(InvalidAlgebra):
        _alg(3, {2: (1, 3)})  # invariant sum 1/3 not integral
    with pytest.raises(InvalidAlgebra):
        _alg(3, {2: (1, 2), 3: (1, 2)})  # 2 does not divide 3
    with pytest.raises(InvalidAlgebra):
        _alg(2, {2: (1, 2), "inf": (1, 2), 3: (0, 2)})  # zero invariant


def test_bad_real_invariant():
    with pytest.raises(InvalidAlgebra):
        make_csa(4, {INFINITY: Fraction(1, 4), PlaceQ.finite(2): Fraction(3, 4)})


def test_disc_norm():
    assert disc_norm(make_csa(2, {})) == 1
    assert disc_norm(_alg(2, {2: (1, 2), "inf": (1, 2)})) == 4
    assert disc_norm(_alg(3, {2: (1, 3), 3: (2, 3)})) == 6 ** 6


def test_opposite_and_tensor():
    b = _alg(2, {2: (1, 2), "inf": (1, 2)})
    assert iso(opposite(b), b)
    a3 = _alg(3, {2: (1, 3), 3: (2, 3)})
    opp = opposite(a3)
    assert opp.invariants[PlaceQ.finite(2)] == Fraction(2, 3)
    assert not iso(a3, opp)
    triv = tensor_class(a3, opp)
    assert triv.division_degree == 1 and not triv.invariant_items
    with pytest.raises(DegreeMismatch):
        iso(a3, b)


def test_iso_quaternions():
    assert iso(_alg(2, {2: (1, 2), "inf": (1, 2)}), _alg(2, {2: (1, 2), "inf": (1, 2)}))
    assert not iso(_alg(2, {2: (1, 2), "inf": (1, 2)}), _alg(2, {3: (1, 2), "inf": (1, 2)}))


def test_quaternion_type():
    b = QuaternionAlgebraQ.from_primes([2, 3])
    assert b.reduced_discriminant == 6 and b.disc_norm == 36
    with pytest.raises(InvalidAlgebra):
        QuaternionAlgebraQ.from_primes([2], include_infinity=False)
    m2 = QuaternionAlgebraQ(frozenset())
    assert not m2.is_division and m2.disc_norm == 1


def test_restrict_spec_values():
    qi = make_field(-4)
    assert restrict(parse_ram_set("3,inf"), qi).is_split
    r = restrict(parse_ram_set("2,5"), qi)
    assert {v.base.p for v in r.ramification} == {5}
    assert len(r.ramification) == 2
    r5 = restrict(parse_ram_set("2,inf"), make_field(5))
    assert all(v.base.is_infinite for v in r5.ramification)
    assert len(r5.ramification) == 2


def test_embeds_spec_values():
    b = parse_ram_set("2,inf")
    assert embeds(make_field(-4), b)
    assert not embeds(make_field(5), b)
    assert not embeds(make_field(-7), b)


def test_descends_spec_values():
    qi = make_field(-4)
    both5 = parse_ram_set_l("5.1,5.2", qi)
    assert descends(both5) == frozenset({5})
    mixed = parse_ram_set_l("3,5.1", qi)
    assert descends(mixed) is None
    assert descends(QuaternionAlgebraL(qi, frozenset())) == frozenset()


def test_descends_real_field_patterns():
    f = make_field(5)
    both_real = parse_ram_set_l("inf.1,inf.2", f)
    assert descends(both_real) == frozenset()
    one_real = parse_ram_set_l("inf.1,13", f)  # 13 is inert in Q(sqrt 5)
    assert descends(one_real) is None


def test_is_restriction_spec_values():
    qi = make_field(-4)
    bl = restrict(parse_ram_set("2,5"), qi)
    assert is_restriction(parse_ram_set("2,5"), qi, bl)
    # 13 = 1 mod 4 splits in Q(i), so the restriction also ramifies over 13
    assert not is_restriction(parse_ram_set("5,13"), qi, bl)
    assert is_restriction(parse_ram_set("5,7"), qi, bl)
    with pytest.raises(ValueError):
        is_restriction(parse_ram_set("5,7"), make_field(-8), bl)


def test_ram_set_text_roundtrip():
    for text in ("", "2,inf", "2,3", "2,3,5,inf"):
        b = parse_ram_set(text)
        assert format_ram_set(b.ramification) == text
    with pytest.raises(ValueError):
        parse_ram_set("4,inf")
    with pytest.raises(ValueError):
        parse_ram_set("x")
    qi = make_field(-4)
    bl = parse_ram_set_l("5.1,5.2", qi)
    assert len(bl.ramification) == 2
    with pytest.raises(ValueError):
        parse_ram_set_l("5", qi)  # 5 splits: must name the factor
    with pytest.raises(ValueError):
        parse_ram_set_l("3.1,3.2", qi)  # 3 is inert


def test_no_complex_ramification():
    qi = make_field(-4)
    from quatrig.fields import QuadraticPlace

    complex_place = QuadraticPlace(INFINITY, SplittingType.RAMIFIED)
    (inert3,) = __import__("quatrig.fields", fromlist=["places_above"]).places_above(
        qi, PlaceQ.finite(3))
    with pytest.raises(InvalidAlgebra):
        QuaternionAlgebraL(qi, frozenset({complex_place, inert3}))
    with pytest.raises(ValueError):
        parse_ram_set_l("inf.1,inf.2", qi)  # no real places to name


def test_abhn_triple_equivalence_small(brute_quaternion_algebras):
    # module-scale version; the acceptance suite runs the full range
    algebras = brute_quaternion_algebras(900)
    deltas = [d for d in range(-80, 80) if is_fundamental_discriminant(d)]
    for b in algebras:
        for d in deltas:
            f = QuadraticField(d)
            via_embeds = embeds(f, b)
            via_restrict = restrict(b, f).is_split
            via_scan = all(splitting(f, v) is not SplittingType.SPLIT
                           for v in b.ramification)
            assert via_embeds == via_restrict == via_scan


def test_descent_roundtrip_small(brute_quaternion_algebras):
    algebras = brute_quaternion_algebras(900)
    deltas = [d for d in range(-60, 60) if is_fundamental_discriminant(d)]
    for b in algebras:
        for d in deltas:
            f = QuadraticField(d)
            bl = restrict(b, f)
            got = descends(bl)
            expected = frozenset(p for p in b.finite_primes
                                 if splitting(f, PlaceQ.finite(p)) is SplittingType.SPLIT)
            assert got == expected
            assert is_restriction(b, f, bl)


def test_invariant_sum_and_disc_structure():
    from quatrig.arith import kronecker_symbol

    for alg in (_alg(2, {2: (1, 2), "inf": (1, 2)}),
                _alg(3, {2: (1, 3), 3: (2, 3)}),
                _alg(4, {2: (1, 4), 3: (1, 4), 5: (1, 2)}),
                _alg(6, {2: (1, 6), 3: (5, 6)})):
        total = sum(f for _, f in alg.invariant_items)
        assert total.denominator == 1
        d = disc_norm(alg)
        n = alg.degree
        for place, frac in alg.invariant_items:
            if place.is_infinite:
                continue
            e = n * n - n * n // frac.denominator
            assert d % place.p ** e == 0


def test_quaternion_self_opposite(brute_quaternion_algebras):
    for b in brute_quaternion_algebras(400):
        csa = b.as_csa()
        assert iso(csa, opposite(csa))
