import math

import pytest

from quatrig.arith import InvalidDiscriminant, is_fundamental_discriminant, zeta_k_at_2
from quatrig.brauer import QuaternionAlgebraL, parse_ram_set, parse_ram_set_l
from quatrig.fields import make_field
from quatrig.geometry import (
    DefiniteAlgebra,
    NonHyperbolicTrace,
    class_census_fuchsian,
    class_census_with_lengths,
    coarea_maximal_order,
    covolume_kleinian,
    disc_bound_from_volume,
    geodesic_census,
    geodesic_from_field,
    length_from_trace,
    minimal_covolume_cf,
    rational_classes,
    surface_census,
    trace_from_length,
)


def test_length_from_trace():
    assert abs(length_from_trace(3) - 2 * math.acosh(1.5)) < 1e-12
    assert f"{length_from_trace(3):.9f}" == "1.924847300"
    ell = 1.0
    assert abs(length_from_trace(trace_from_length(ell)) - ell) < 1e-12
    for bad in (2, -2, 1.5, 0):
        with pytest.raises(NonHyperbolicTrace):
            length_from_trace(bad)


def test_geodesic_from_field_spec_values():
    g5 = geodesic_from_field(5)
    assert g5.trace == 3
    assert abs(g5.length - 2 * math.log((3 + math.sqrt(5)) / 2)) < 1e-9
    g8 = geodesic_from_field(8)
    assert g8.trace == 6
    assert abs(g8.length - 2 * math.log(3 + 2 * math.sqrt(2))) < 1e-9
    g12 = geodesic_from_field(12)
    assert g12.trace == 4
    assert abs(g12.length - 2 * math.log(2 + math.sqrt(3))) < 1e-9
    with pytest.raises(InvalidDiscriminant):
        geodesic_from_field(-4)


def test_squared_unit_length():
    from quatrig.fields import regulator

    for delta in (5, 8, 12, 13, 61):
        g = geodesic_from_field(delta)
        assert abs(g.squared_unit_length - 4 * float(regulator(make_field(delta)))) < 1e-9


def test_length_consistency_sample():
    for delta in range(2, 2000):
        if is_fundamental_discriminant(delta):
            g = geodesic_from_field(delta)  # raises internally on >1e-9 mismatch
            assert g.length > 0


def test_rational_classes():
    g5, g8 = geodesic_from_field(5), geodesic_from_field(8)
    assert len(rational_classes([g5, g8])) == 2
    assert len(rational_classes([g5, g5])) == 1
    assert rational_classes([]) == []


def test_coarea_spec_values():
    res = coarea_maximal_order(parse_ram_set("2,3"))
    assert abs(res.value - 2 * math.pi ** 2 / 3) < 1e-12
    assert res.value <= res.disc_bound
    assert res.disc_bound == pytest.approx(2 * math.pi ** 2 * 36)
    split = coarea_maximal_order(parse_ram_set(""))
    assert abs(split.value - math.pi ** 2 / 3) < 1e-12
    with pytest.raises(DefiniteAlgebra):
        coarea_maximal_order(parse_ram_set("2,inf"))


def test_coarea_bound_sweep():
    from quatrig.rigidity import _all_quaternion_algebras

    for b in _all_quaternion_algebras(10 ** 6):
        if b.ramified_at_infinity:
            continue
        res = coarea_maximal_order(b)
        assert res.value <= res.disc_bound


def test_coarea_totally_real_data():
    res = coarea_maximal_order(n_k=1, zeta_k2=math.pi ** 2 / 6, ram_norms=(2, 3))
    assert abs(res.value - 2 * math.pi ** 2 / 3) < 1e-12


def test_covolume_kleinian():
    qi = make_field(-4)
    bl = parse_ram_set_l("5.1,5.2", qi)
    expected = 8 * float(zeta_k_at_2(-4)) * 16 / (4 * math.pi ** 2)
    assert abs(covolume_kleinian(bl) - expected) < 1e-9
    split = covolume_kleinian(QuaternionAlgebraL(qi, frozenset()))
    assert abs(split - 8 * float(zeta_k_at_2(-4)) / (4 * math.pi ** 2)) < 1e-9
    # monotone: a ramified pair multiplies the value by (N(p)-1)^2
    assert covolume_kleinian(bl) == pytest.approx(split * 16)
    with pytest.raises(InvalidDiscriminant):
        covolume_kleinian(QuaternionAlgebraL(make_field(5), frozenset()))


def test_minimal_covolume_cf():
    zk2 = float(zeta_k_at_2(-4))
    v = minimal_covolume_cf(4, 2, zk2, [5, 5], 1)
    expected = 2 * math.pi ** 2 * zk2 * 8 * 4 / (4 * math.pi ** 2) ** 2
    assert abs(v - expected) < 1e-12
    assert minimal_covolume_cf(4, 2, zk2, [], 1) == pytest.approx(
        2 * math.pi ** 2 * zk2 * 8 / (4 * math.pi ** 2) ** 2)
    assert minimal_covolume_cf(4, 2, zk2, [5, 5], 2) == pytest.approx(v / 2)


def test_disc_bound_from_volume():
    from mpmath import mp

    assert float(disc_bound_from_volume(1, 3)) == pytest.approx(1e57)
    assert float(disc_bound_from_volume(10, 3)) == pytest.approx(1e64)
    b2 = disc_bound_from_volume(1, 2)
    assert float(mp.log10(b2)) == pytest.approx(930.0)


def test_class_census_fuchsian():
    assert class_census_fuchsian(math.pi ** 2 / 3) == 1
    assert class_census_fuchsian(2 * math.pi ** 2 / 3) == 2
    assert class_census_fuchsian(math.pi ** 2 / 3 * 0.99) == 0
    assert class_census_fuchsian(50) >= class_census_fuchsian(10)


def test_class_census_with_lengths():
    assert class_census_with_lengths([5], 10.0) == 1  # ram {2,3}
    assert class_census_with_lengths([5], 5.0) == 0
    # no field constraint: all classes with a finite ramified place
    v = 40.0
    assert class_census_with_lengths([], v) == class_census_fuchsian(v) - 1
    assert class_census_with_lengths([5], 100.0) >= class_census_with_lengths([5], 10.0)


def test_geodesic_census():
    b = parse_ram_set("2,3")
    res = geodesic_census(b, 40)
    assert [d.delta for d in res.data] == [5, 8, 12, 21, 24, 29]
    assert res.count == res.classes == 6
    assert res.length_bound == 80.0
    assert res.max_length > 0
    all_fields = geodesic_census(parse_ram_set(""), 40)
    assert all_fields.count == sum(
        1 for d in range(2, 41) if is_fundamental_discriminant(d))
    with pytest.raises(DefiniteAlgebra):
        geodesic_census(parse_ram_set("2,inf"), 40)


def test_surface_census_spec_values():
    qi = make_field(-4)
    bl = parse_ram_set_l("5.1,5.2", qi)
    rows = surface_census(bl, 10 ** 4)
    assert [r.algebra.finite_primes for r in rows] == [
        (2, 5), (3, 5), (5, 7), (5, 11), (5, 19)]
    for r in rows:
        assert r.area == pytest.approx(coarea_maximal_order(r.algebra).value)
        assert r.ggs_area_bound == pytest.approx(
            2 * math.pi ** 2 * r.algebra.disc_norm * math.e)
    non_desc = parse_ram_set_l("3,5.1", qi)
    assert surface_census(non_desc, 10 ** 6) == []


def test_surface_census_independent_check(brute_quaternion_algebras):
    from quatrig.brauer import is_restriction

    qi = make_field(-4)
    bl = parse_ram_set_l("5.1,5.2", qi)
    x = 10 ** 6
    rows = surface_census(bl, x)
    brute = [b for b in brute_quaternion_algebras(x)
             if not b.ramified_at_infinity and is_restriction(b, qi, bl)]
    assert sorted(r.algebra.finite_primes for r in rows) == \
        sorted(b.finite_primes for b in brute)


def test_commensurability_class_equivalence():
    from quatrig.geometry import CommensurabilityClass, fuchsian_classes

    a = CommensurabilityClass(1, parse_ram_set("2,3").ramification)
    b = CommensurabilityClass(1, parse_ram_set("2,3").ramification)
    c = CommensurabilityClass(-4, parse_ram_set("2,3").ramification)
    assert a == a and a == b and b == a
    assert a != c
    d = CommensurabilityClass(1, parse_ram_set("2,5").ramification)
    assert a != d
    classes = fuchsian_classes(100.0)
    assert len(set(classes)) == len(classes)
