import math
import pytest

from quatrig import census
from quatrig.arith import count_squarefree, is_fundamental_discriminant
from quatrig.brauer import parse_ram_set
from quatrig.census import (
    CountTable,
    DependentDiscriminants,
    census_csa,
    census_division,
    census_embedding_quads,
    census_quat_with_subfields,
    count_csa,
    count_division,
    count_embedding_quads,
    count_quat_with_subfields,
    dirichlet_coefficients_csa,
    dirichlet_coefficients_embed,
    fundamental_discriminant_count,
    fundamental_discriminants,
    smallest_inert_prime,
    splitting_density,
)
from quatrig.fields import INFINITY, PlaceQ, make_field


def test_count_csa_spec_values():
    assert count_csa(2, 2, 100) == 7
    assert count_csa(1, 5, 7) == 1
    assert count_csa(1, 2, 1) == 1
    assert count_csa(3, 3, 46656) == 3


def test_count_division_spec_values():
    assert count_division(2, 100) == 6
    assert count_division(3, 46655) == 0
    assert count_division(3, 46656) == 2
    with pytest.raises(ValueError):
        count_division(1, 10)


def test_division_matches_squarefree_oracle():
    for x in (100, 5000, 123456, 10 ** 7):
        assert count_division(2, x) == count_squarefree(math.isqrt(x)) - 1


def test_csa_n4_inclusion_exclusion():
    # n = 4 exercises a nontrivial divisor lattice {1, 2, 4}; the smallest
    # degree-4 division algebras have |disc| = 6^12: invariants (1/4, 3/4)
    # and (3/4, 1/4) at {2, 3}, plus (1/4, 1/4) and (3/4, 3/4) completed by
    # the real place
    table = census_division(4, [6 ** 12 - 1, 6 ** 12, 10 ** 11])
    assert table.counts == (0, 4, table.counts[2])
    assert table.counts[2] >= 4


def test_count_table_invariants():
    t = census_csa(2, 2, [10, 100, 1000])
    assert t.counts == (3, 7, 20)
    assert list(t.counts) == sorted(t.counts)
    with pytest.raises(ValueError):
        CountTable((10, 5), (1, 2))


def test_fundamental_discriminants():
    assert fundamental_discriminant_count(4) == 2   # {-3, -4}
    assert fundamental_discriminant_count(8) == 6   # {-3, -4, 5, -7, -8, 8}
    fd = fundamental_discriminants(24).tolist()
    assert fd[:6] == [-3, -4, 5, -7, -8, 8]
    for d in fd:
        assert is_fundamental_discriminant(int(d))
    scan = [d for s in (-1, 1) for d in range(2, 25) if False]
    full = sorted(int(d) for d in fd)
    expected = sorted(d for d in list(range(-24, 0)) + list(range(2, 25))
                      if is_fundamental_discriminant(d))
    assert full == expected


def test_fundamental_count_asymptotic():
    c = fundamental_discriminant_count(10 ** 6)
    assert abs(c - (6 / math.pi ** 2) * 10 ** 6) < 2000


def test_count_embedding_quads_spec_values():
    b = parse_ram_set("2,inf")
    assert count_embedding_quads(b, 24) == 7  # {-3,-4,-8,-11,-19,-20,-24}
    deltas = fundamental_discriminants(24)
    from quatrig.census import _embeds_mask

    got = sorted(int(d) for d in deltas[_embeds_mask(b, deltas)])
    assert got == [-24, -20, -19, -11, -8, -4, -3]
    assert count_embedding_quads(parse_ram_set(""), 24) == fundamental_discriminant_count(24)
    assert count_embedding_quads(b, 24, not_totally_complex=True) == 0


def test_embedding_quads_census_matches_scalar():
    b = parse_ram_set("2,3")
    t = census_embedding_quads(b, [50, 500, 5000])
    for x, c in t.rows():
        assert c == count_embedding_quads(b, x)


def test_count_quat_with_subfields_spec_values():
    assert count_quat_with_subfields([-4], 16) == 3
    assert count_quat_with_subfields([-4], 1) == 1
    assert count_quat_with_subfields([-3, 5], 10 ** 4) >= 1
    with pytest.raises(DependentDiscriminants):
        count_quat_with_subfields([-3, 5, -15], 100)


def test_quat_subfields_brute_oracle(brute_quaternion_algebras):
    # brute force over all quaternion algebras with |disc| <= x
    from quatrig.brauer import embeds
    from quatrig.fields import QuadraticField

    x = 40000
    fields = [QuadraticField(-4)]
    brute = sum(1 for b in brute_quaternion_algebras(x) if all(embeds(f, b) for f in fields))
    assert count_quat_with_subfields([-4], x) == brute


def test_dirichlet_coefficients_csa_spec_values():
    co = dirichlet_coefficients_csa(2, 2, 100)
    assert co[1] == 1 and co[4] == 1 and co[36] == 1
    assert all(c >= 0 for c in co[1:])


def test_oracle_equivalence_csa():
    for m, n in ((2, 2), (3, 3), (2, 4), (4, 4)):
        n_max = 3000
        co = dirichlet_coefficients_csa(m, n, n_max)
        pairs = census._csa_disc_counts(m, n, n_max)
        by_disc = dict(pairs)
        for big_n in range(1, n_max + 1):
            assert co[big_n] == by_disc.get(big_n, 0), (m, n, big_n)


def test_oracle_equivalence_embed():
    co = dirichlet_coefficients_embed([-4], 2000)
    running = 0
    for n in range(1, 2001):
        running += co[n]
    assert running == count_quat_with_subfields([-4], 2000)
    assert sum(dirichlet_coefficients_embed([-4], 16)[1:]) == 3
    co2 = dirichlet_coefficients_embed([-3, 5], 2000)
    assert sum(co2[1:]) == count_quat_with_subfields([-3, 5], 2000)
    assert all(c >= 0 for c in co2[1:])


def test_splitting_density():
    s, i, r = splitting_density(INFINITY, 10 ** 4)
    assert s + i + r == 1
    assert i == 0
    s3, i3, r3 = splitting_density(PlaceQ.finite(3), 10 ** 5)
    assert s3 + i3 + r3 == 1
    assert abs(float(s3) - float(i3)) < 0.005
    with pytest.raises(ValueError):
        splitting_density(INFINITY, 50)


def test_smallest_inert_prime():
    assert smallest_inert_prime(make_field(-4)) == 3
    assert smallest_inert_prime(make_field(-3)) == 2
    assert smallest_inert_prime(make_field(5)) == 2
    stats = census.smallest_inert_stats(2000)
    assert stats["max_ratio"] > 0 and stats["prime"] >= 2


def test_census_inputs_validated():
    with pytest.raises(ValueError, match="m and n must be >= 1"):
        census_csa(0, 3, [100])
    for bad in ([0], [-5, 100], []):
        for run in (lambda xs: census_csa(2, 2, xs),
                    lambda xs: census_division(2, xs),
                    lambda xs: census_embedding_quads(parse_ram_set("2,inf"), xs),
                    lambda xs: census_quat_with_subfields([-4], xs)):
            with pytest.raises(ValueError, match="x must be >= 1"):
                run(bad)


def test_census_determinism():
    a = census_division(2, [100, 10 ** 4])
    b = census_division(2, [100, 10 ** 4])
    assert a == b


def test_embed_count_vs_lower_bound():
    from quatrig.asymptotics import embed_quads_lower_bound

    b = parse_ram_set("2,inf")
    x = 10 ** 5
    ratio = count_embedding_quads(b, x) / x
    assert ratio >= embed_quads_lower_bound(b).value - 0.002


def test_embed_count_within_band_of_fundamental_count():
    from quatrig.asymptotics import embed_quads_lower_bound

    x = 10 ** 6
    fund = fundamental_discriminant_count(x)
    for text in ("2,inf", "2,3", "3,5"):
        b = parse_ram_set(text)
        ratio = count_embedding_quads(b, x) / fund
        lower = float(embed_quads_lower_bound(b).coefficient)
        assert lower - 0.02 <= ratio <= 1.0, text


def test_smallest_inert_stats_range():
    stats = census.smallest_inert_stats(10 ** 5)
    # empirical effective-Chebotarev exponent stays far below 1
    assert 0 < stats["max_ratio"] < 1.0
    assert stats["x"] == 10 ** 5
