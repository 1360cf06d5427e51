import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatrig import census
from quatrig.arith import (
    InvalidDiscriminant,
    is_fundamental_discriminant,
    kronecker_symbol,
    kronecker_vec,
    count_squarefree,
    primes_upto,
    squarefree_products,
)
from quatrig.brauer import parse_ram_set
from quatrig.census import (
    CountTable,
    DependentDiscriminants,
    InternalInconsistency,
    census_csa,
    census_division,
    census_embedding_quads,
    census_quat_with_subfields,
    count_csa,
    count_division,
    count_embedding_quads,
    count_quat_with_subfields,
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


def test_division_matches_squarefree_oracle(squarefree_count):
    for x in (100, 5000, 123456, 10 ** 7, 10 ** 12):
        assert count_division(2, x) == squarefree_count(math.isqrt(x)) - 1


def test_moebius_sum_matches_the_block_kernel():
    # count_squarefree takes mu(d) by trial division, the prime sums count
    # the squarefree q through the primes <= y: two routes to every count
    ys = sorted({1, 2, 3, 4, 8, 9, 10, 99, 100, 101, 9999, 10 ** 4, 123456,
                 2 ** 18 - 1, 2 ** 18, 2 ** 18 + 1, 999999, 10 ** 6, 10 ** 7 - 1, 10 ** 7})
    assert [count_squarefree(y) for y in ys] == census._prime_sum_counts((), ys)


# thresholds x: the smallest ones, perfect squares and their neighbours
_SIEVE_XS = sorted({1, 3, 4, 8, 9, 10, 99, 100, 101, 12344, 12345, 35 ** 4,
                    10 ** 8 - 1, 10 ** 8, 10 ** 8 + 1, 97 ** 4 + 1, 10 ** 10})
_SIEVE_DELTAS = [(-3,), (-4,), (-15,), (5,), (8,), (-4, 5), (-3, -4)]
# y = sqrt(x) from 1 to 10^6: the neighbours of prime squares p^2, where the
# prime sums take a new prime, and of other squares
_SIEVE_YS = sorted({1, 2, 3, 12345, 65535, 65536, 10 ** 5, 10 ** 6} | {
    n * n + e for n in (2, 3, 4, 5, 6, 7, 10, 11, 12, 35, 97, 100, 313, 997, 1000)
    for e in (-1, 0, 1)})


@pytest.mark.parametrize("deltas", _SIEVE_DELTAS + [(-4, 5, 13), (-3, -4, 5)], ids=str)
def test_sieve_counts_match_the_enumerator(deltas):
    # the enumerator: every product of nonsplit primes, its parity folded along
    y = _SIEVE_YS[-1]
    nonsplit = [p for p in primes_upto(y).tolist()
                if all(kronecker_symbol(d, p) != 1 for d in deltas)]
    rows = list(squarefree_products(nonsplit, y, 0, lambda odd, p, _: 1 - odd))
    for even_only in (False, True):
        qs = sorted(q for q, odd in rows if not (even_only and odd))
        expected = [bisect_right(qs, y) for y in _SIEVE_YS]
        assert census._prime_sum_counts(deltas, _SIEVE_YS, even_only) == expected, even_only
        if even_only == (not all(d < 0 for d in deltas)):  # the parity the census takes
            assert census_quat_with_subfields(deltas, _SIEVE_XS).counts == tuple(
                bisect_right(qs, math.isqrt(x)) for x in _SIEVE_XS)


@lru_cache(maxsize=4)
def _mu_array(y: int) -> np.ndarray:
    """mu(n) for n in 0..y, read-only: each prime p <= y flips the sign of
    its multiples and zeroes those of p^2."""
    mu = np.ones(y + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_upto(y).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    mu.flags.writeable = False
    return mu


def _whole_array_sieve_counts(deltas, ys, even_only=False):
    """The whole-array sieve, a second route to the prime sums: strike the
    split primes from a Moebius array to max(ys), p <= sqrt(y) directly and
    k * P for each larger split P, then count each slice."""
    y, root = ys[-1], math.isqrt(ys[-1])
    mu = _mu_array(y)
    ok = mu == 1 if even_only else mu != 0
    primes = primes_upto(y)
    split = np.array([p for p in primes.tolist()
                      if any(kronecker_symbol(d, p) == 1 for d in deltas)], dtype=np.int64)
    cut = np.searchsorted(split, root, side="right")
    for p in split[:cut].tolist():
        ok[p::p] = False
    big = split[cut:]
    for k in range(1, root + 1):
        ok[k * big[:np.searchsorted(big, y // k, side="right")]] = False
    edges = [0] + [b + 1 for b in ys]
    return list(accumulate(int(np.count_nonzero(ok[a:b])) for a, b in zip(edges, edges[1:])))


def test_prime_sums_match_the_whole_array_sieve():
    ys = [math.isqrt(x) for x in _SIEVE_XS]
    for deltas in [(), *_SIEVE_DELTAS]:
        for even_only in (False, True):
            assert (census._prime_sum_counts(deltas, ys, even_only)
                    == _whole_array_sieve_counts(deltas, ys, even_only)), (deltas, even_only)


@pytest.mark.parametrize("segment", [16, 64, 1008, census.SEGMENT])
def test_block_kernel_matches_the_whole_array_sieve_across_block_edges(monkeypatch, segment):
    # small blocks put p^2 and the threshold ends on both sides of block
    # edges; the whole-array sieve is the reference.  The squarefree k <= y
    # are 1, the odd |delta| and |delta| / 4 at |delta| = 8 mod 16 (k = 2 mod 4)
    monkeypatch.setattr(census, "SEGMENT", segment)
    ys = [math.isqrt(x) for x in _SIEVE_XS]
    deltas = np.abs(np.concatenate(list(census._fundamental_blocks(4 * ys[-1]))))
    k = np.sort(np.concatenate([[1], deltas[deltas % 2 == 1],
                                np.unique(deltas[deltas % 16 == 8]) // 4]))
    assert np.searchsorted(k, ys, side="right").tolist() == _whole_array_sieve_counts((), ys)


@pytest.mark.parametrize("first, step", [(16, 16), (48, 48), (16, 48)])
def test_block_kernel_only_sieves(monkeypatch, first, step):
    # each block strikes the squares of the odd primes p <= sqrt(y) and reads
    # the discriminants off the mod 16 classes: the scalar square filter
    monkeypatch.setattr(census, "FIRST_BLOCK", first)
    monkeypatch.setattr(census, "SEGMENT", step)
    y = 2000
    small = primes_upto(math.isqrt(y)).tolist()
    edges = [0]
    while edges[-1] <= y:
        edges.append(min(edges[-1] + min(first * 2 ** (len(edges) - 1), step), y + 1))

    def odd_part_squarefree(k):
        return not any(k % (p * p) == 0 for p in small if p > 2)

    expected = [d for k in range(1, y + 1) for d in (-k, k)
                if d != 1 and (d % 4 == 1 or d % 16 in (8, 12)) and odd_part_squarefree(k)]
    blocks = list(census._fundamental_blocks(y))
    assert len(blocks) == len(edges) - 1
    for deltas, lo, hi in zip(blocks, edges, edges[1:]):
        assert np.all((lo <= np.abs(deltas)) & (np.abs(deltas) < hi)), (lo, hi)
    assert np.concatenate(blocks).tolist() == expected


@pytest.mark.parametrize("deltas", [(), (-3,), (-4,), (5,), (8,), (-4, 5), (-3, -4, 5)],
                         ids=str)
def test_quaternion_algebras_by_disc_matches_the_sieve_count(deltas):
    # two routes to one set: the listing enumerates products of nonsplit
    # primes, the prime sums count them through the floor set of y
    for y in (0, 1, 2, 30, 1000, 10 ** 5):
        rows = census.quaternion_algebras_by_disc(y, deltas)
        assert len(rows) == (census._prime_sum_counts(deltas, [y])[0] if y else 0)
        assert [q for q, _ in rows] == sorted({q for q, _ in rows})
        for q, primes in rows[:300]:
            assert math.prod(primes) == q and list(primes) == sorted(primes)
            assert all(kronecker_symbol(d, p) != 1 for d in deltas for p in primes)


def test_quaternion_algebras_by_disc_with_base():
    # 5 splits in Q(i): every row ramifies at 5, the rest inert or ramified
    rows = census.quaternion_algebras_by_disc(100, (-4,), (5,))
    assert rows == [(5, (5,)), (10, (2, 5)), (15, (3, 5)), (30, (2, 3, 5)), (35, (5, 7)),
                    (55, (5, 11)), (70, (2, 5, 7)), (95, (5, 19))]
    assert census.quaternion_algebras_by_disc(4, (-4,), (5,)) == []
    assert census.quaternion_algebras_by_disc(10 ** 4, (-4,), (5, 13))[:3] == [
        (65, (5, 13)), (130, (2, 5, 13)), (195, (3, 5, 13))]


# residues 1 and 5 mod 8, the even discriminants, and three past the first primes
_FIELDS = (-7, 17, -3, 5, -4, 8, -8, 12, -163, 109321, -40003)


@pytest.mark.parametrize("deltas", [
    *((d,) for d in _FIELDS), (-4, 5), (-7, 17), (8, -163), (-3, 109321), (-40003, 12),
    (-4, -3, 5), (-8, 17, -163), (-3, -4, 12), (-7, 8, 109321)], ids=str)
def test_nonsplit_primes_match_the_kronecker_vector(deltas):
    # Euler's criterion on the list view against the vector kernel's symbols;
    # (-3, -4, 12) is a dependent set, which the listing admits as well
    for limit in (1, 2, 3, 10 ** 5):
        primes = primes_upto(limit)
        for d in deltas:
            primes = primes[kronecker_vec(d, primes) != 1]
        assert census._nonsplit_primes(deltas, limit) == primes.tolist(), limit


@pytest.mark.parametrize("ram", ["2,3", "11,17", "2,19", "3,5,7,11", "5,13", "2,3,5,7,11,13",
                                 "3,262147", "5,4194319"])
def test_real_fields_match_the_stream_and_the_kronecker_vector(ram):
    # two routes to the geodesic census's fields: blocks of flag bytes ANDed
    # with residue tables, and the block kernel's stream of discriminants
    # filtered by the vector kernel's symbols.  2 SEGMENT + 13 spans three
    # blocks; 262147 is tested by Euler's criterion below it and by its
    # table above, 4194319 > QR_TABLE by Euler's criterion throughout
    assert 10 ** 5 < 262147 < 2 * census.SEGMENT < census.QR_TABLE < 4194319
    algebra = parse_ram_set(ram)
    for x in (0, 1, 2, 3, 4, 5, 6, 40, 3000, 10 ** 5, 2 * census.SEGMENT + 13):
        stream = [d for deltas in census._fundamental_blocks(x)
                  for d in deltas[census._embeds_mask(algebra, deltas) & (deltas > 0)].tolist()]
        assert census._real_fields(algebra.finite_primes, x) == stream, x


@pytest.mark.parametrize("d", [9, -12, 0, 1])
def test_listing_rejects_a_non_fundamental_discriminant(d):
    # each listing entry point raises, as the vector kernel did for 9, -12 and
    # 0; 1, the trivial character, is no field either
    from quatrig.geometry import fuchsian_classes

    for run in (lambda: census._nonsplit_primes((d,), 100),
                lambda: census._nonsplit_primes((-4, d), 1),
                lambda: census.quaternion_algebras_by_disc(100, (d,)),
                # base primes past y: validated before the early empty listing
                lambda: census.quaternion_algebras_by_disc(4, (d,), (5,)),
                lambda: fuchsian_classes(100, (d,))):
        with pytest.raises(InvalidDiscriminant, match=f"{d} is not a fundamental discriminant"):
            run()


def test_division_sieve_mismatch_names_both_lists(monkeypatch):
    real = census.squarefree_counts
    monkeypatch.setattr(census, "squarefree_counts",
                        lambda ys: [c + (y == 10) for c, y in zip(real(ys), ys)])
    with pytest.raises(InternalInconsistency) as info:
        census_division(2, [4, 100, 10 ** 4])
    assert "sieve [1, 6, 60]" in str(info.value)
    assert "Moebius sum [1, 7, 60]" in str(info.value)


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
    full = sorted(int(d) for d in fd)
    expected = sorted(d for d in list(range(-24, 0)) + list(range(2, 25))
                      if is_fundamental_discriminant(d))
    assert full == expected


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(0, 3000) | st.integers(0, 180).map(lambda j: 16 * j + 8))
def test_fundamental_discriminants_match_scalar_filter(limit):
    # |delta| ascending, the negative one first: ties +-k occur at k = 8 mod 16
    expected = [d for k in range(1, limit + 1) for d in (-k, k)
                if is_fundamental_discriminant(d)]
    got = fundamental_discriminants(limit)
    assert got.dtype == np.int64
    assert got.tolist() == expected


def test_fundamental_discriminants_negative_limit():
    with pytest.raises(ValueError):
        fundamental_discriminants(-1)


def test_fundamental_discriminants_are_read_only():
    # the table is cached: a write would reach every later caller
    table = fundamental_discriminants(100)
    with pytest.raises(ValueError):
        table[0] = 1
    assert fundamental_discriminants(100)[0] == -3


def _traced_peak(run) -> int:
    """Peak bytes tracemalloc sees while run() runs, with the 10^4 floor of
    the shared sieve built beforehand."""
    import tracemalloc

    primes_upto(10 ** 4)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fundamental_discriminants_peak_memory():
    # the table (4.9 bytes per unit of limit) is the only array that long:
    # about 5.3 bytes per unit in all
    limit = 10 ** 7
    assert _traced_peak(lambda: fundamental_discriminants.__wrapped__(limit)) < 6 * limit


@pytest.mark.parametrize("segment", [16, 64, 1008])
def test_fundamental_blocks_match_scalar_filters_across_block_edges(monkeypatch, segment):
    # |delta| ascending, the negative one first on ties; the odd and the 4m
    # discriminants of a block come from one block pass, with blocks of 16,
    # 32, ... up to the segment
    monkeypatch.setattr(census, "SEGMENT", segment)
    monkeypatch.setattr(census, "FIRST_BLOCK", 16)
    limit = 3000
    expected = [d for k in range(1, limit + 1) for d in (-k, k)
                if is_fundamental_discriminant(d)]
    for x in (0, 1, 3, 8, 16, 63, 64, 65, 1007, 1008, 1009, limit):
        got = fundamental_discriminants.__wrapped__(x)
        assert got.tolist() == [d for d in expected if abs(d) <= x], x
    thresholds = [1, 8, 24, 40, 64, 999, 1008, limit]
    for ram in ("", "2,3", "3,5,7,inf"):
        places = ram.split(",") if ram else []
        for ntc in (False, True):
            kept = [abs(d) for d in expected
                    if _embeds_by_filter(places, d) and (d > 0 or not ntc)]
            got = census_embedding_quads(parse_ram_set(ram), thresholds, ntc)
            assert got.counts == tuple(sum(k <= x for k in kept) for x in thresholds), (ram, ntc)


def _stream_readers():
    """What every reader of the discriminant stream returns at sizes that
    cross many blocks of the smallest SEGMENT, and the edges of the growing
    first blocks, failed searches included."""
    from quatrig import rigidity

    def outcome(search):
        try:
            return search()
        except rigidity.NotFoundWithinBound as e:
            return str(e)

    algebras = rigidity._all_quaternion_algebras(400)
    # a witness 100 places down the list, read across blocks
    algebras += [parse_ram_set(r) for r in ("2,3,5,7,11,13,17,19", "2,3,5,7,11,13,17,19,23,29")]
    places = [PlaceQ.finite(p) for p in (2, 3, 7)] + [INFINITY]
    return {
        "scan": [outcome(lambda: rigidity.rigidity_scan(10 ** 4, delta_max, ntc).witnesses)
                 for delta_max in (20, 3000) for ntc in (False, True)],
        "distinguish": [outcome(lambda: rigidity.distinguish_quaternions(b1, b2, delta_max))
                        for b1, b2 in zip(algebras, algebras[1:]) for delta_max in (5, 3000)],
        "limit_pair": [rigidity.limit_pair(m) for m in (2, 3, 5, 7, 11, 13)],
        "splitting": [splitting_density(v, x) for v in places for x in (100, 1009, 3000)],
        "inert": [census.smallest_inert_stats(x) for x in (3, 64, 1008, 3000)],
        "count": [fundamental_discriminant_count(x) for x in (1, 3, 8, 63, 64, 1008, 1009, 3000)],
    }


@pytest.mark.parametrize("segment", [16, 64, 1008])
def test_stream_readers_match_across_block_edges(monkeypatch, segment):
    # the default blocks double from 2^10; here from 16 or 48 up to the segment
    expected = _stream_readers()
    monkeypatch.setattr(census, "SEGMENT", segment)
    for first in (16, 48):
        monkeypatch.setattr(census, "FIRST_BLOCK", first)
        assert _stream_readers() == expected, first


def test_fundamental_blocks_double_from_the_first_block():
    # a reader that stops early has read 2^10 |delta|; long walks run at SEGMENT
    limit, edges = 2 ** 20, [0, census.FIRST_BLOCK]
    while edges[-1] <= limit:
        edges.append(edges[-1] + min(2 * (edges[-1] - edges[-2]), census.SEGMENT))
    blocks = list(census._fundamental_blocks(limit))
    assert len(blocks) == len(edges) - 1 == 12
    for deltas, lo, hi in zip(blocks, edges, edges[1:]):
        assert lo <= np.abs(deltas).min() and np.abs(deltas).max() < hi, (lo, hi)


def test_census_peak_memory_does_not_grow_with_x():
    # O(sqrt(y) + SEGMENT): about 4 MB for the subfield census at any x, and
    # 6 MB for the embed-quads census to 10^7, whose table would take 49 MB
    quat = {x: _traced_peak(lambda: census_quat_with_subfields((-4,), [x]))
            for x in (10 ** 12, 10 ** 14)}
    assert max(quat.values()) < 8 * 10 ** 6
    assert abs(quat[10 ** 14] - quat[10 ** 12]) < 2 * 10 ** 6
    embed = _traced_peak(lambda: census_embedding_quads(parse_ram_set(""), [10 ** 7]))
    assert embed < 12 * 10 ** 6
    # at 10^9 and 10^10, two thresholds stay under the 80 bytes per unit of
    # isqrt(x) that the census checks against its budget
    for x in (10 ** 9, 10 ** 10):
        for ram in ("", "3,5,7,inf"):
            peak = _traced_peak(lambda: census_embedding_quads(parse_ram_set(ram), [x // 3 + 1, x]))
            assert peak < 80 * math.isqrt(x), (x, ram)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_embedding_quads_peak_memory_does_not_grow_with_the_thresholds(count):
    # the terms of the sum are expanded one threshold at a time, so the traced
    # peak at 10^10 stays under the 80 bytes per unit of isqrt(x) that the
    # census checks against its budget, however many thresholds share the walk
    x = 10 ** 10
    thresholds = [x - i * (x // (2 * count)) for i in range(count)]
    for ram in ("", "3,5,7,inf"):
        peak = _traced_peak(lambda: census_embedding_quads(parse_ram_set(ram), thresholds))
        assert peak < 80 * math.isqrt(x), (count, ram, peak)


def test_embeds_mask_allocates_no_int64_array_of_the_table_length():
    # residues mod p go straight into int32: about 6 bytes per discriminant,
    # where an int64 remainder alone takes 8
    table = fundamental_discriminants(10 ** 6)
    peak = _traced_peak(lambda: census._embeds_mask(parse_ram_set("2,3"), table))
    assert peak < 8 * len(table)


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


def _embeds_by_filter(places, delta):
    """Q(sqrt(delta)) embeds when no ramified place splits in it: delta < 0
    at inf, and the scalar Kronecker symbol is not 1 at each finite prime."""
    return all(delta < 0 if v == "inf" else kronecker_symbol(delta, int(v)) != 1
               for v in places)


def test_embedding_quads_census_matches_scalar():
    limit = 2000
    deltas = [d for d in range(-limit, limit + 1) if is_fundamental_discriminant(d)]
    last = max(abs(d) for d in deltas)
    # 1, ties +-k at k = 8 mod 16, and the last |delta| of the table
    thresholds = [1, 8, 24, 40, 999, last]
    for ram in ("", "2,inf", "2,3", "3,5,7,inf"):
        places = ram.split(",") if ram else []
        for ntc in (False, True):
            kept = [abs(d) for d in deltas
                    if _embeds_by_filter(places, d) and (d > 0 or not ntc)]
            expected = tuple(sum(k <= x for k in kept) for x in thresholds)
            got = census_embedding_quads(parse_ram_set(ram), thresholds, ntc)
            assert got.counts == expected, (ram, ntc)


def _places(ram: str):
    """An object with the ramification of `ram`, odd sets included: the
    embed-quads census reads nothing else of the algebra."""
    return SimpleNamespace(ramification=frozenset(
        INFINITY if v == "inf" else PlaceQ.finite(int(v)) for v in ram.split(",") if v))


def test_embedding_quads_census_matches_the_stream():
    # the residue-class count against the stream of fundamental
    # discriminants, each field tested; delta = 1 is in the counted classes
    # exactly when no finite prime ramifies and the real place may split.
    # The last set has a modulus 8P past int64 and a period past every m.
    cases = [(ram, 10 ** 6) for ram in ("", "2", "inf", "2,3", "3,5,7,inf", "2,3,5,7,inf",
                                        "2,100003")]
    for ram, limit in cases + [("10000019,10000079,10000103,inf", 20000)]:
        thresholds = [*range(1, 9), 12, 13, 100, 999, 1000, 1001, 4096, 12345, limit - 1, limit]
        algebra = _places(ram)
        for ntc in (False, True):
            counts = np.zeros(len(thresholds), dtype=np.int64)
            for deltas in census._fundamental_blocks(limit):
                ok = census._embeds_mask(algebra, deltas) & (deltas > 0 if ntc else True)
                counts += np.searchsorted(np.abs(deltas[ok]), thresholds, side="right")
            got = census_embedding_quads(algebra, thresholds, ntc)
            assert got.counts == tuple(counts.tolist()), (ram, ntc)


@pytest.mark.parametrize("ram, ntc, thresholds, counts", [
    ("", False, [10 ** 10 // 3 + 1, 10 ** 10], (2026423644, 6079270822)),
    ("", False, [10 ** 11], (60792710200,)),
    ("", False, [10 ** 12 // 3 + 1, 10 ** 12], (202642367625, 607927101751)),
    ("3,5,7,inf", False, [10 ** 10 // 3 + 1, 10 ** 10], (207787495, 623362785)),
    ("2,3", False, [10 ** 11 // 3 + 1, 10 ** 11], (8443431944, 25330295763)),
    ("5,13", True, [10 ** 9 + 7, 10 ** 10], (94988634, 949885979)),
])
def test_embedding_quads_census_past_1e9(ram, ntc, thresholds, counts):
    # pinned from a second route: mu(d) for d <= sqrt(x) one factorization at
    # a time and gcd(d, P) by trial division, as the census counted to 10^9
    assert census_embedding_quads(_places(ram), thresholds, ntc).counts == counts


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


def test_dirichlet_coefficients_csa_spec_values(dirichlet_coefficients_csa):
    co = dirichlet_coefficients_csa(2, 2, 100)
    assert co[1] == 1 and co[4] == 1 and co[36] == 1
    assert all(c >= 0 for c in co[1:])


def test_oracle_equivalence_csa(dirichlet_coefficients_csa):
    for m, n in ((2, 2), (3, 3), (2, 4), (4, 4)):
        n_max = 3000
        # per-disc multiplicities: successive differences of the census at x = 1..n_max
        counts = census.census_csa(m, n, range(1, n_max + 1)).counts
        by_disc = [0] + [b - a for a, b in zip((0,) + counts, counts)]
        assert dirichlet_coefficients_csa(m, n, n_max) == by_disc, (m, n)


def test_oracle_equivalence_embed(dirichlet_coefficients_embed):
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


def test_smallest_inert_prime_reads_only_the_primes_it_needs(monkeypatch):
    limits = []
    primes_upto = census.primes_upto
    monkeypatch.setattr(census, "primes_upto", lambda x: limits.append(x) or primes_upto(x))
    assert smallest_inert_prime(make_field(100000001)) == 3
    assert limits == [10 ** 3]


def _least_inert_prime_oracle(delta):
    """The least prime p with (delta|p) = -1: primes by trial division, the
    scalar Kronecker symbol."""
    p = 2
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)) or kronecker_symbol(delta, p) != -1:
        p += 1
    return p


def test_smallest_inert_prime_and_stats_match_trial_division_oracle():
    x = 3000
    # |delta| ascending, the negative one first on ties
    deltas = sorted((d for d in range(-x, x + 1) if is_fundamental_discriminant(d)),
                    key=lambda d: (abs(d), d))
    least = [_least_inert_prime_oracle(d) for d in deltas]
    assert [smallest_inert_prime(make_field(d)) for d in deltas] == least
    for y in (3, 5, 12, 100, x):  # the walk for the smallest tables ends at |delta| itself
        rows = [(math.log(p) / math.log(abs(d)), d, p) for d, p in zip(deltas, least) if abs(d) <= y]
        ratio, d, p = max(rows, key=lambda row: row[0])
        assert census.smallest_inert_stats(y) == {"max_ratio": ratio, "delta": d, "prime": p, "x": y}


def test_smallest_inert_stats_builds_one_sieve(monkeypatch):
    # the least inert primes come from prefixes grown tenfold from 10^3, so
    # the shared table keeps its 10^4 floor; every least inert prime for
    # |delta| <= 10^6 is below 100
    from quatrig import arith

    builds = []
    init = arith.SieveTable.__init__
    monkeypatch.setattr(arith, "_SHARED", None)
    monkeypatch.setattr(arith.SieveTable, "__init__",
                        lambda self, limit: builds.append(limit) or init(self, limit))
    expected = {"max_ratio": math.log(13) / math.log(24), "delta": -24, "prime": 13}
    for x in (10 ** 5, 10 ** 6):
        assert census.smallest_inert_stats(x) == {**expected, "x": x}
    assert builds == [10 ** 4]


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
