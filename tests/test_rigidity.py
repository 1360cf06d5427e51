import math
import re
from itertools import combinations

import pytest
from mpmath import mp

from quatrig.arith import is_fundamental_discriminant
from quatrig import brauer, rigidity
from quatrig.brauer import (
    QuaternionAlgebraL,
    embeds,
    is_restriction,
    parse_ram_set,
    parse_ram_set_l,
)
from quatrig.census import fundamental_discriminants
from quatrig.fields import PlaceQ, QuadraticField, make_field, places_above
from quatrig.rigidity import (
    NotFoundWithinBound,
    brauer_rigidity_bound,
    chlr_length_bound,
    distinguish_brauer_pairs,
    distinguish_quaternions,
    grunwald_wang_conductor_bound,
    length_preserving_family,
    limit_pair,
    mcreid_area_bound,
    recognizing_bound,
    rigidity_scan,
)


def test_recognizing_bound_values():
    rep = recognizing_bound(1, 1, 4)
    direct = 64 * math.exp(2 * (21 * 4 / math.log(4) ** 3 + 4))
    assert float(rep.value) == pytest.approx(direct, rel=1e-9)
    assert 31 < rep.log10 < 34
    rep2 = recognizing_bound(2, 5, 10)
    assert rep2.log10 > 0
    with pytest.raises(ValueError):
        recognizing_bound(1, 1, 2)


def test_recognizing_bound_monotone_past_e_cubed():
    # 21x/log^3 x + x decreases below x = e^3, so monotonicity holds from there
    vals = [recognizing_bound(1, 1, x).log10 for x in (21, 40, 100, 10 ** 4, 10 ** 6)]
    assert vals == sorted(vals)


def test_grunwald_wang_values():
    rep = grunwald_wang_conductor_bound(1, 4, 10)
    assert float(rep.value) == pytest.approx(32 * 4 * 210 ** 2, rel=1e-9)
    theta = __import__("quatrig.arith", fromlist=["chebyshev_theta"]).chebyshev_theta(100)
    rep100 = grunwald_wang_conductor_bound(1, 4, 100)
    assert float(mp.log(rep100.value)) == pytest.approx(
        math.log(32) + math.log(4) + 2 * theta, rel=1e-9)
    grid = [grunwald_wang_conductor_bound(1, 4, x).log10 for x in (10, 100, 1000)]
    assert grid == sorted(grid)


def test_chlr_bounds():
    rep = chlr_length_bound(math.e, 3)
    assert float(rep.value) == pytest.approx(math.e, rel=1e-12)
    rep2 = chlr_length_bound(math.e, 2, 1, 1)
    assert rep2.log10 == pytest.approx(math.e ** 130 / math.log(10), rel=1e-6)
    grid = [chlr_length_bound(v, 3).log10 for v in (3, 5, 10, 100)]
    assert grid == sorted(grid)
    with pytest.raises(ValueError):
        chlr_length_bound(0.5, 3)
    with pytest.raises(ValueError):
        chlr_length_bound(10, 4)


def test_mcreid_and_brauer_bounds():
    assert float(mcreid_area_bound(0, 1).value) == 1.0
    rep = brauer_rigidity_bound(1, 1, 25, 25)
    assert float(rep.value) == pytest.approx((2 * math.log(625)) ** 4 * 625, rel=1e-9)
    assert float(rep.value) == pytest.approx(1.717e7, rel=1e-3)
    grid = [brauer_rigidity_bound(1, 1, d, 25).log10 for d in (25, 100, 999)]
    assert grid == sorted(grid)
    grid_v = [mcreid_area_bound(v, 1).log10 for v in (0, 1, 5, 400)]
    assert grid_v == sorted(grid_v)


def test_distinguish_quaternions_spec_values():
    assert distinguish_quaternions(parse_ram_set("2,inf"), parse_ram_set("3,inf")) == -7
    assert distinguish_quaternions(parse_ram_set("2,inf"), parse_ram_set("2,inf")) is None
    assert distinguish_quaternions(parse_ram_set("2,3"), parse_ram_set("2,inf")) == 5


def test_distinguish_replay_and_none_iff_iso():
    from quatrig.rigidity import _all_quaternion_algebras

    algebras = _all_quaternion_algebras(2000)
    for b1, b2 in combinations(algebras, 2):
        d = distinguish_quaternions(b1, b2)
        assert d is not None
        f = QuadraticField(d)
        assert embeds(f, b1) != embeds(f, b2)
        # minimality: every smaller |delta| embeds in both or neither
        for dd in fundamental_discriminants(abs(d)).tolist():
            if abs(dd) < abs(d) or (dd == -d and d > 0):
                ff = QuadraticField(int(dd))
                assert embeds(ff, b1) == embeds(ff, b2)
    for b in algebras[:10]:
        assert distinguish_quaternions(b, b) is None


def test_distinguish_not_found_reported():
    for delta_max in (4, 2):  # two fields, or none at all
        with pytest.raises(NotFoundWithinBound):
            distinguish_quaternions(parse_ram_set("2,inf"), parse_ram_set("3,inf"),
                                    delta_max=delta_max)
        with pytest.raises(NotFoundWithinBound):
            rigidity_scan(16, delta_max)


def test_rigidity_scan_small():
    # |disc| <= 16 means squarefree reduced discriminant <= 4: three algebras
    rep = rigidity_scan(16, 100)
    assert len(rep.pairs) == 3
    assert rep.all_distinguished
    assert rep.max_abs_delta <= 8
    assert math.log10(rep.max_abs_delta) < rep.bound_log10
    # |disc| <= 36 brings in {5,inf} and {2,3}: five algebras, ten pairs
    rep36 = rigidity_scan(36, 100)
    assert len(rep36.pairs) == 10
    assert rep36.all_distinguished and rep36.max_abs_delta <= 8


def test_rigidity_scan_not_totally_complex():
    rep = rigidity_scan(40, 10 ** 4, not_totally_complex=True)
    assert rep.all_distinguished
    for a, b, d in rep.pairs:
        if "inf" not in a and "inf" not in b:
            assert d > 0


@pytest.mark.parametrize("not_totally_complex", [False, True])
def test_rigidity_scan_matches_scalar_embeds(brute_quaternion_algebras, not_totally_complex):
    # per pair, the first field in |delta| order (negative first on ties) that
    # embeds in exactly one algebra, by scalar embeds calls
    x, delta_max = 400, 10 ** 4
    algebras = sorted(brute_quaternion_algebras(x), key=lambda b: math.prod(b.finite_primes))
    fields = [QuadraticField(d) for d in sorted(
        (d for d in range(-delta_max, delta_max + 1) if is_fundamental_discriminant(d)),
        key=lambda d: (abs(d), d > 0))]
    want = []
    for b1, b2 in combinations(algebras, 2):
        real_only = (not_totally_complex and not b1.ramified_at_infinity
                     and not b2.ramified_at_infinity)
        witness = next(f.delta for f in fields if not (real_only and f.delta < 0)
                       and embeds(f, b1) != embeds(f, b2))
        want.append((repr(b1), repr(b2), witness))
    assert list(rigidity_scan(x, delta_max, not_totally_complex).pairs) == want


def _pairwise_xor(algebras, delta_max, not_totally_complex):
    """The plain pairwise search: the first True of each pair's XOR of the
    embedding masks over every discriminant to delta_max, in search order, or
    0 for none; one list per algebra but the last."""
    import numpy as np

    deltas = fundamental_discriminants(delta_max)
    masks = np.array([rigidity._embeds_mask(b, deltas) for b in algebras])
    indefinite = np.array([not b.ramified_at_infinity for b in algebras])
    want = []
    for i in range(len(algebras) - 1):
        diff = masks[i + 1:] ^ masks[i]
        if not_totally_complex and indefinite[i]:
            diff[indefinite[i + 1:]] &= deltas > 0
        want.append(np.where(diff.any(axis=1), deltas[diff.argmax(axis=1)], 0).tolist())
    return want


@pytest.mark.parametrize("x", [10 ** 5, 10 ** 6])
@pytest.mark.parametrize("not_totally_complex", [False, True])
def test_rigidity_scan_matches_pairwise_xor(x, not_totally_complex):
    want = _pairwise_xor(rigidity._all_quaternion_algebras(x), 1000, not_totally_complex)
    rep = rigidity_scan(x, not_totally_complex=not_totally_complex)
    assert rep.witnesses == tuple(d for row in want for d in row)
    assert rep.max_abs_delta == max(abs(d) for row in want for d in row)


@pytest.mark.parametrize("x, delta_max, not_totally_complex, distinguished", [
    (400, 5, False, False), (400, 8, True, False), (10 ** 4, 30, True, False),
    (10 ** 5, 40, False, False), (10 ** 5, 45, True, False), (10 ** 6, 60, False, False),
    (10 ** 5, 60, True, True), (10 ** 6, 90, True, True)])
def test_rigidity_scan_verdict_matches_pairwise_xor(x, delta_max, not_totally_complex,
                                                    distinguished):
    # the scan raises exactly when the oracle has a zero, naming its first one
    # in combinations() order
    algebras = rigidity._all_quaternion_algebras(x)
    want = _pairwise_xor(algebras, delta_max, not_totally_complex)
    zeros = [(i, i + 1 + row.index(0)) for i, row in enumerate(want) if 0 in row]
    assert not zeros == distinguished
    if not zeros:
        rep = rigidity_scan(x, delta_max, not_totally_complex)
        assert rep.max_abs_delta == max(abs(d) for row in want for d in row)
        return
    i, j = zeros[0]
    with pytest.raises(NotFoundWithinBound, match=re.escape(
            f"pair {algebras[i]}, {algebras[j]} not distinguished by |delta| <= {delta_max}")):
        rigidity_scan(x, delta_max, not_totally_complex)


@pytest.mark.parametrize("x, maxima", [(10 ** 8, (163, 173)), (10 ** 9, (420, 420))])
def test_rigidity_scan_maxima_past_the_oracle(x, maxima):
    # the largest least |delta| without and with --not-totally-complex, as the
    # row walk of the bit matrix found them (the ROADMAP item 17 table)
    assert tuple(rigidity_scan(x, not_totally_complex=flag).max_abs_delta
                 for flag in (False, True)) == maxima


def test_rigidity_scan_walks_no_rows_when_every_pair_parts(monkeypatch):
    walks = []
    witness_rows = rigidity._witness_rows

    def counted(*args):
        rows, max_abs = witness_rows(*args)
        return (lambda: walks.append(1) or rows()), max_abs

    monkeypatch.setattr(rigidity, "_witness_rows", counted)
    for flag in (False, True):
        assert rigidity_scan(10 ** 6, not_totally_complex=flag).max_abs_delta == 84
    assert walks == []
    with pytest.raises(NotFoundWithinBound):
        rigidity_scan(400, 5)
    assert walks == [1]


@pytest.mark.parametrize("not_totally_complex", [False, True])
def test_witness_rows_of_every_two_and_three_algebras_match_pairwise_xor(not_totally_complex):
    # a definite algebra's widest pair may lie on either side of its class:
    # M(2,Q) above B(2,inf), and B(2,inf) above B(2,5)
    for k in (2, 3):
        for algebras in combinations(rigidity._all_quaternion_algebras(100), k):
            want = _pairwise_xor(algebras, 1000, not_totally_complex)
            rows, max_abs = rigidity._witness_rows(
                algebras, rigidity._fundamental_blocks(1000),
                rigidity._fundamental_blocks(1000) if not_totally_complex else None)
            assert [row.tolist() for row in rows()] == want
            entries = [abs(d) for row in want for d in row]
            assert max_abs == (0 if 0 in entries else max(entries))


@pytest.mark.parametrize("not_totally_complex", [False, True])
def test_witness_rows_match_the_full_rows_overwritten_by_the_real_refinement(not_totally_complex):
    # each row built whole from the refinement of every algebra, an indefinite
    # algebra's entries against the later indefinite ones then overwritten
    # from the refinement of those alone: the rows only gather what they keep
    import numpy as np

    algebras, blocks = rigidity._all_quaternion_algebras(10 ** 6), rigidity._fundamental_blocks
    rows, _ = rigidity._witness_rows(algebras, blocks(10 ** 6),
                                     blocks(10 ** 6) if not_totally_complex else None)
    real = np.array([not_totally_complex and not b.ramified_at_infinity for b in algebras])
    full = rigidity._refine(algebras, blocks(10 ** 6))
    part = rigidity._refine([b for b, r in zip(algebras, real) if r],
                            (b[b > 0] for b in blocks(10 ** 6)))

    def whole(splitters, labels, gap, i):  # the least gap from i's class to each later one's
        c = labels[i]
        least = np.r_[np.minimum.accumulate(gap[c:0:-1])[::-1], len(splitters) - 1,
                      np.minimum.accumulate(gap[c + 1:-1])]
        return splitters[least[labels[i + 1:]]]

    walked = 0
    for i, row in enumerate(rows()):
        want = whole(*full, i)
        if real[i]:
            want[real[i + 1:]] = whole(*part, int(real[:i + 1].sum()) - 1)
        assert row.tolist() == want.tolist(), i
        walked += 1
    assert walked == len(algebras) - 1 and real.any() == not_totally_complex


def test_first_witnesses_of_isomorphic_algebras_are_zero():
    # two copies of B(2,3) never separate: the walk reads every block to 10^6
    b23, b25 = parse_ram_set("2,3"), parse_ram_set("2,5")
    rows, max_abs = rigidity._witness_rows([b23, b23, b25], rigidity._fundamental_blocks(10 ** 6))
    assert [row.tolist() for row in rows()] == [[0, -4], [-4]]
    assert max_abs == 0


@pytest.mark.parametrize("not_totally_complex", [False, True])
def test_refine_computes_one_kronecker_row_per_prime_and_block(monkeypatch, not_totally_complex):
    # 608 algebras over 168 distinct ramified primes, one block per walk
    from quatrig import census

    calls = []  # (block, p), the blocks held so that no id is reused
    kronecker_vec = census.kronecker_vec
    monkeypatch.setattr(census, "kronecker_vec",
                        lambda deltas, p: calls.append((deltas, p)) or kronecker_vec(deltas, p))
    rigidity_scan(10 ** 6, not_totally_complex=not_totally_complex)
    algebras = rigidity._all_quaternion_algebras(10 ** 6)
    walks = [algebras] + [[b for b in algebras if not b.ramified_at_infinity]] * not_totally_complex
    asked = {}  # the primes asked of each block read, by its id
    for deltas, p in calls:
        asked.setdefault(id(deltas), []).append(p)
    assert [sorted(ps) for ps in asked.values()] == [
        sorted({p for b in walk for p in b.finite_primes}) for walk in walks]
    assert len(asked[id(calls[0][0])]) == 168


@pytest.mark.parametrize("not_totally_complex", [False, True])
def test_rigidity_scan_reads_only_the_blocks_it_needs(monkeypatch, not_totally_complex):
    # 608 algebras part within |delta| <= 84, in the first block of each walk;
    # the real walk leaves the definite algebras out, or it would never stop
    read = []
    stream = rigidity._fundamental_blocks
    monkeypatch.setattr(rigidity, "_fundamental_blocks",
                        lambda limit: (read.append(len(b)) or b for b in stream(limit)))
    rigidity_scan(10 ** 6, not_totally_complex=not_totally_complex)
    assert len(read) == 1 + not_totally_complex


def test_rigidity_scan_memory_does_not_grow_with_the_pairs_walked():
    # 184,528 and 1,853,775 pairs: about 2.5 KB per algebra (the listing and
    # the first block's matrix); no row is walked and nothing is held per pair
    import tracemalloc

    rigidity_scan(10 ** 4)  # numpy and the listing's first tables
    peaks = []
    for x in (10 ** 6, 10 ** 7):
        tracemalloc.start()
        try:
            rigidity_scan(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 8 * 10 ** 6 and peaks[1] < 16 * 10 ** 6


def test_distinguish_reads_only_the_blocks_it_needs(monkeypatch):
    # a witness among the first 64 fields: the first block, 2^10 |delta| of 10^7
    read = []
    stream = rigidity._fundamental_blocks
    monkeypatch.setattr(rigidity, "_fundamental_blocks",
                        lambda limit: (read.append(len(b)) or b for b in stream(limit)))
    assert distinguish_quaternions(parse_ram_set("2,3"), parse_ram_set("2,5"), 10 ** 7) == -4
    assert len(read) == 1 and read[0] < 2 ** 10


def test_limit_pair_allocates_one_block_at_a_time():
    # the partner at |delta| = 2,711,427 is reached through blocks of 2^18
    # candidates n = 3 mod 8, where tables grown tenfold to 10^7 traced 90 MB
    import tracemalloc

    tracemalloc.start()
    try:
        assert limit_pair(43) == (-3, -2711427, 61, 67)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10 ** 6


def test_distinguish_quaternions_past_the_first_prefix():
    # witnesses 100 to 266 places down the list, past the first 64 fields
    deltas = fundamental_discriminants(10 ** 4).tolist()
    for r1, r2 in (("2,3,5,7,11,13,17,19", "2,3,5,7,11,13,17,19,23,29"),
                   ("3,5,7,11,13,17,19,23,29,31", "3,5,7,11,13,17,19,23,29,37"),
                   ("2,3,5,7,11,13,17,19,23,29,31,37", "2,3,5,7,11,13,17,19,23,29,31,41")):
        b1, b2 = parse_ram_set(r1), parse_ram_set(r2)
        want = next(d for d in deltas
                    if embeds(QuadraticField(d), b1) != embeds(QuadraticField(d), b2))
        assert deltas.index(want) >= 64
        assert distinguish_quaternions(b1, b2) == want


def test_limit_pair_spec_values():
    d1, d2, p1, p2 = limit_pair(3)
    assert (d1, d2) == (-3, -51)
    assert p1 == 7
    d1b, d2b, *_ = limit_pair(2)
    assert (d1b, d2b) == (-3, -11)
    assert abs(d2b) < abs(d2)


def test_limit_pair_replay():
    from quatrig.arith import kronecker_symbol, primes_upto

    for m in (2, 3, 5, 7, 73):
        d1, d2, p1, p2 = limit_pair(m)
        assert is_fundamental_discriminant(d2)
        for p in primes_upto(m).tolist():
            assert kronecker_symbol(d1, int(p)) == kronecker_symbol(d2, int(p))
        for p in (p1, p2):
            assert kronecker_symbol(d1, p) == 1
            assert kronecker_symbol(d2, p) == -1
        assert p1 < p2
    assert (d1, d2, p1, p2) == (-3, -227160267, 97, 103)  # past the old cap of 10^8


def _limit_pair_partner_by_the_stream(primes):
    """The first negative fundamental discriminant other than -3 that splits
    as -3 does at each of the primes, read off the whole discriminant stream."""
    from quatrig.arith import kronecker_vec

    for deltas in rigidity._fundamental_blocks(10 ** 8):
        match = (deltas < 0) & (deltas != -3)
        for p in primes:
            match &= kronecker_vec(deltas, p) == kronecker_vec(-3, p)
        if match.any():
            return int(deltas[match.argmax()])


def test_limit_pair_matches_the_stream_walk():
    # the residue-class walk against every discriminant in |delta| order
    # (m = 47: partner -14,496,387); m = 53 and 71 pinned from that walk
    from quatrig.arith import primes_upto

    partners = {}
    for m in range(2, 48):
        primes = tuple(primes_upto(m).tolist())
        if primes not in partners:
            partners[primes] = _limit_pair_partner_by_the_stream(primes)
        assert limit_pair(m)[:2] == (-3, partners[primes]), m
    assert limit_pair(53) == (-3, -14496387, 73, 79)
    assert limit_pair(71) == (-3, -36924963, 73, 103)


def test_length_preserving_family_spec_values():
    fam = length_preserving_family(parse_ram_set("2,3"), [5], 2)
    assert [b.finite_primes for b in fam] == [(2, 3, 7, 13), (2, 3, 7, 17)]
    for b in fam:
        assert embeds(make_field(5), b)
    assert len({b.ramification for b in fam}) == 2
    base = parse_ram_set("2,3").ramification
    for b in fam:
        assert base < b.ramification


def test_length_preserving_family_errors():
    with pytest.raises(ValueError):
        length_preserving_family(parse_ram_set("2,3"), [17], 2)  # 17 splits at 2
    with pytest.raises(ValueError):
        # -3 * -7 * 21 is a square: odd-order relation kills common inert primes
        length_preserving_family(parse_ram_set(""), [-3, -7, 21], 1)


def test_distinguish_brauer_pairs_spec_case():
    l1, l2 = make_field(-3), make_field(-51)
    bl1 = QuaternionAlgebraL(l1, frozenset())
    bl2 = QuaternionAlgebraL(l2, frozenset())
    b = distinguish_brauer_pairs(l1, l2, bl1, bl2)
    from quatrig.brauer import is_restriction

    assert is_restriction(b, l1, bl1) != is_restriction(b, l2, bl2)
    # least |disc| witness: {2,5} (5 splits in -51 only, 2 inert in both)
    assert b.finite_primes == (2, 5)
    assert distinguish_brauer_pairs(l1, l1, bl1, bl1) is None


def test_distinguish_brauer_pairs_nontrivial_ramification():
    qi = make_field(-4)
    q7 = make_field(-7)
    bl1 = parse_ram_set_l("5.1,5.2", qi)
    bl2 = QuaternionAlgebraL(q7, frozenset())
    b = distinguish_brauer_pairs(qi, q7, bl1, bl2)
    from quatrig.brauer import is_restriction

    assert is_restriction(b, qi, bl1) != is_restriction(b, q7, bl2)


def _descended_algebra(delta, primes):
    """The algebra over Q(sqrt(delta)) ramified at both places over each of
    the given split primes."""
    field = make_field(delta)
    return field, QuaternionAlgebraL(field, frozenset(
        v for p in primes for v in places_above(field, PlaceQ.finite(p))))


# (field, descended primes): every prime splits in its field
_BRAUER_CLASSES = [(-3, ()), (-3, (7,)), (-4, ()), (-4, (5,)), (-4, (5, 13)), (-7, ()),
                   (-7, (2,)), (-8, (3,)), (-15, ()), (-15, (2,)), (-20, (3, 7))]


def test_distinguish_brauer_pairs_matches_brute_force(brute_quaternion_algebras):
    # brute force: the least-disc indefinite algebra on which the two
    # restriction maps disagree, over a trial-division listing of algebras
    seen = set()
    for x_max in (10 ** 6, 400, 36):
        indefinite = sorted((b for b in brute_quaternion_algebras(x_max)
                             if not b.ramified_at_infinity), key=lambda b: b.disc_norm)
        for c1, c2 in combinations(_BRAUER_CLASSES + [_BRAUER_CLASSES[0]], 2):
            (l1, bl1), (l2, bl2) = _descended_algebra(*c1), _descended_algebra(*c2)
            if c1 == c2:
                want = None
            else:
                want = next((b for b in indefinite
                             if is_restriction(b, l1, bl1) != is_restriction(b, l2, bl2)),
                            NotFoundWithinBound)
            if want is NotFoundWithinBound:
                with pytest.raises(NotFoundWithinBound):
                    distinguish_brauer_pairs(l1, l2, bl1, bl2, x_max)
            else:
                assert distinguish_brauer_pairs(l1, l2, bl1, bl2, x_max) == want, (c1, c2)
            seen.add(want if want in (None, NotFoundWithinBound) else "witness")
    assert seen == {None, NotFoundWithinBound, "witness"}


def test_distinguish_brauer_pairs_calls_no_restriction(monkeypatch):
    def refuse(*args):
        raise AssertionError("restriction map called")

    for module in (brauer, rigidity):
        for name in ("is_restriction", "restrict"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    l1, bl1 = _descended_algebra(-3, ())
    l2, bl2 = _descended_algebra(-51, ())
    assert distinguish_brauer_pairs(l1, l2, bl1, bl2).finite_primes == (2, 5)


def test_distinguish_brauer_pairs_validation():
    l1 = make_field(-4)
    bad = parse_ram_set_l("3,5.1", l1)
    with pytest.raises(ValueError):
        distinguish_brauer_pairs(l1, l1, bad, bad)
    with pytest.raises(ValueError):
        distinguish_brauer_pairs(make_field(5), l1,
                                 QuaternionAlgebraL(make_field(5), frozenset()),
                                 QuaternionAlgebraL(l1, frozenset()))
    with pytest.raises(ValueError):  # an algebra over another field
        distinguish_brauer_pairs(l1, make_field(-3), QuaternionAlgebraL(l1, frozenset()),
                                 QuaternionAlgebraL(l1, frozenset()))
