"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run pytest -s to see them inline).  Tolerances are
pinned here and nowhere else."""

import math
import time

import numpy as np

from quatrig import arith, asymptotics, census, rigidity
from quatrig.arith import chebyshev_theta, count_squarefree, theta_table
from quatrig.brauer import (
    descends,
    embeds,
    is_restriction,
    parse_ram_set,
    parse_ram_set_l,
    restrict,
)
from quatrig.census import (
    census_division,
    count_division,
    count_embedding_quads,
    count_quat_with_subfields,
    dirichlet_coefficients_csa,
    dirichlet_coefficients_embed,
    fundamental_discriminants,
    splitting_density,
)
from quatrig.fields import INFINITY, PlaceQ, QuadraticField, SplittingType, make_field, splitting
from quatrig.geometry import geodesic_from_field, length_from_trace, surface_census
from quatrig.rigidity import _all_quaternion_algebras, limit_pair, recognizing_bound


def _report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS  {text}")


def test_criterion_01_quaternion_census_exactness():
    start = time.monotonic()
    xs = sorted({(10 ** 10 * (k + 1)) // 50 for k in range(50)})
    table = census_division(2, xs)
    for x, c in table.rows():
        assert c == count_squarefree(math.isqrt(x)) - 1, x
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, f"50 thresholds to 1e10 match the squarefree oracle in {elapsed:.1f}s")


def test_criterion_02_delta2_reproduction():
    d2 = asymptotics.delta_n(2, 10 ** 6)
    assert abs(d2.value - 6 / math.pi ** 2) < 1e-4
    ratio = count_division(2, 10 ** 10) / (d2.value * 10 ** 5)
    assert 0.98 <= ratio <= 1.02
    _report(2, f"delta_2 = {d2.value:.8f}, census/model = {ratio:.6f}")


def test_criterion_03_n3_identity_and_growth():
    start = time.monotonic()
    xs = sorted({(10 ** 12 * (k + 1)) // 20 for k in range(20)})
    table = census_division(3, xs)  # raises on direct vs inclusion-exclusion mismatch
    d3 = asymptotics.delta_n(3, 10 ** 5)
    x = 10 ** 12
    ratio = table.counts[-1] / (d3.value * x ** (1 / 6) * math.log(x))
    assert 0.5 <= ratio <= 2.0
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(3, f"20 identity checks to 1e12, count/model = {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_04_dirichlet_coefficient_oracle():
    n_max = 10 ** 4
    for m, n in ((2, 2), (3, 3)):
        coeffs = dirichlet_coefficients_csa(m, n, n_max)
        by_disc = dict(census._csa_disc_counts(m, n, n_max))
        for big_n in range(1, n_max + 1):
            assert coeffs[big_n] == by_disc.get(big_n, 0), (m, n, big_n)
    for deltas in ((-4,), (-3, 5)):
        coeffs = dirichlet_coefficients_embed(deltas, n_max)
        running = 0
        probe = sorted({(n_max * (k + 1)) // 40 for k in range(40)})
        partial = {}
        for big_n in range(1, n_max + 1):
            running += coeffs[big_n]
            partial[big_n] = running
        for x in probe:
            assert partial[x] == count_quat_with_subfields(deltas, x), (deltas, x)
    _report(4, "csa(2,2), csa(3,3), embed([-4]), embed([-3,5]) equal their censuses to 1e4")


def test_criterion_05_embedding_count_lower_bound():
    x = 10 ** 6
    for text in ("2,inf", "2,3", "2,3,5,inf"):
        b = parse_ram_set(text)
        lb = asymptotics.embed_quads_lower_bound(b)
        ratio = count_embedding_quads(b, x) / x
        assert ratio >= lb.value - 0.002, text
    _report(5, "count/x clears the 2^-r_B / zeta(2) lower bound for all three algebras")


def test_criterion_06_subfield_constrained_count():
    x = 10 ** 8
    c = asymptotics.embed_constant_r1(-4, 10 ** 6)
    model = c.value * 10 ** 4 / math.sqrt(math.log(x))
    ratio = count_quat_with_subfields([-4], x) / model
    assert 0.7 <= ratio <= 1.3
    _report(6, f"count/(delta sqrt(x)/sqrt(log x)) = {ratio:.4f} at x = 1e8")


def test_criterion_07_wood_densities():
    x = 10 ** 6
    s, _, r = splitting_density(INFINITY, x)
    assert abs(float(s) - 0.5) < 0.005 and abs(float(r) - 0.5) < 0.005
    for p in (3, 5, 7):
        sp, ip, _ = splitting_density(PlaceQ.finite(p), x)
        assert abs(float(sp) - float(ip)) < 0.005, p
    _report(7, "real-place 0.5/0.5 and split==inert at p = 3, 5, 7 within 0.005")


def test_criterion_08_theta_bound():
    limit = 10 ** 6
    table = theta_table(limit)
    xs = np.arange(3, limit + 1, dtype=np.float64)
    bound = 21 * xs / np.log(xs) ** 3 + xs
    margin = bound - table[3:]
    assert margin.min() > 1e-9
    # spot-check the table against the compensated scalar evaluation
    for x in (3, 100, 12345, 999983, limit):
        assert abs(table[x] - chebyshev_theta(x)) < 1e-9
    _report(8, f"theta(x) <= 21x/log^3 x + x for all 2 < x <= 1e6 (min margin {margin.min():.2f})")


def test_criterion_09_length_dictionary():
    assert f"{length_from_trace(3):.9f}" == "1.924847300"
    count = 0
    for delta in fundamental_discriminants(10 ** 4).tolist():
        if delta <= 0:
            continue
        g = geodesic_from_field(int(delta))  # raises if the two forms differ > 1e-9
        arccosh_form = length_from_trace(g.trace)
        assert abs(arccosh_form - g.length) < 1e-9
        count += 1
    _report(9, f"Pell-unit and arccosh lengths agree to 1e-9 for {count} fields")


def test_criterion_10_abhn_and_descent_roundtrip():
    start = time.monotonic()
    algebras = _all_quaternion_algebras(10 ** 4)
    deltas = [int(d) for d in fundamental_discriminants(500).tolist()]
    checked = 0
    for b in algebras:
        for d in deltas:
            f = QuadraticField(d)
            bl = restrict(b, f)
            via_embeds = embeds(f, b)
            via_restrict = bl.is_split
            via_scan = all(splitting(f, v) is not SplittingType.SPLIT
                           for v in b.ramification)
            assert via_embeds == via_restrict == via_scan
            got = descends(bl)
            expected = frozenset(p for p in b.finite_primes
                                 if splitting(f, PlaceQ.finite(p)) is SplittingType.SPLIT)
            assert got == expected
            assert is_restriction(b, f, bl)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(10, f"{checked} (delta, B) pairs, zero violations, {elapsed:.1f}s")


def test_criterion_11_rigidity_scan():
    report = rigidity.rigidity_scan(10 ** 4, 10 ** 6)
    assert report.all_distinguished
    bound = recognizing_bound(1, 1, 10 ** 4)
    assert math.log10(report.max_abs_delta) <= bound.log10
    from quatrig.cli import main

    assert main(["--format", "json", "--out", "/dev/null",
                 "rigidity", "scan", "--x", "10000", "--delta-max", "1000000"]) == 0
    _report(11, f"{len(report.pairs)} pairs distinguished, max |delta| = "
                f"{report.max_abs_delta} << 10^{bound.log10:.0f}")


def test_criterion_12_limit_pairs():
    start = time.monotonic()
    for m in range(2, 14):
        d1, d2, p1, p2 = limit_pair(m)
        f1, f2 = QuadraticField(d1), QuadraticField(d2)
        for p in arith.shared_sieve(m).primes_upto(m).tolist():
            v = PlaceQ.finite(int(p))
            assert splitting(f1, v) == splitting(f2, v), (m, p)
        assert splitting(f1, PlaceQ.finite(p1)) is SplittingType.SPLIT
        assert splitting(f2, PlaceQ.finite(p1)) is SplittingType.INERT
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(12, f"limit pairs for m = 2..13 replay exactly, {elapsed:.1f}s")


def test_criterion_13_surface_census_cross_check(brute_quaternion_algebras):
    x = 10 ** 8
    qi = make_field(-4)
    bl = parse_ram_set_l("5.1,5.2", qi)
    rows = surface_census(bl, x)
    count = len(rows)
    # independent enumeration: restrict-and-compare over all indefinite algebras
    brute = sum(1 for b in brute_quaternion_algebras(x)
                if not b.ramified_at_infinity and is_restriction(b, qi, bl))
    assert count == brute
    # engine-based prediction: the subfield census at the 5-scaled threshold,
    # halved because the descent set fixes the parity of the remaining primes
    prediction = count_quat_with_subfields([-4], x // 25) / 2
    ratio = count / prediction
    assert 0.6 <= ratio <= 1.4
    _report(13, f"count = {count} = independent enumeration; count/prediction = {ratio:.3f}")
