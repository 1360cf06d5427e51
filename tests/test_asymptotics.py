import math
from fractions import Fraction

import pytest

from quatrig.arith import divisors
from quatrig.asymptotics import (
    EulerProductValue,
    delta_mn,
    delta_n,
    embed_constant_general,
    embed_constant_r1,
    embed_quads_lower_bound,
    model_division,
    model_embed,
    prediction_report,
)
from quatrig.brauer import parse_ram_set
from quatrig.census import (
    DependentDiscriminants,
    census_division,
    census_embedding_quads,
    census_quat_with_subfields,
)


def _delta_mn_oracle(m, n, cutoff):
    """delta_mn by one Euler product per j = 0, l, 2l, ... < m, each factor
    summed per prime as written: nothing shared between the j, and no
    vector of Ramanujan sums evaluated once for several j."""
    from quatrig.arith import divisors, factorize, primes_upto, ramanujan_sum

    ell = factorize(n)[0][0]
    if m % ell != 0:
        return EulerProductValue(0.0, cutoff, 0.0)
    pref = 1.0 / (m * math.factorial(ell - 2)) / (n * n * (1 - 1 / ell)) ** (ell - 2)
    if m % 2 == 0:
        pref *= 2
    extra = [(d, (1 - 1 / d) / (1 - 1 / ell)) for d in divisors(m) if d > ell]
    min_extra = min((e for _, e in extra), default=2.0)
    total = tail = 0.0
    for j in range(0, m, ell):
        coeffs = [(d, ramanujan_sum(d, j), e) for d, e in extra]
        logs = []
        for p in primes_upto(cutoff).tolist():
            term = 1.0 + (ell - 1) / p
            for d, c, e in coeffs:
                if c:
                    term += c / p ** e
            logs.append(math.log(term) + (ell - 1) * math.log1p(-1.0 / p))
        total += math.exp(math.fsum(logs))
        bound = (ell - 1) ** 2 + sum(abs(c) for _, c, _ in coeffs) + ell
        tail += bound * cutoff ** (1 - min(2.0, min_extra)) / (min(2.0, min_extra) - 1)
    return EulerProductValue(pref * total, cutoff, tail)


@pytest.mark.parametrize("n_max, cutoff", [(12, 10 ** 5), (40, 10 ** 3)])
def test_delta_mn_matches_the_per_j_oracle_to_the_last_bit(n_max, cutoff):
    for n in range(2, n_max + 1):
        for m in divisors(n):
            assert repr(delta_mn(m, n, cutoff)) == repr(_delta_mn_oracle(m, n, cutoff)), (m, n)


def test_delta_mn_structural_zero():
    assert delta_mn(1, 2, 100).value == 0.0
    assert delta_mn(1, 3, 100).value == 0.0
    assert delta_mn(3, 6, 1000).value == 0.0  # least prime factor 2 does not divide 3


def test_delta_22_matches_closed_form():
    val = delta_mn(2, 2, 10 ** 6)
    assert abs(val.value - 6 / math.pi ** 2) < 1e-4
    assert val.tail_estimate < 1e-5


def test_delta_33_matches_independent_evaluation():
    # independent route: the prime-n display prod (1 + 2/p)(1 - 1/p)^2 / 18
    from quatrig.arith import primes_upto

    primes = primes_upto(10 ** 5)
    logs = [math.log(1 + 2 / p) + 2 * math.log1p(-1 / p) for p in primes.tolist()]
    expected = math.exp(math.fsum(logs)) / 18
    got = delta_mn(3, 3, 10 ** 5)
    assert got.value > 0
    assert abs(got.value - expected) < 1e-12


def test_delta_n_collapses_and_positive():
    assert abs(delta_n(2, 10 ** 6).value - 6 / math.pi ** 2) < 1e-4
    assert delta_n(3, 10 ** 5).value == delta_mn(3, 3, 10 ** 5).value
    d4 = delta_n(4, 10 ** 5)
    assert d4.value > 0
    assert abs(d4.value - (delta_mn(4, 4, 10 ** 5).value
                           - delta_mn(2, 4, 10 ** 5).value)) < 1e-15


def test_delta_n_cutoff_stability():
    a = delta_n(2, 10 ** 4).value
    b = delta_n(2, 10 ** 6).value
    assert abs(a - b) < 1e-3


def test_tail_estimate_decreases():
    assert delta_mn(2, 2, 10 ** 6).tail_estimate < delta_mn(2, 2, 10 ** 4).tail_estimate


def test_embed_quads_lower_bound():
    lb = embed_quads_lower_bound(parse_ram_set("2,inf"))
    assert lb.coefficient == Fraction(1, 4)
    assert abs(lb.value - (6 / math.pi ** 2) / 4) < 1e-12
    assert embed_quads_lower_bound(parse_ram_set("")).coefficient == 1
    assert embed_quads_lower_bound(parse_ram_set("2,3,5,inf")).coefficient == Fraction(1, 16)


def test_embed_constant_r1_values():
    c = embed_constant_r1(-4, 10 ** 5)
    assert c.value > 0
    # census calibration at x = 1e8 (the acceptance band is [0.7, 1.3])
    from quatrig.census import count_quat_with_subfields

    x = 10 ** 8
    ratio = count_quat_with_subfields([-4], x) / (c.value * math.sqrt(x) / math.sqrt(math.log(x)))
    assert 0.9 < ratio < 1.1
    c5 = embed_constant_r1(5, 10 ** 5)
    assert 0 < c5.value < c.value  # r1' = 0 branch carries 2^(-1/2) instead of 2^(1/2)


def test_embed_constant_general_reduces_to_r1():
    for delta in (-4, -3, 5, 8):
        a = embed_constant_r1(delta, 10 ** 4).value
        b = embed_constant_general([delta], 10 ** 4).value
        assert abs(a - b) < 1e-6


@pytest.mark.parametrize("delta", [109321, 1000033])
@pytest.mark.parametrize("cutoff", [10 ** 3, 10 ** 5])
def test_embed_constant_r1_keeps_a_ramified_prime_past_the_cutoff(delta, cutoff):
    # delta is a prime past the cutoff: its Euler factor (1 + 1/p)(1 - 1/p)^(1/2)
    # is 1 + O(1/p), so dropping it would move the value by about 1/(2p)
    a = embed_constant_r1(delta, cutoff).value
    b = embed_constant_general([delta], cutoff).value
    assert abs(a - b) <= 1e-12 * b


def test_embed_constant_general_r2():
    c = embed_constant_general([-4, 5], 10 ** 5)
    assert c.value > 0
    from quatrig.census import count_quat_with_subfields

    x = 10 ** 10
    ratio = count_quat_with_subfields([-4, 5], x) / model_embed(2, x, c)
    assert 0.9 < ratio < 1.1
    with pytest.raises(DependentDiscriminants):
        embed_constant_general([-3, 5, -15], 10 ** 4)


def _embed_constant_general_oracle(deltas, cutoff):
    """embed_constant_general's value with every subset's symbol, sign and
    log1p formed again at every prime: no table of character patterns and no
    log1p shared between the subsets."""
    from itertools import combinations

    from quatrig.arith import (dirichlet_L, factorize, kronecker_symbol, prime_list,
                               product_discriminant)

    r = len(deltas)
    ram_primes = sorted({p for d in deltas for p, _ in factorize(d)})
    subsets = [t for k in range(1, r + 1) for t in combinations(range(r), k)]
    d_t = {t: product_discriminant([deltas[i] for i in t]) for t in subsets}
    log_bracket = math.fsum(math.log1p(-1.0 / p) for p in ram_primes)
    for t in subsets:
        sign = -1 if len(t) % 2 else 1
        corr = math.fsum(math.log1p(-kronecker_symbol(d_t[t], p) / p) for p in ram_primes)
        log_bracket += sign * (math.log(float(dirichlet_L(d_t[t], 1))) + corr)
    q0 = [p for p in ram_primes if all(kronecker_symbol(d, p) != 1 for d in deltas)]
    logs = []
    for p in prime_list(cutoff):
        if p in ram_primes:
            continue
        chis = [kronecker_symbol(d, p) for d in deltas]
        w = 1.0 if all(c == -1 for c in chis) else 0.0
        term = (2 ** r) * math.log1p(w / p)
        term += math.log1p(-1.0 / p)
        for t in subsets:
            sign = -1 if len(t) % 2 else 1
            term += sign * math.log1p(-math.prod(chis[i] for i in t) / p)
        logs.append(term)
    inv2r = 1.0 / 2 ** r
    r1p = 1 if all(d < 0 for d in deltas) else 0
    return (2 ** (r1p - inv2r) / math.gamma(inv2r)
            * math.exp(math.fsum(math.log1p(1.0 / p) for p in q0))
            * math.exp(inv2r * (log_bracket + math.fsum(logs))))


@pytest.mark.parametrize("deltas", [(-4, 5), (-7, 8), (5, 109321), (-3, 8, 13),
                                    (-4, 5, -7), (-4, 5, -7, 13), (-3, -4, 5, 8)])
@pytest.mark.parametrize("cutoff", [7, 10 ** 3, 10 ** 5])
def test_embed_constant_general_matches_the_per_subset_loop(deltas, cutoff):
    # the sign and split/inert of every subset are read off one table per
    # pattern of the fields' symbols; the terms must come out bit for bit
    assert embed_constant_general(deltas, cutoff).value == _embed_constant_general_oracle(
        deltas, cutoff)


def test_prediction_report_division():
    rows = prediction_report("division:2", [10 ** 6, 10 ** 8], 10 ** 5)
    table = census_division(2, [10 ** 6, 10 ** 8])
    assert [(r["x"], r["count"]) for r in rows] == table.rows()
    for r in rows:
        assert 0.95 < r["ratio"] < 1.05


def test_prediction_report_embed():
    rows = prediction_report("embed:-4", [10 ** 6], 10 ** 5)
    assert rows[0]["count"] == census_quat_with_subfields([-4], [10 ** 6]).counts[0]
    assert 0.7 < rows[0]["ratio"] < 1.3


def test_prediction_report_quads():
    rows = prediction_report("quads:2,inf", [10 ** 5], 10 ** 4)
    assert rows[0]["count"] == census_embedding_quads(parse_ram_set("2,inf"), [10 ** 5]).counts[0]
    assert rows[0]["meets_bound"]
    assert rows[0]["count_over_x"] >= rows[0]["lower_bound"] - 0.002


def test_model_shapes():
    const = delta_n(3, 10 ** 4)
    assert model_division(3, 10 ** 12, const) == pytest.approx(
        const.value * 100 * math.log(10 ** 12))


@pytest.mark.parametrize("model", ["bogus:1", "division:x", "division", ""])
def test_prediction_report_rejects_unknown_models(model):
    with pytest.raises(ValueError):
        prediction_report(model, [100], 100)
