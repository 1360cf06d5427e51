import itertools
import math
import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from quatrig import arith
from quatrig.arith import (
    InvalidDiscriminant,
    SieveBudgetError,
    SieveTable,
    chebyshev_theta,
    class_number,
    class_number_imaginary,
    count_squarefree,
    PRECISION_BITS,
    dirichlet_L,
    divisors,
    euler_phi,
    factorize,
    iroot,
    is_fundamental_discriminant,
    kronecker_symbol,
    kronecker_vec,
    mobius,
    pell_fundamental,
    prime_list,
    primes_upto,
    ramanujan_sum,
    squarefree_kernel,
    squarefree_products,
    zeta_k_at_2,
)
from quatrig.fields import make_field
from quatrig.fields import regulator as fields_regulator


def test_kronecker_spec_values():
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(12, 3) == 0


def test_kronecker_matches_legendre_for_odd_primes():
    for p in (3, 5, 7, 11, 13, 97):
        squares = {pow(a, 2, p) for a in range(1, p)}
        for a in range(-30, 30):
            if a % p == 0:
                assert kronecker_symbol(a, p) == 0
            else:
                expected = 1 if a % p in squares else -1
                assert kronecker_symbol(a, p) == expected


def test_kronecker_multiplicative_in_modulus():
    rng = random.Random(7)
    for _ in range(10 ** 4):
        d = rng.randint(-500, 500)
        m = rng.randint(1, 300)
        n = rng.randint(1, 300)
        assert kronecker_symbol(d, m * n) == kronecker_symbol(d, m) * kronecker_symbol(d, n)


def test_kronecker_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        kronecker_symbol(5, 0)


_SMALL_PRIMES = [p for p in range(2, 400) if all(p % d for d in range(2, isqrt(p) + 1))]
_FUNDAMENTALS = [d for d in range(-2000, 2001) if is_fundamental_discriminant(d)]
# odd parts with prime factors past the residue-table size
_LARGE_FUNDAMENTALS = [d for d in range(10 ** 9, 10 ** 9 + 60) if is_fundamental_discriminant(d)]
_LARGE_FUNDAMENTALS += [d for d in range(-10 ** 10 - 60, -10 ** 10) if is_fundamental_discriminant(d)]


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(_SMALL_PRIMES + [7919, 2 ** 31 - 1]),
       deltas=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=40),
       multiples=st.lists(st.integers(-50, 50), max_size=5))
def test_kronecker_vec_deltas_at_a_prime(p, deltas, multiples):
    # includes multiples of p and, at p = 2, even and odd a in every class mod 8
    a = deltas + [k * p for k in multiples]
    got = kronecker_vec(np.array(a, dtype=np.int64), p)
    assert got.tolist() == [kronecker_symbol(d, p) for d in a]


@settings(max_examples=80, deadline=None)
@given(delta=st.sampled_from([-4, 8, -8]) | st.sampled_from(_FUNDAMENTALS)
       | st.sampled_from(_LARGE_FUNDAMENTALS),
       ns=st.lists(st.integers(1, 10 ** 6), max_size=40),
       evens=st.lists(st.integers(1, 10 ** 5), max_size=5),
       periods=st.lists(st.integers(1, 200), max_size=5))
def test_kronecker_vec_discriminant_at_many_n(delta, ns, evens, periods):
    # even n, and n = 0 mod |delta|, next to arbitrary positive n
    n = ns + [2 * k for k in evens] + [k * abs(delta) for k in periods]
    got = kronecker_vec(delta, np.array(n, dtype=np.int64))
    assert got.tolist() == [kronecker_symbol(delta, k) for k in n]


def test_kronecker_vec_rejects_bad_input():
    with pytest.raises(ValueError):
        kronecker_vec(np.arange(10), 9)  # the table direction needs a prime
    for d in (-12, 0, 9, 45):
        with pytest.raises(InvalidDiscriminant):
            kronecker_vec(d, np.arange(1, 10))


def _mu_brute(n):
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _phi_brute(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_sieve_values_and_invariants():
    assert mobius(1) == 1 and euler_phi(1) == 1
    assert mobius(6) == 1 and euler_phi(6) == 2
    for n in range(1, 501):
        assert mobius(n) == _mu_brute(n)
        assert (mobius(n) == 0) == any(e > 1 for _, e in factorize(n))
        assert sum(mobius(d) for d in range(1, n + 1) if n % d == 0) == (1 if n == 1 else 0)
    for n in range(2, 200):
        assert euler_phi(n) == _phi_brute(n)
    # phi multiplicative on coprime arguments
    for a, b in [(3, 8), (5, 9), (7, 25), (11, 13)]:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_fundamental_flags():
    assert is_fundamental_discriminant(-8)
    assert not is_fundamental_discriminant(-12)
    assert is_fundamental_discriminant(12)
    assert not is_fundamental_discriminant(1)
    assert not is_fundamental_discriminant(4)
    assert is_fundamental_discriminant(-163)


_BRUTE_LIMIT = 5000
_BRUTE_MU = [0] + [_mu_brute(n) for n in range(1, _BRUTE_LIMIT + 1)]
_BRUTE_PRIMES = [n for n in range(2, _BRUTE_LIMIT + 1)
                 if all(n % d for d in range(2, isqrt(n) + 1))]


def _check_sieve(limit):
    t = SieveTable(limit)
    assert t.limit == limit
    assert t.primes.dtype == np.int64 and not t.primes.flags.writeable
    expected = [p for p in _BRUTE_PRIMES if p <= limit] if limit <= _BRUTE_LIMIT else [
        n for n in range(2, limit + 1) if all(n % d for d in range(2, isqrt(n) + 1))]
    assert t.primes.tolist() == expected
    assert t.prime_list == expected and all(type(p) is int for p in t.prime_list)
    assert t.flags.readonly and t.flags.nbytes == (limit + 1) // 2  # a byte per odd integer


@pytest.mark.parametrize("limits", [range(1, 201), range(9990, 10011)])
def test_both_views_match_trial_division(limits):
    for limit in limits:
        _check_sieve(limit)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 47, 67])
def test_sieve_around_prime_squares(p):
    # from limit = p^2 on, p strikes its multiples
    for limit in (p * p - 1, p * p, p * p + 1):
        if limit >= 1:
            _check_sieve(limit)


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(1, _BRUTE_LIMIT))
def test_sieve_matches_trial_division(limit):
    _check_sieve(limit)


def test_primes_upto_and_mobius(monkeypatch):
    for x in (-5, 0, 1):
        got = primes_upto(x)
        assert got.dtype == np.int64 and got.size == 0
    assert primes_upto(2).tolist() == [2]
    monkeypatch.setattr(arith, "_SHARED", SieveTable(100))
    assert primes_upto(1000).tolist() == [p for p in _BRUTE_PRIMES if p <= 1000]
    assert primes_upto(1).size == 0 and arith._SHARED.limit >= 1000  # grown, never shrunk
    assert [mobius(n) for n in range(1, _BRUTE_LIMIT + 1)] == _BRUTE_MU[1:]
    with pytest.raises(ValueError):
        mobius(0)


def test_prime_list_matches_primes_upto_across_a_regrown_table(monkeypatch):
    monkeypatch.setattr(arith, "_SHARED", SieveTable(100))
    assert prime_list(97) == primes_upto(97).tolist() == [p for p in _BRUTE_PRIMES if p <= 97]
    for x in (-5, 0, 1):
        assert prime_list(x) == []
    table = arith._SHARED
    assert prime_list(3000) == [p for p in _BRUTE_PRIMES if p <= 3000]
    assert arith._SHARED is not table and arith._SHARED.limit == 10 ** 4  # regrown to the floor
    for x in (2, 3, 100, 2999, 3000, 10 ** 4):
        assert prime_list(x) == primes_upto(x).tolist()
    assert prime_list(10 ** 4 + 1) == primes_upto(10 ** 4 + 1).tolist()  # grown once more
    assert arith._SHARED.limit == 10 ** 4 + 1
    shared = arith._SHARED.prime_list
    prime_list(50).append(-1)  # a caller's list is its own
    assert arith._SHARED.prime_list is shared and shared[-1] == 9973


def test_sieve_budget():
    with pytest.raises(SieveBudgetError):
        SieveTable(10 ** 10)
    with pytest.raises(ValueError):
        SieveTable(0)


def test_count_squarefree():
    assert count_squarefree(1) == 1
    assert count_squarefree(10) == 7
    assert count_squarefree(0) == 0
    c = count_squarefree(10 ** 5)
    assert abs(c - (6 / math.pi ** 2) * 10 ** 5) < 200
    with pytest.raises(ValueError):
        count_squarefree(-1)


def test_mu_and_squarefree_counts_build_no_sieve(monkeypatch):
    # 10^10 is past the sieve budget; the Moebius sum takes mu(d) for
    # d <= 10^5 by trial division (OEIS A071172: 6079270942)
    monkeypatch.setattr(arith, "_SHARED", None)
    assert count_squarefree(10 ** 10) == 6079270942
    assert mobius(10 ** 12 + 39) == -1  # a prime
    assert mobius(2 * 3 * 5 * 999983) == 1 and mobius(4 * 999983) == 0
    assert arith._SHARED is None


def test_squarefree_counts_at_ascending_thresholds():
    xs = [0, 1, 3, 4, 8, 9, 24, 25, 26, 1000, _BRUTE_LIMIT]
    assert arith.squarefree_counts(xs) == [
        sum(1 for m in _BRUTE_MU[1:x + 1] if m) for x in xs]
    assert [count_squarefree(x) for x in xs] == arith.squarefree_counts(xs)


def test_squarefree_kernel():
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(-20) == -5
    assert squarefree_kernel(36) == 1
    assert squarefree_kernel(1) == 1


def test_ramanujan_spec_values():
    assert ramanujan_sum(1, 5) == 1
    assert ramanujan_sum(6, 2) == -1
    assert ramanujan_sum(6, 0) == 2


def test_ramanujan_matches_trigonometric_sum():
    for q in range(1, 121):
        for j in (-60, -7, -1, 0, 1, 2, 3, 30, 60):
            direct = sum(math.cos(2 * math.pi * a * j / q)
                         for a in range(1, q + 1) if math.gcd(a, q) == 1)
            val = ramanujan_sum(q, j)
            assert abs(val - direct) < 1e-6
            assert isinstance(val, int)
    rng = random.Random(11)
    for _ in range(200):
        q = rng.randint(121, 500)
        j = rng.randint(-500, 500)
        direct = sum(math.cos(2 * math.pi * a * j / q)
                     for a in range(1, q + 1) if math.gcd(a, q) == 1)
        assert abs(ramanujan_sum(q, j) - direct) < 1e-6


def test_theta():
    assert chebyshev_theta(1) == 0.0
    # direct fsum over the 25 primes below 100
    primes = [p for p in range(2, 101) if all(p % d for d in range(2, isqrt(p) + 1))]
    direct = math.fsum(math.log(p) for p in primes)
    assert abs(chebyshev_theta(100) - direct) < 1e-9
    for x in (10, 1000, 54321):
        assert chebyshev_theta(x) <= 21 * x / math.log(x) ** 3 + x


def test_theta_table_matches_scalar(theta_table):
    table = theta_table(3000)
    for x in (2, 3, 100, 1000, 2999):
        assert abs(table[x] - chebyshev_theta(x)) < 1e-9


def _pell_brute(delta, cap=4000):
    for u in range(1, cap):
        for sign in (-4, 4):
            t2 = delta * u * u + sign
            if t2 > 0:
                t = isqrt(t2)
                if t * t == t2:
                    return t, u, sign // 4
    return None


def test_pell_spec_values():
    s = pell_fundamental(5)
    assert (s.t, s.u, s.norm) == (1, 1, -1) and (s.t1, s.u1) == (3, 1)
    s = pell_fundamental(8)
    assert (s.t, s.u, s.norm) == (2, 1, -1) and (s.t1, s.u1) == (6, 2)
    s = pell_fundamental(12)
    assert (s.t1, s.u1) == (4, 1) and s.norm == 1
    s = pell_fundamental(61)
    assert (s.t, s.u, s.norm) == (39, 5, -1)


def test_pell_against_brute_force():
    for delta in range(2, 2000):
        if not is_fundamental_discriminant(delta):
            continue
        s = pell_fundamental(delta)
        assert s.t * s.t - delta * s.u * s.u == 4 * s.norm
        assert s.t1 * s.t1 - delta * s.u1 * s.u1 == 4
        brute = _pell_brute(delta)
        if brute is not None:
            assert (s.t, s.u, s.norm) == brute
        else:
            assert s.u > 3999  # solution out of brute-force reach, identity already checked


def _pell_full_period(delta):
    """(t, u, norm, t1, u1) from whole periods of omega = (b + sqrt(delta))/2:
    q_{k-1}*omega + q_{k-2} is the fundamental unit when the complete
    quotients first return to omega (after l steps, norm (-1)^l), and the
    norm-one unit when they first return after an even number of steps."""
    root = isqrt(delta)
    b = root - (root - delta) % 2
    pp, qq, q_prev, q_cur, steps, units = b, 2, 1, 0, 0, []
    while True:
        a = (pp + root) // qq
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        pp = a * qq - pp
        qq = (delta - pp * pp) // qq
        steps += 1
        if (pp, qq) == (b, 2):
            units.append((b * q_cur + 2 * q_prev, q_cur))
            if steps % 2 == 0:
                break
    (t, u), (t1, u1) = units[0], units[-1]
    return t, u, (-1) ** (steps // len(units)), t1, u1


def test_pell_half_period_matches_the_full_period():
    # the palindromic half period gives the same integers as the whole one
    deltas = [d for d in range(2, 2 * 10 ** 5) if is_fundamental_discriminant(d)]
    assert len(deltas) == 60788
    for delta in deltas:
        s = pell_fundamental(delta)
        assert (s.t, s.u, s.norm, s.t1, s.u1) == _pell_full_period(delta), delta


def test_pell_known_unit_past_brute_force():
    # x^2 - 94 y^2 = 1 at (2143295, 221064), and 94 has no norm -1 unit
    s = pell_fundamental(376)
    assert (s.t, s.u, s.norm) == (2 * 2143295, 221064, 1)
    assert (s.t1, s.u1) == (s.t, s.u)


def test_pell_class_number_formula_integrality():
    # past the brute-force cap t^2 - delta u^2 = +-4 holds for every power of
    # the unit; sqrt(delta) L(1, chi) / (2 log eps) = h is an integer only for
    # the fundamental one, and the digamma L-value shares nothing with the
    # continued fraction (dirichlet_L itself is built on the regulator)
    candidates = [d for d in range(2001, 10 ** 4)
                  if is_fundamental_discriminant(d) and pell_fundamental(d).u > 3999]
    for delta in random.Random(376).sample(candidates, 12):
        sol = pell_fundamental(delta)
        with mp.workprec(PRECISION_BITS):
            log_eps = mp.log((sol.t + sol.u * mp.sqrt(delta)) / 2)
            h = mp.sqrt(delta) * _L1_digamma(delta) / (2 * log_eps)
            assert mp.nint(h) >= 1 and abs(h - mp.nint(h)) < 1e-12, (delta, h)


def test_pell_norm_one_minimality():
    # no smaller u' admits a norm-one solution (checked within brute reach)
    for delta in (5, 8, 12, 13, 21, 24, 28, 29, 33, 40, 61, 76, 85, 89, 92, 97):
        s = pell_fundamental(delta)
        for u in range(1, min(s.u1, 3000)):
            t2 = delta * u * u + 4
            t = isqrt(t2)
            assert t * t != t2


def test_pell_rejects_bad_input():
    with pytest.raises(InvalidDiscriminant):
        pell_fundamental(-4)
    with pytest.raises(InvalidDiscriminant):
        pell_fundamental(10)


@pytest.mark.parametrize("entry", [pell_fundamental, class_number,
                                   lambda d: dirichlet_L(d, 1), lambda d: dirichlet_L(d, 2)],
                         ids=["pell_fundamental", "class_number", "L(1)", "L(2)"])
def test_public_entries_check_the_discriminant_once(monkeypatch, entry):
    for bad in (9, 20, 45, 1) + ((-12, -16, -27) if entry is not pell_fundamental else ()):
        with pytest.raises(InvalidDiscriminant):
            entry(bad)
    # the inner calls (class_number and Pell inside L, Pell inside
    # class_number) take the checked delta as it is
    calls = []
    check = arith.is_fundamental_discriminant
    monkeypatch.setattr(arith, "is_fundamental_discriminant", lambda d: calls.append(d) or check(d))
    entry(13)
    assert calls == [13]


def _regulator_oracle(sol):
    with mp.workprec(PRECISION_BITS):
        return mp.log((sol.t + sol.u * mp.sqrt(sol.delta)) / 2)


def test_regulator_bits_match_mpmath_log():
    # the libmp steps give the bits of the workprec expression, to the last one
    near_1e7 = [d for d in range(10 ** 7 - 40, 10 ** 7 + 40) if is_fundamental_discriminant(d)]
    deltas = [d for d in range(2, 2 * 10 ** 4) if is_fundamental_discriminant(d)] + near_1e7
    assert len(near_1e7) >= 10
    for delta in deltas:
        sol = pell_fundamental(delta)
        got = sol.regulator()
        assert isinstance(got, mp.mpf)
        assert got._mpf_ == _regulator_oracle(sol)._mpf_, delta
    for delta in near_1e7[:3]:
        oracle = _regulator_oracle(pell_fundamental(delta))
        assert fields_regulator(make_field(delta))._mpf_ == oracle._mpf_


def test_class_numbers():
    assert class_number_imaginary(-3) == 1
    assert class_number_imaginary(-4) == 1
    assert class_number_imaginary(-23) == 3
    assert class_number_imaginary(-47) == 5
    assert class_number_imaginary(-163) == 1
    with pytest.raises(InvalidDiscriminant):
        class_number_imaginary(5)


def test_real_class_numbers():
    known = {5: 1, 8: 1, 12: 1, 13: 1, 60: 2, 145: 4, 229: 3, 316: 3, 328: 4, 401: 5}
    assert {d: class_number(d) for d in known} == known
    assert class_number(-23) == 3
    for bad in (1, 45, -72):
        with pytest.raises(InvalidDiscriminant):
            class_number(bad)


def _brute_reduced_forms(delta: int) -> int:
    """The reduced definite forms of discriminant delta < 0, by a over
    a^2 <= |delta|/3 and every b in (-a, a]."""
    count = 0
    for a in range(1, isqrt(-delta // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - delta) % (4 * a) == 0:
                c = (b * b - delta) // (4 * a)
                count += a <= c and not (a == c and b < 0)
    return count


def test_class_number_imaginary_against_brute_force():
    for delta in range(-1999, 0):
        if is_fundamental_discriminant(delta):
            assert class_number_imaginary(delta) == _brute_reduced_forms(delta), delta


def test_dirichlet_L_spec_values():
    assert abs(float(dirichlet_L(-4, 1)) - math.pi / 4) < 1e-12
    assert abs(float(dirichlet_L(-4, 2)) - float(mp.catalan)) < 1e-9
    phi = (1 + math.sqrt(5)) / 2
    assert abs(float(dirichlet_L(5, 1)) - 2 * math.log(phi) / math.sqrt(5)) < 1e-12
    with pytest.raises(InvalidDiscriminant):
        dirichlet_L(45, 1)


# Independent L(1, chi) routes: scalar kronecker_symbol on every term, so
# neither shares the vector kernel behind dirichlet_L.

def _L1_character_sum(delta: int):
    """pi * |sum chi(a) a| / |delta|^(3/2) for delta < 0."""
    q = -delta
    total = sum(a * kronecker_symbol(delta, a) for a in range(1, q))
    with mp.workprec(PRECISION_BITS):
        return -mp.pi * total / mp.mpf(q) ** mp.mpf(1.5)


def _L1_digamma(delta: int):
    """-(1/q) sum chi(a) psi(a/q)."""
    q = abs(delta)
    with mp.workprec(PRECISION_BITS):
        total = mp.mpf(0)
        for a in range(1, q):
            chi = kronecker_symbol(delta, a)
            if chi:
                total += chi * mp.digamma(mp.mpf(a) / q)
        return -total / q


def _L1_log_sine(delta: int):
    """-(1/sqrt(q)) sum chi(a) log sin(pi a/q) for delta > 0, at the working
    precision of dirichlet_L; chi is even, so the terms pair up at a, q - a."""
    q = delta
    with mp.workprec(PRECISION_BITS):
        total = mp.mpf(0)
        for a in range(1, (q + 1) // 2):
            chi = kronecker_symbol(delta, a)
            if chi:
                total += chi * mp.log(mp.sin(mp.pi * a / q))
        return -2 * total / mp.sqrt(q)


def test_dirichlet_L1_positive_equals_log_sine_float():
    # the class number formula and the log-sine sum round to the same double
    small = [d for d in range(5, 1000) if is_fundamental_discriminant(d)]
    pool = [d for d in range(1000, 10 ** 4) if is_fundamental_discriminant(d)]
    for delta in small + random.Random(1000).sample(pool, 12):
        assert float(dirichlet_L(delta, 1)) == float(_L1_log_sine(delta)), delta


def test_dirichlet_L1_two_routes_agree_negative():
    for delta in range(-2000, 0):
        if is_fundamental_discriminant(delta):
            a = float(dirichlet_L(delta, 1))
            b = float(_L1_character_sum(delta))
            assert abs(a - b) < 1e-8
    rng = random.Random(29)
    pool = [d for d in range(-10 ** 4, -2000) if is_fundamental_discriminant(d)]
    for delta in rng.sample(pool, 30):
        a = float(dirichlet_L(delta, 1))
        b = float(_L1_character_sum(delta))
        assert abs(a - b) < 1e-8


def test_dirichlet_L1_two_routes_agree_positive():
    rng = random.Random(3)
    deltas = [d for d in range(5, 10 ** 4) if is_fundamental_discriminant(d)]
    for delta in [5, 8, 12, 13] + rng.sample(deltas, 40):
        a = float(dirichlet_L(delta, 1))
        b = float(_L1_digamma(delta))
        assert abs(a - b) < 1e-8


def test_dirichlet_L2_series_oracle():
    # raw partial sums of sum chi(n)/n^2 with tail bound 1/N
    for delta in (-4, 5, -3, 8, -7):
        n_terms = 4000
        partial = math.fsum(kronecker_symbol(delta, n) / n ** 2 for n in range(1, n_terms))
        assert abs(float(dirichlet_L(delta, 2)) - partial) < 2e-3


def test_zeta_k_at_2():
    assert abs(float(zeta_k_at_2(1)) - math.pi ** 2 / 6) < 1e-12
    expected = math.pi ** 2 / 6 * float(mp.catalan)
    assert abs(float(zeta_k_at_2(-4)) - expected) < 1e-9
    val5 = float(zeta_k_at_2(5)) / (math.pi ** 2 / 6)
    assert abs(val5 - float(dirichlet_L(5, 2))) < 1e-9


def test_pell_identities_full_range():
    # exact norm-one identity for every fundamental discriminant to 1e4
    for delta in range(2, 10 ** 4 + 1):
        if is_fundamental_discriminant(delta):
            s = pell_fundamental(delta)
            assert s.t * s.t - delta * s.u * s.u == 4 * s.norm
            assert s.t1 * s.t1 - delta * s.u1 * s.u1 == 4


def _brute_factor_count(q, allowed):
    """Number of prime factors of q if q is squarefree with every prime
    factor in `allowed`, else None; plain trial division."""
    count, p = 0, 2
    while q > 1:
        if q % p == 0:
            q //= p
            if q % p == 0 or p not in allowed:
                return None
            count += 1
        p += 1
    return count


@settings(max_examples=60, deadline=None)
@given(bound=st.integers(-3, 3000), allowed=st.sets(st.sampled_from(
    [p for p in range(2, 60) if all(p % d for d in range(2, p))] + [1999, 2003, 2999])))
def test_squarefree_products_match_brute_filter(bound, allowed):
    primes = sorted(allowed)
    got = sorted(squarefree_products(primes, bound, 0, lambda odd, p, _: 1 - odd))
    want = [(q, c % 2) for q in range(1, bound + 1)
            if (c := _brute_factor_count(q, allowed)) is not None]
    assert got == want


def test_squarefree_products_options_and_state():
    # each prime contributes p (tag 1) or p^2 (tag 2); the state records the choices
    primes, bound = [2, 3, 5, 7], 200
    got = sorted(squarefree_products(primes, bound, (), lambda c, p, tag: c + ((p, tag),),
                                     lambda p: ((p, 1), (p * p, 2))))
    want = []
    for tags in itertools.product((0, 1, 2), repeat=len(primes)):
        chosen = tuple((p, t) for p, t in zip(primes, tags) if t)
        q = math.prod(p ** t for p, t in chosen)
        if q <= bound:
            want.append((q, chosen))
    assert got == sorted(want)


def test_squarefree_products_default_state_is_the_chosen_primes():
    primes, bound = [2, 3, 5, 7, 11], 100
    got = sorted(squarefree_products(primes, bound))
    want = sorted((math.prod(c), c) for k in range(len(primes) + 1)
                  for c in itertools.combinations(primes, k) if math.prod(c) <= bound)
    assert got == want


def test_factorize_and_derived_helpers():
    assert factorize(1) == []
    assert factorize(-360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(999983) == [(999983, 1)]
    for n in range(1, 500):
        assert math.prod(p ** e for p, e in factorize(n)) == n
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 3001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    assert divisors(10 ** 9 + 7) == [1, 10 ** 9 + 7]
    assert divisors(2 ** 40) == [2 ** i for i in range(41)]
    for n in (0, 1, 7, 8, 26, 27, 10 ** 15, 10 ** 15 - 1, 3 ** 40):
        for k in (2, 3, 6):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_iroot_matches_brute_force():
    # n < 2^k returns 1 at once: Newton would raise x to the power k - 1
    assert iroot(10, 10 ** 12) == 1 and iroot(0, 10 ** 12) == 0
    assert iroot(2 ** 64 - 1, 64) == 1 and iroot(2 ** 64, 64) == 2
    for k in range(1, 70):
        for r in (1, 2, 3, 10, 1000):
            if r ** k > 10 ** 40:
                break
            for n in (r ** k - 1, r ** k, r ** k + 1, (r + 1) ** k - 1):
                assert iroot(n, k) == max(s for s in range(r + 2) if s ** k <= n), (n, k)
    with pytest.raises(ValueError):
        iroot(-1, 2)
