import math

import numpy as np
import pytest

from quatrig import arith
from quatrig.brauer import QuaternionAlgebraQ
from quatrig.census import InternalInconsistency, check_independent


def _brute_quaternion_algebras(max_disc: int) -> list[QuaternionAlgebraQ]:
    """Every quaternion algebra over Q with |disc| <= max_disc (disc = q^2,
    q the product of the finite ramified primes; the parity of the finite
    part fixes the real place).  Its primes come from trial division and its
    recursion is its own, so checks against it share nothing with the
    library's sieve or product enumerator."""
    y = math.isqrt(max_disc)
    primes = [p for p in range(2, y + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    out = []

    def rec(start, prod, chosen):
        odd = len(chosen) % 2 == 1
        out.append(QuaternionAlgebraQ.from_primes(chosen, include_infinity=odd))
        for k in range(start, len(primes)):
            if prod * primes[k] > y:
                break
            rec(k + 1, prod * primes[k], chosen + [primes[k]])

    if max_disc >= 1:
        rec(0, 1, [])
    return out


def _mu_trial_division(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _squarefree_count(y: int) -> int:
    """Squarefree integers in [1, y], as the sum over d <= sqrt(y) of
    mu(d) floor(y / d^2), with mu by trial division: no sieve involved."""
    return sum(_mu_trial_division(d) * (y // (d * d)) for d in range(1, math.isqrt(y) + 1))


def _theta_table(limit: int) -> np.ndarray:
    """theta(x) for every integer x in [0, limit] as one array: a long-double
    cumulative sum of log p over the sieve's primes."""
    vals = np.zeros(limit + 1, dtype=np.longdouble)
    primes = arith.primes_upto(limit)
    vals[primes] = np.log(primes.astype(np.longdouble))
    return np.cumsum(vals).astype(np.float64)


def _multiply_factor(arr: list[int], terms, n_max: int) -> list[int]:
    out = arr.copy()
    for pw, c in terms:
        if c == 0:
            continue
        for i in range(1, n_max // pw + 1):
            if arr[i]:
                out[i * pw] += c * arr[i]
    return out


def _dirichlet_coefficients_csa(m: int, n: int, n_max: int) -> list[int]:
    """Coefficients a_N (N <= n_max) of the generating Dirichlet series whose
    partial sums equal the N_{m,n} census: exact root-of-unity averaging of
    Euler products, with Ramanujan sums as the closed-form numerators.  The
    Dirichlet-coefficient oracle is a test-side route to every census."""
    if n % m != 0:
        raise ValueError("m must divide n")
    weights = [(d, n * n - n * n // d) for d in arith.divisors(m) if d > 1]
    min_w = min((w for _, w in weights), default=None)
    acc = [0] * (n_max + 1)
    for j in range(m):
        arr = [0] * (n_max + 1)
        arr[1] = 1
        if min_w is not None:
            for p in arith.primes_upto(arith.iroot(n_max, min_w)).tolist():
                terms = [(p ** w, arith.ramanujan_sum(d, j)) for d, w in weights
                         if p ** w <= n_max]
                arr = _multiply_factor(arr, terms, n_max)
        real_factor = (1 + (-1) ** j) if m % 2 == 0 else 1
        if real_factor:
            for i in range(1, n_max + 1):
                acc[i] += real_factor * arr[i]
    for i in range(1, n_max + 1):
        if acc[i] % m != 0:
            raise InternalInconsistency(f"coefficient at {i} not divisible by {m}")
        acc[i] //= m
        if acc[i] < 0:
            raise InternalInconsistency(f"negative coefficient at {i}")
    return acc


def _dirichlet_coefficients_embed(deltas, n_max: int) -> list[int]:
    """Coefficients a_N of the series counting quaternion algebras admitting
    all the given subfields, |disc| = N; its primes come from trial division
    and the scalar Kronecker symbol, a route that shares nothing with the sieve."""
    deltas = tuple(int(d) for d in deltas)
    check_independent(deltas)
    primes = [p for p in range(2, math.isqrt(n_max) + 1) if arith.factorize(p) == [(p, 1)]
              and all(arith.kronecker_symbol(d, p) != 1 for d in deltas)]
    c0 = [0] * (n_max + 1)
    c0[1] = 1
    c1 = c0.copy()
    for p in primes:
        c0 = _multiply_factor(c0, [(p * p, 1)], n_max)
        c1 = _multiply_factor(c1, [(p * p, -1)], n_max)
    r1p = 1 if all(d < 0 for d in deltas) else 0
    out = [0] * (n_max + 1)
    for i in range(1, n_max + 1):
        num = (2 if r1p else 1) * c0[i] + (0 if r1p else 1) * c1[i]
        if num % 2 != 0:
            raise InternalInconsistency(f"odd numerator at {i}")
        out[i] = num // 2
        if out[i] < 0:
            raise InternalInconsistency(f"negative coefficient at {i}")
    return out


@pytest.fixture(autouse=True)
def _private_census_cache(tmp_path, monkeypatch):
    """Point the default census cache at the test's own directory, so that no
    test reads or writes the user's cache."""
    monkeypatch.setenv("QUATRIG_CACHE_DIR", str(tmp_path / "census-cache"))


@pytest.fixture
def brute_quaternion_algebras():
    return _brute_quaternion_algebras


@pytest.fixture
def squarefree_count():
    return _squarefree_count


@pytest.fixture
def theta_table():
    return _theta_table


@pytest.fixture
def dirichlet_coefficients_csa():
    return _dirichlet_coefficients_csa


@pytest.fixture
def dirichlet_coefficients_embed():
    return _dirichlet_coefficients_embed
