import math

import numpy as np
import pytest

from quatrig import arith
from quatrig.brauer import QuaternionAlgebraQ


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
