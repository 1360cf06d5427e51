import math

import pytest

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


@pytest.fixture
def brute_quaternion_algebras():
    return _brute_quaternion_algebras
