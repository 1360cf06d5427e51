"""Exact elementary number theory kernels used by every other module.

Counting data is exact: sieves, Kronecker symbols, Pell solutions, Ramanujan
sums and class numbers are integer arithmetic throughout.  Analytic values
(L-values, regulators, zeta special values) are mpmath floats computed at
PRECISION_BITS of working precision so that rounding error stays far below
the 1e-9 contract of the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np
from mpmath import mp, mpf

PRECISION_BITS = 80

# Sieving above this limit would need several GB of array storage.
SIEVE_MEMORY_BUDGET = 10 ** 9


class InvalidDiscriminant(ValueError):
    """Argument is not a fundamental discriminant of the required sign."""


class SieveBudgetError(MemoryError):
    """Requested sieve limit exceeds the configured memory budget."""


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for positive n.

    Fully multiplicative in n; agrees with the Legendre symbol for odd
    prime n not dividing a.
    """
    if n <= 0:
        raise ValueError("modulus must be positive")
    result = 1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a|2) = 1 for a = +-1 mod 8, -1 for a = +-3 mod 8
        t = 1 if a % 8 in (1, 7) else -1
        while n % 2 == 0:
            n //= 2
            result *= t
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_fundamental_discriminant(d: int) -> bool:
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| >= 1 as ascending (p, e) pairs, by trial
    division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def squarefree_kernel(n: int) -> int:
    """Squarefree part of n (sign preserved)."""
    if n == 0:
        raise ValueError("kernel of zero")
    return (-1 if n < 0 else 1) * math.prod(p for p, e in factorize(n) if e % 2)


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    return [d for d in range(1, n + 1) if n % d == 0]


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, by integer Newton iteration from above."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def squarefree_products(primes, bound, state, fold, options=None):
    """Every product of distinct primes from the ascending list `primes` that
    is at most `bound`, as (product, state) pairs: the empty product (1, state)
    first, the rest in no promised order.

    options(p) lists the (factor, tag) choices prime p contributes, ascending
    by factor, with least factors nondecreasing along `primes` (default: the
    single factor p).  A child's state is fold(parent_state, p, tag).
    """
    if bound < 1:
        return
    choices = [options(p) if options else ((p, None),) for p in primes]
    choices.append(((bound + 1, None),))  # nothing grows past the last prime
    yield 1, state
    stack = [(1, state, 0)]  # nodes that can still take a prime from index k on
    while stack:
        prod, st, start = stack.pop()
        for k in range(start, len(primes)):
            if prod * choices[k][0][0] > bound:
                break
            p, least_next = primes[k], choices[k + 1][0][0]
            for factor, tag in choices[k]:
                q = prod * factor
                if q > bound:
                    break
                child = fold(st, p, tag)
                yield q, child
                if q * least_next <= bound:
                    stack.append((q, child, k + 1))


def add_prime(chosen: tuple, p: int, _tag) -> tuple:
    """squarefree_products fold recording the chosen primes."""
    return chosen + (p,)


class SieveTable:
    """Multiplicative data for 1..limit; immutable once built.

    Stores mu, phi, squarefree flags and the prime list as numpy arrays,
    shared freely across threads.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("sieve limit must be >= 1")
        if limit > SIEVE_MEMORY_BUDGET:
            raise SieveBudgetError(f"sieve limit {limit} exceeds budget {SIEVE_MEMORY_BUDGET}")
        self.limit = limit
        n = limit + 1
        is_prime = np.ones(n, dtype=bool)
        is_prime[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if is_prime[p]:
                is_prime[p * p::p] = False
        self.primes = np.nonzero(is_prime)[0].astype(np.int64)

        mu = np.ones(n, dtype=np.int8)
        mu[0] = 0
        phi = np.arange(n, dtype=np.int64)
        for p in self.primes:
            p = int(p)
            mu[p::p] *= -1
            phi[p::p] -= phi[p::p] // p
            if p * p <= limit:
                mu[p * p::p * p] = 0
        self._mu = mu
        self._phi = phi
        self._squarefree = mu != 0

    def mu(self, n: int) -> int:
        return int(self._mu[n])

    def phi(self, n: int) -> int:
        return int(self._phi[n])

    def is_squarefree(self, n: int) -> bool:
        return bool(self._squarefree[n])

    def is_fundamental(self, d: int) -> bool:
        """Fundamental-discriminant flag for the signed integer d."""
        if d in (0, 1) or abs(d) > self.limit:
            return is_fundamental_discriminant(d)
        if d % 4 == 1:
            return bool(self._squarefree[abs(d)])
        if d % 4 == 0:
            m = d // 4
            return m % 4 in (2, 3) and bool(self._squarefree[abs(m)])
        return False

    def primes_upto(self, x: int) -> np.ndarray:
        if x > self.limit:
            raise ValueError(f"sieve only covers primes up to {self.limit}")
        return self.primes[self.primes <= x]

    def squarefree_flags(self) -> np.ndarray:
        return self._squarefree


_SHARED: SieveTable | None = None


def sieve(limit: int) -> SieveTable:
    return SieveTable(limit)


def shared_sieve(limit: int) -> SieveTable:
    """Process-wide sieve, grown on demand and never shrunk."""
    global _SHARED
    if _SHARED is None or _SHARED.limit < limit:
        _SHARED = SieveTable(max(limit, 10 ** 4))
    return _SHARED


def count_squarefree(x: int) -> int:
    """Exact number of squarefree integers in [1, x]."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return 0
    table = shared_sieve(x)
    return int(np.count_nonzero(table.squarefree_flags()[1:x + 1]))


def ramanujan_sum(q: int, j: int) -> int:
    """c_q(j), the sum of j-th powers of the primitive q-th roots of unity,
    evaluated in closed form."""
    if q < 1:
        raise ValueError("q must be >= 1")
    g = gcd(q, j) if j else q
    qg = q // g
    table = shared_sieve(q)
    m = table.mu(qg)
    if m == 0:
        return 0
    return m * table.phi(q) // table.phi(qg)


def chebyshev_theta(x: float) -> float:
    """theta(x) = sum of log p over primes p <= x, absolute error < 1e-9."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x < 2:
        return 0.0
    xi = int(math.floor(x))
    table = shared_sieve(xi)
    primes = table.primes_upto(xi)
    if len(primes) == 0:
        return 0.0
    # 64-bit-mantissa accumulation keeps the summation error below 1e-12.
    return float(np.log(primes.astype(np.longdouble)).sum())


def theta_table(limit: int) -> np.ndarray:
    """theta(x) for every integer x in [0, limit] as one array."""
    table = shared_sieve(limit)
    vals = np.zeros(limit + 1, dtype=np.longdouble)
    primes = table.primes_upto(limit)
    vals[primes] = np.log(primes.astype(np.longdouble))
    return np.cumsum(vals).astype(np.float64)


# -- Pell equation ---------------------------------------------------------

@dataclass(frozen=True)
class PellSolution:
    """Minimal positive (t, u) with t^2 - delta*u^2 = +-4, plus the norm-one
    fundamental pair (t1, u1) with t1^2 - delta*u1^2 = 4."""

    delta: int
    t: int
    u: int
    norm: int
    t1: int
    u1: int


def _cf_sqrt_unit(m: int) -> tuple[int, int, int]:
    """Minimal (x, y) with x^2 - m*y^2 = +-1 for non-square m >= 2, via the
    continued fraction of sqrt(m); norm is (-1)^period."""
    a0 = isqrt(m)
    if a0 * a0 == m:
        raise ValueError("m must not be a square")
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    pp, qq = 0, 1
    a = a0
    k = 0
    while True:
        pp = a * qq - pp
        qq = (m - pp * pp) // qq
        k += 1
        if qq == 1:
            return p, q, (-1) ** k
        a = (a0 + pp) // qq
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q


def pell_fundamental(delta: int) -> PellSolution:
    """Fundamental solution of t^2 - delta*u^2 = +-4 for a positive
    fundamental discriminant, by continued fractions (brute force is kept as
    a test oracle only)."""
    if delta <= 0 or not is_fundamental_discriminant(delta):
        raise InvalidDiscriminant(f"{delta} is not a positive fundamental discriminant")
    if delta % 4 == 0:
        x, y, norm = _cf_sqrt_unit(delta // 4)
        t, u = 2 * x, y
    else:
        big_x, big_y, norm = _cf_sqrt_unit(delta)
        t, u = 2 * big_x, 2 * big_y
        if delta % 8 == 5:
            # The unit of the half-integral order may be a cube root of
            # x + y*sqrt(delta): solve t^3 - 3nt = 2x over the integers.
            found = _half_unit_cube_root(delta, big_x, big_y)
            if found is not None:
                t, u, norm = found
    if norm == 1:
        t1, u1 = t, u
    else:
        t1, u1 = (t * t + delta * u * u) // 2, t * u
    return PellSolution(delta, t, u, norm, t1, u1)


def _half_unit_cube_root(delta, big_x, big_y):
    target = 2 * big_x
    base = iroot(target, 3)
    for n in (-1, 1):
        for t in range(max(1, base - 2), base + 3):
            if t % 2 == 1 and t ** 3 - 3 * n * t == target:
                den = t * t - n
                if den > 0 and (2 * big_y) % den == 0:
                    u = 2 * big_y // den
                    if u > 0 and t * t - delta * u * u == 4 * n:
                        return t, u, n
    return None


# -- class numbers and L-values --------------------------------------------

def class_number_imaginary(delta: int) -> int:
    """h(delta) for a negative fundamental discriminant, by exhaustive
    enumeration of reduced binary quadratic forms."""
    if delta >= 0 or not is_fundamental_discriminant(delta):
        raise InvalidDiscriminant(f"{delta} is not a negative fundamental discriminant")
    count = 0
    b = delta % 2
    while b * b <= -delta // 3:
        m4 = b * b - delta
        # b^2 - 4ac = delta  =>  4ac = b^2 - delta
        a = max(b, 1)
        while 4 * a * a <= m4:
            if m4 % (4 * a) == 0:
                c = m4 // (4 * a)
                # reduced: |b| <= a <= c, with b >= 0 when |b| = a or a = c
                if b == 0 or a == b or a == c:
                    count += 1
                else:
                    count += 2
            a += 1
        b += 2
    return count


def _chi_values(delta: int) -> list[int]:
    q = abs(delta)
    return [0] + [kronecker_symbol(delta, a) for a in range(1, q)]


def dirichlet_L(delta: int, s: int):
    """L(s, chi_delta) for a fundamental discriminant delta != 1, s in {1, 2},
    to absolute error well below 1e-9.

    s = 1 uses the finite log-sine sum for delta > 0 and the class number
    formula (with the enumerated class number) for delta < 0; exact finite
    formulas avoid conditionally convergent series.  s = 2 sums Hurwitz zeta
    values over one period of the character.
    """
    if not is_fundamental_discriminant(delta):
        raise InvalidDiscriminant(f"{delta} is not a fundamental discriminant")
    if s not in (1, 2):
        raise ValueError("s must be 1 or 2")
    with mp.workprec(PRECISION_BITS):
        if s == 1:
            if delta < 0:
                h = class_number_imaginary(delta)
                w = 6 if delta == -3 else 4 if delta == -4 else 2
                return 2 * mp.pi * h / (w * mp.sqrt(-delta))
            q = delta
            chi = _chi_values(delta)
            total = mp.mpf(0)
            for a in range(1, q):
                if chi[a]:
                    total += chi[a] * mp.log(mp.sin(mp.pi * a / q))
            return -total / mp.sqrt(q)
        q = abs(delta)
        chi = _chi_values(delta)
        total = mp.mpf(0)
        for a in range(1, q):
            if chi[a]:
                total += chi[a] * mp.zeta(2, mp.mpf(a) / q)
        return total / q ** 2


def dirichlet_L1_character_sum(delta: int):
    """Independent finite-character-sum evaluation of L(1, chi_delta) for
    delta < 0: pi * |sum chi(a) a| / |delta|^(3/2).  Cross-check route."""
    if delta >= 0 or not is_fundamental_discriminant(delta):
        raise InvalidDiscriminant(f"{delta} is not a negative fundamental discriminant")
    q = -delta
    total = sum(a * kronecker_symbol(delta, a) for a in range(1, q))
    with mp.workprec(PRECISION_BITS):
        return -mp.pi * total / mpf(q) ** mpf(1.5)


def dirichlet_L1_digamma(delta: int):
    """Independent digamma-sum evaluation of L(1, chi): -(1/q) sum chi(a) psi(a/q)."""
    if not is_fundamental_discriminant(delta):
        raise InvalidDiscriminant(f"{delta} is not a fundamental discriminant")
    q = abs(delta)
    chi = _chi_values(delta)
    with mp.workprec(PRECISION_BITS):
        total = mp.mpf(0)
        for a in range(1, q):
            if chi[a]:
                total += chi[a] * mp.digamma(mp.mpf(a) / q)
        return -total / q


def zeta_k_at_2(delta: int):
    """zeta_k(2) for the quadratic field of discriminant delta, or zeta(2)
    itself when delta = 1 (the rational field)."""
    with mp.workprec(PRECISION_BITS):
        if delta == 1:
            return mp.zeta(2)
        return mp.zeta(2) * dirichlet_L(delta, 2)
