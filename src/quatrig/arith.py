"""Exact elementary number theory kernels used by every other module.

Counting data is exact: sieves, Kronecker symbols, Pell solutions, Ramanujan
sums and class numbers are integer arithmetic throughout.  Analytic values
(L-values, regulators, zeta special values) are mpmath floats computed at
PRECISION_BITS of working precision so that rounding error stays far below
the 1e-9 contract of the callers.

The primes come from one process-wide sieve (primes_upto, prime_list), read
as an int64 array by the vector kernels or as a list of ints by the loops
that walk them in Python; the list never executes numpy.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from math import gcd, isqrt


def _on_first_use(name: str):
    """The module `name`, executed on its first attribute access rather than
    now (or as it is, when already imported): a command that never touches
    numpy or mpmath, such as a warm census, never pays for importing them.
    The other modules take np and mpmath from here; an `import numpy` of
    their own would execute it at once."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _on_first_use("numpy")
mpmath = _on_first_use("mpmath")

PRECISION_BITS = 80

# SieveTable(10**8) traces 0.67 bytes per integer while it sieves (a flag byte per odd integer,
# and the zero run that strikes the multiples of 3) and keeps 0.5; its array view adds 0.46 (8
# bytes a prime) and its list view 2.34 (about 40 bytes a prime).  So this caps a build near
# 0.7 GB; the census block kernel refuses ranges past it as well.
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


@lru_cache(maxsize=64)
def _residue_table(p: int) -> np.ndarray:
    """(r|p) for every residue r mod an odd prime p."""
    t = np.full(p, -1, dtype=np.int8)
    t[0] = 0
    t[np.arange(1, p // 2 + 1, dtype=np.int64) ** 2 % p] = 1
    return t


def _legendre(r: np.ndarray, p: int) -> np.ndarray:
    """(r|p) for residues r mod an odd prime p: a lookup in the table of all p
    residues, or Euler's criterion per distinct residue where that table
    would dwarf the input."""
    if p <= max(2 * r.size, 1 << 20):
        return _residue_table(p)[r]
    vals, where = np.unique(r, return_inverse=True)
    chi = [0 if v == 0 else 1 if pow(v, p // 2, p) == 1 else -1 for v in vals.tolist()]
    return np.array(chi, dtype=np.int8)[where].reshape(r.shape)


@lru_cache(maxsize=None)
def _two_parts() -> dict:
    """chi_e(n mod 8) for the 2-part e of a fundamental discriminant; chi_8(a) = (a|2)."""
    return {e: np.array(t, dtype=np.int8) for e, t in (
        (1, [1] * 8), (-4, [0, 1, 0, -1] * 2), (8, [0, 1, 0, -1, 0, -1, 0, 1]),
        (-8, [0, 1, 0, 1, 0, -1, 0, -1]))}


def kronecker_vec(a, n) -> np.ndarray:
    """Kronecker symbols (a|n) as int8, vectorized in either argument: an
    array of a at a prime n, by a table of residues mod n (mod 8 for n = 2);
    or a fundamental discriminant a (or 1) at an array of positive n, where
    chi_a is the product of the characters of its prime discriminants: (n|p)
    for each odd p | a, and one of a few characters mod 8 for the 2-part."""
    if np.ndim(n) == 0:
        p = int(n)
        if factorize(p) != [(p, 1)]:
            raise ValueError(f"{p} is not prime")
        a, m = np.asarray(a), 8 if p == 2 else p
        # residues straight into int32: no int64 temporary as long as a table of a
        r = np.remainder(a, m, out=np.empty(a.shape, np.int32 if m < 2 ** 31 else np.int64),
                         casting="unsafe")
        return _two_parts()[8][r] if p == 2 else _legendre(r, p)
    n = np.asarray(n)
    out = np.ones(n.shape, dtype=np.int8)
    two_part = a
    for p, _ in factorize(a):
        if p > 2:
            out *= _legendre(n % p, p)
            two_part //= p if p % 4 == 1 else -p
    chi = _two_parts().get(two_part)
    if chi is None:
        raise InvalidDiscriminant(f"{a} is not a fundamental discriminant")
    return out * chi[n & 7]  # n mod 8, negative n included


def is_fundamental_discriminant(d: int) -> bool:
    """d != 1 squarefree with d = 1 mod 4, or d = 4m with m = 2, 3 mod 4
    squarefree (d = 8, 12 mod 16)."""
    if d == 1 or not (d % 4 == 1 or d % 16 in (8, 12)):
        return False
    return all(e == 1 for _, e in factorize(d if d % 4 == 1 else d // 4))


def check_fundamental(*deltas: int) -> None:
    """Raise InvalidDiscriminant at the first delta that is no fundamental discriminant."""
    for d in deltas:
        if not is_fundamental_discriminant(d):
            raise InvalidDiscriminant(f"{d} is not a fundamental discriminant")


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


def squarefree_kernel(n: int) -> int:
    """Squarefree part of n (sign preserved)."""
    if n == 0:
        raise ValueError("kernel of zero")
    return (-1 if n < 0 else 1) * math.prod(p for p, e in factorize(n) if e % 2)


def product_discriminant(deltas) -> int:
    """The fundamental discriminant of the product character of the chi_delta (1 for none)."""
    s = squarefree_kernel(math.prod(deltas))
    return s if s % 4 == 1 else 4 * s


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending, from the factorization of n."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, by integer Newton iteration from above."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    if n.bit_length() <= k:  # 1 <= n < 2^k; Newton would raise x to the power k - 1
        return 1
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def squarefree_products(primes, bound, state=(), fold=None, options=None):
    """Every product of distinct primes from the ascending list `primes` that
    is at most `bound`, as (product, state) pairs: the empty product (1, state)
    first, the rest in no promised order.

    options(p) lists the (factor, tag) choices prime p contributes, ascending
    by factor, with least factors nondecreasing along `primes` (default: the
    single factor p).  A child's state is fold(parent_state, p, tag); with no
    fold, it is the parent's tuple with p appended, so the default state of a
    node is its chosen primes, ascending.
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
                child = fold(st, p, tag) if fold else st + (p,)
                yield q, child
                if q * least_next <= bound:
                    stack.append((q, child, k + 1))


class SieveTable:
    """The primes <= limit, from one flag byte per odd integer: flags[i] is 1
    when 2i + 1 is prime, except flags[0], which stands for 2 (1 is not
    prime).  The sieve of Eratosthenes over the odd primes p <= sqrt(limit)
    fills them, and they stay read-only.  Two views of the same primes, each
    made on first use: `primes`, an ascending read-only int64 array, and
    `prime_list`, a list of ints that never touches numpy."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("sieve limit must be >= 1")
        if limit > SIEVE_MEMORY_BUDGET:
            raise SieveBudgetError(f"sieve limit {limit} exceeds budget {SIEVE_MEMORY_BUDGET}")
        self.limit = limit
        size = (limit + 1) // 2  # the odd integers 1, 3, ..., <= limit
        flags = bytearray(b"\x01") * size
        flags[0] = limit >= 2
        for i in range(1, (isqrt(limit) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                start = p * p // 2
                flags[start::p] = bytearray(len(range(start, size, p)))
        self.flags = memoryview(flags).toreadonly()

    @cached_property
    def primes(self) -> np.ndarray:
        primes = np.flatnonzero(np.frombuffer(self.flags, dtype=np.uint8)).astype(
            np.int64, copy=False)
        primes *= 2
        primes += 1
        primes[:1] = 2  # flags[0] stands for 2, not 1 (no entry when limit = 1)
        primes.flags.writeable = False
        return primes

    @cached_property
    def prime_list(self) -> list[int]:
        primes = list(compress(range(1, self.limit + 1, 2), self.flags))
        if primes:
            primes[0] = 2  # flags[0] stands for 2, not 1
        return primes


_SHARED: SieveTable | None = None


def _shared(x: int) -> SieveTable:
    """The one process-wide table, grown on demand to x (at least 10^4) and
    never shrunk."""
    global _SHARED
    if _SHARED is None or _SHARED.limit < x:
        _SHARED = SieveTable(max(x, 10 ** 4))
    return _SHARED


def primes_upto(x: int) -> np.ndarray:
    """The ascending primes <= x (none for x < 2) as a read-only int64 array."""
    primes = _shared(x).primes
    return primes[:np.searchsorted(primes, x, side="right")]


def prime_list(x: int) -> list[int]:
    """The ascending primes <= x (none for x < 2) as a list of ints, for the
    loops that walk them in Python: no numpy is executed."""
    primes = _shared(x).prime_list
    return primes[:bisect_right(primes, x)]


def mobius(n: int) -> int:
    """The Moebius function mu(n) for n >= 1, by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = factorize(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def squarefree_counts(xs: list[int]) -> list[int]:
    """For each ascending x >= 0, the number of squarefree integers in [1, x]:
    the sum over d <= sqrt(x) of mu(d) floor(x / d^2), with mu(d) taken once
    for each d <= sqrt(max x) by trial division: no sieve is built."""
    mu = [0] + [mobius(d) for d in range(1, isqrt(xs[-1]) + 1)]
    return [sum(mu[d] * (x // (d * d)) for d in range(1, isqrt(x) + 1)) for x in xs]


def count_squarefree(x: int) -> int:
    """Exact number of squarefree integers in [1, x]."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return squarefree_counts([x])[0]


def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1, from its factorization."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))


def ramanujan_sum(q: int, j: int) -> int:
    """c_q(j), the sum of j-th powers of the primitive q-th roots of unity,
    evaluated in closed form."""
    if q < 1:
        raise ValueError("q must be >= 1")
    g = gcd(q, j) if j else q
    qg = q // g
    m = mobius(qg)
    if m == 0:
        return 0
    return m * euler_phi(q) // euler_phi(qg)


def chebyshev_theta(x: float) -> float:
    """theta(x) = sum of log p over primes p <= x, absolute error < 1e-9."""
    if x < 0:
        raise ValueError("x must be >= 0")
    primes, step = primes_upto(math.floor(x)), 1 << 22
    # 64-bit-mantissa accumulation keeps the summation error below 1e-12; chunks
    # of 2^22 primes keep the long-double temporaries at 64 MB each at any x
    return float(sum(np.log(primes[i:i + step].astype(np.longdouble)).sum()
                     for i in range(0, len(primes), step)))


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

    def regulator(self):
        """log((t + u*sqrt(delta))/2), the log of the fundamental unit: the
        libmp steps of mp.log((t + u*mp.sqrt(delta))/2) at PRECISION_BITS,
        rounded to nearest, without a working-precision context."""
        prec, lib = PRECISION_BITS, mpmath.libmp
        root = lib.mpf_sqrt(lib.from_int(self.delta), prec, "n")
        unit = lib.mpf_add(lib.mpf_mul_int(root, self.u, prec, "n"), lib.from_int(self.t),
                           prec, "n")
        half = lib.mpf_div(unit, lib.from_int(2), prec, "n")
        return mpmath.mp.make_mpf(lib.mpf_log(half, prec, "n"))


def pell_fundamental(delta: int, check: bool = True) -> PellSolution:
    """Fundamental solution of t^2 - delta*u^2 = +-4 for a positive
    fundamental discriminant, from half the period of one continued fraction
    (brute force is kept as a test oracle only).  check=False skips the test
    that delta is fundamental, for a delta checked already or streamed.

    omega = (b + sqrt(delta))/2, with b the largest integer below sqrt(delta)
    and b = delta (mod 2), is reduced, so its expansion is purely periodic:
    the complete quotients (P_k + sqrt(delta))/Q_k start at (P_0, Q_0) = (b, 2),
    each step takes a_k = floor((P_k + floor(sqrt(delta)))/Q_k),
    P_{k+1} = a_k Q_k - P_k and Q_{k+1} = (delta - P_{k+1}^2)/Q_k, and after
    the period l they are back at (b, 2).  With q_k the convergent
    denominators the unit is q_{l-1}*omega + q_{l-2}, of norm (-1)^l, so
    u = q_{l-1} and t = sqrt(delta*u^2 + 4*(-1)^l).

    Since -1/omega' is the first complete quotient, a_1 ... a_{l-1} is a
    palindrome (Galois), so P_{l+1-k} = P_k and Q_{l-k} = Q_k, and the middle
    of the period is the first k >= 1 with Q_k = Q_{k-1} (l = 2k - 1) or
    P_{k+1} = P_k (l = 2k).  With M_i = [[a_i, 1], [1, 0]], q_{l-1} is the
    top left entry of M_1 ... M_{l-1} = H H^T (l odd) or H M_k H^T (l even)
    for H = M_1 ... M_{k-1}, which only needs the top row (x, y) of H.
    """
    if delta <= 0 or check and not is_fundamental_discriminant(delta):
        raise InvalidDiscriminant(f"{delta} is not a positive fundamental discriminant")
    root = isqrt(delta)
    b = root - (root - delta) % 2
    q_last, pp, qq = 2, b, (delta - b * b) // 2  # Q_0; P_1, Q_1 (a_0 = b)
    x, y = 1, 0
    while qq != q_last:
        a = (pp + root) // qq
        p_next = a * qq - pp
        if p_next == pp:
            u, norm = x * (a * x + 2 * y), 1
            break
        x, y = a * x + y, x
        q_last, pp, qq = qq, p_next, (delta - p_next * p_next) // qq
    else:
        u, norm = x * x + y * y, -1
    t = isqrt(delta * u * u + 4 * norm)
    if norm == 1:
        t1, u1 = t, u
    else:
        t1, u1 = (t * t + delta * u * u) // 2, t * u
    return PellSolution(delta, t, u, norm, t1, u1)


# -- class numbers and L-values --------------------------------------------

def class_number(delta: int, check: bool = True) -> int:
    """h(delta) for a fundamental discriminant delta != 1, from the reduced
    forms (a, b, c) of discriminant b^2 - 4ac = delta (Cohen, GTM 138, 5.3 and
    5.6), found by b = delta (mod 2) and the divisors |a| of |b^2 - delta|/4.

    delta < 0: |b| <= a <= c, with b >= 0 when |b| = a or a = c; h counts
    them.  delta > 0: 0 < b < sqrt(delta) and sqrt(delta) - b < 2|a| <
    sqrt(delta) + b, so b <= r and r - b < 2|a| <= r + b for r = isqrt(delta)
    (sqrt(delta) is irrational), and ac < 0.  rho(a, b, c) = (c, b',
    (b'^2 - delta)/4c), with b' = -b (mod 2|c|) the largest such value below
    sqrt(delta), permutes these forms; its cycles are the h+ narrow classes,
    and h = h+ when the fundamental unit has norm -1, h+/2 otherwise.
    check=False skips the test that delta is fundamental, as in pell_fundamental.
    """
    if check:
        check_fundamental(delta)
    r, forms = isqrt(abs(delta)), []
    for b in range(delta % 2, r + 1, 2):
        m = abs(b * b - delta) // 4
        lo, hi = (b, isqrt(m)) if delta < 0 else ((r - b) // 2 + 1, (r + b) // 2)
        for a in range(max(lo, 1), hi + 1):
            if m % a == 0:
                c = m // a
                if delta > 0:
                    forms += [(a, b, -c), (-a, b, c)]
                else:
                    forms += [(a, b, c), (a, -b, c)] if 0 < b < a < c else [(a, b, c)]
    if delta < 0:
        return len(forms)
    seen, cycles = set(), 0
    for form in forms:
        cycles += form not in seen
        while form not in seen:
            seen.add(form)
            _, b, c = form
            b = r - (r + b) % (2 * abs(c))
            form = (c, b, (b * b - delta) // (4 * c))
    return cycles if pell_fundamental(delta, check=False).norm == -1 else cycles // 2


def class_number_imaginary(delta: int) -> int:
    """h(delta) for a negative fundamental discriminant."""
    if delta >= 0:
        raise InvalidDiscriminant(f"{delta} is not a negative fundamental discriminant")
    return class_number(delta)


def dirichlet_L(delta: int, s: int):
    """L(s, chi_delta) for a fundamental discriminant delta != 1, s in {1, 2},
    to absolute error well below 1e-9.

    s = 1 is the class number formula with h = class_number(delta):
    2 pi h / (w sqrt|delta|) for delta < 0 and 2 h R / sqrt(delta) for
    delta > 0, R the regulator of pell_fundamental(delta).  s = 2 sums Hurwitz
    zeta values over one period of the character.
    """
    check_fundamental(delta)
    if s not in (1, 2):
        raise ValueError("s must be 1 or 2")
    with mpmath.mp.workprec(PRECISION_BITS):
        if s == 1:
            h = class_number(delta, check=False)
            if delta > 0:
                reg = pell_fundamental(delta, check=False).regulator()
                return 2 * h * reg / mpmath.mp.sqrt(delta)
            w = 6 if delta == -3 else 4 if delta == -4 else 2
            return 2 * mpmath.mp.pi * h / (w * mpmath.mp.sqrt(-delta))
        q = abs(delta)
        total = mpmath.mp.mpf(0)
        for a, chi in enumerate(kronecker_vec(delta, np.arange(1, q)).tolist(), 1):
            if chi:
                total += chi * mpmath.mp.zeta(2, mpmath.mp.mpf(a) / q)
        return total / q ** 2


def zeta_k_at_2(delta: int):
    """zeta_k(2) for the quadratic field of discriminant delta, or zeta(2)
    itself when delta = 1 (the rational field)."""
    with mpmath.mp.workprec(PRECISION_BITS):
        if delta == 1:
            return mpmath.mp.zeta(2)
        return mpmath.mp.zeta(2) * dirichlet_L(delta, 2)
