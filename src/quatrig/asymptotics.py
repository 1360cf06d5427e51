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
from itertools import combinations, product

from .arith import (
    dirichlet_L,
    divisors,
    factorize,
    kronecker_symbol,
    kronecker_vec,
    mobius,
    prime_list,
    primes_upto,
    product_discriminant,
    ramanujan_sum,
)
from .brauer import QuaternionAlgebraQ, parse_ram_set
from .census import (census_division, census_embedding_quads, census_quat_with_subfields,
                     check_independent)

# residue of zeta at s = 1 and number of real embeddings, for the base field Q
KAPPA_Q = 1.0
R1_Q = 1


@dataclass(frozen=True)
class EulerProductValue:
    value: float
    cutoff: int
    tail_estimate: float


def _prime_tail_bound(cutoff: int, exponent: float, coeff: float) -> float:
    """Bound on sum over primes p > cutoff of coeff/p^exponent, via the
    integral comparison sum_{n > X} n^-e <= X^(1-e)/(e-1)."""
    if exponent <= 1:
        raise ValueError("tail exponent must exceed 1")
    return coeff * cutoff ** (1 - exponent) / (exponent - 1)


def _cutoff_primes(cutoff: int, view=prime_list):
    """The primes <= cutoff of an Euler product truncated there, as a list
    (or by view=primes_upto, an array); cutoff >= 2."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    return view(cutoff)


def _delta_logs(primes, bases, a: int, terms):
    """log(1 + a/p + c/p^e for each (c, e) of terms, added in order) + base,
    per prime p and its base."""
    for p, base in zip(primes, bases):
        term = 1.0 + a / p
        for c, e in terms:
            term += c / p ** e
        yield math.log(term) + base


def delta_mn(m: int, n: int, cutoff: int) -> EulerProductValue:
    """The constant in front of x^(1/(n^2(1-1/l))) (log x)^(l-2) for the
    census of degree-n algebras with division degree dividing m; l is the
    least prime factor of n.  Structurally zero when l does not divide m.

    It sums one Euler product per j = 0, l, 2l, ... < m, whose factors hold
    the Ramanujan sums c_d(j) of the divisors d > l of m; each distinct
    vector of them is evaluated once."""
    if n % m != 0:
        raise ValueError("m must divide n")
    primes = _cutoff_primes(cutoff)
    ell = factorize(n)[0][0]  # least prime factor
    if m % ell != 0:
        return EulerProductValue(0.0, cutoff, 0.0)
    try:  # before (l - 2)!, which takes seconds once l is near 10^6
        scale = (n * n * (1 - 1 / ell)) ** (ell - 2)
    except OverflowError:
        raise ValueError(f"delta_{m},{n} is below the float range at l = {ell}") from None
    pref = KAPPA_Q ** (ell - 1) / (m * math.factorial(ell - 2)) / scale
    if m % 2 == 0:
        pref *= 2 ** R1_Q
    a = ell - 1
    extra = [(d, (1 - 1 / d) / (1 - 1 / ell)) for d in divisors(m) if d > ell]
    min_extra = min((e for _, e in extra), default=2.0)
    vectors = [tuple(ramanujan_sum(d, j) for d, _ in extra) for j in range(0, m, ell)]
    if m == ell:  # j = 0 alone, and no d > l: the product of (1 + (l-1)/p)(1 - 1/p)^(l-1)
        products = {(): math.exp(math.fsum(
            math.log(1.0 + a / p) + a * math.log1p(-1.0 / p) for p in primes))}
    else:
        # c_m(0) != c_m(l), so there are two or more distinct vectors; the
        # (l - 1) log(1 - 1/p) they all read is taken once per prime
        bases = [a * math.log1p(-1.0 / p) for p in primes]
        products = {}
        for cs in set(vectors):
            terms = [(c, e) for c, (_, e) in zip(cs, extra) if c]
            products[cs] = math.exp(math.fsum(_delta_logs(primes, bases, a, terms)))
    total = 0.0
    tail = 0.0
    for cs in vectors:
        total += products[cs]
        # each log factor is O(K/p^e_min) past the cutoff
        coeff_bound = (ell - 1) ** 2 + sum(abs(c) for c in cs) + ell
        tail += _prime_tail_bound(cutoff, min(2.0, min_extra), coeff_bound)
    value = pref * total
    if value <= 0:
        raise ValueError("structurally nonzero constant evaluated nonpositive")
    return EulerProductValue(value, cutoff, tail)


def delta_n(n: int, cutoff: int) -> EulerProductValue:
    """Division-algebra growth constant: Moebius-alternating sum of the
    delta_{m,n}; positive for every n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    total = tail = 0.0
    for m in divisors(n):
        mu = mobius(n // m)
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


def embed_constant_r1(delta: int, cutoff: int = 10 ** 6) -> EulerProductValue:
    """Growth constant for quaternion algebras admitting one fixed quadratic
    subfield: the compact r = 1 product divided by Gamma(1/2), the latter
    coming from the coefficient-extraction normalization (empirically
    confirmed by the census ratios)."""
    primes = _cutoff_primes(cutoff, primes_upto)
    lval = float(dirichlet_L(delta, 1))
    chi = kronecker_vec(delta, primes)
    inert, ram = primes[chi == -1].tolist(), [p for p, _ in factorize(delta)]
    logs = [0.5 * math.log1p(-1.0 / (p * p)) for p in inert + ram]
    logs += [0.5 * math.log1p(1.0 / p) for p in ram]
    r1p = 1 if delta < 0 else 0
    value = (2 ** (r1p - 0.5)
             * math.sqrt(KAPPA_Q / lval)
             * math.exp(math.fsum(logs))
             / math.gamma(0.5))
    tail = _prime_tail_bound(cutoff, 2.0, 1.0)
    return EulerProductValue(value, cutoff, tail)


def embed_constant_general(deltas, cutoff: int = 10 ** 6) -> EulerProductValue:
    """Growth constant for quaternion algebras admitting r independent
    quadratic subfields at once: the full character-product evaluation with
    the Gamma(1/2^r) normalization.  Reduces to embed_constant_r1 at r = 1."""
    deltas = tuple(int(d) for d in deltas)
    check_independent(deltas)
    r = len(deltas)
    if r == 0:
        raise ValueError("need at least one field")
    primes = _cutoff_primes(cutoff)
    r1p = 1 if all(d < 0 for d in deltas) else 0
    ram_primes = sorted({p for d in deltas for p, _ in factorize(d)})
    subsets = [t for k in range(1, r + 1) for t in combinations(range(r), k)]
    d_t = {t: product_discriminant([deltas[i] for i in t]) for t in subsets}

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

    # off the ramified set each chi_T(p) is +-1, so a prime's term is read off
    # the pattern of the fields' symbols there: whether every field is inert,
    # then per subset T, in order, its sign and whether chi_T(p) = -1
    patterns = {chis: (all(c == -1 for c in chis),
                       [(-1 if len(t) % 2 else 1, math.prod(chis[i] for i in t) == -1)
                        for t in subsets])
                for chis in product((1, -1), repeat=r)}
    ram_set = set(ram_primes)
    logs = []
    for p in primes:
        if p in ram_set:
            continue
        all_inert, steps = patterns[tuple([kronecker_symbol(d, p) for d in deltas])]
        up, down = math.log1p(1.0 / p), math.log1p(-1.0 / p)  # log1p(-chi/p), chi = -1, 1
        term = (2 ** r) * (up if all_inert else 0.0)
        term += down  # T = empty: chi trivial off the ramified set
        for sign, inert in steps:
            term += sign * (up if inert else down)
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


def prediction_report(model: str, thresholds, cutoff: int = 10 ** 6) -> list[dict]:
    """count/model ratios of the census that model names, at the thresholds.

    model is "division:N", "embed:D1,D2,..." or "quads:RAMSET"; the quads
    rows carry count/x and the proven lower bound for it instead, and leave
    the cutoff unused.  A model that is zero or undefined at some x (log x = 0
    at x = 1) raises ValueError.
    """
    kind, _, rest = model.partition(":")
    if kind == "quads":
        algebra = parse_ram_set(rest)
        table = census_embedding_quads(algebra, thresholds)
        lb = embed_quads_lower_bound(algebra)
        return [{"x": x, "count": c, "count_over_x": c / x, "lower_bound": lb.value,
                 "meets_bound": c / x >= lb.value - 0.002} for x, c in table.rows()]
    if kind == "division":
        n = int(rest)
        table = census_division(n, thresholds)
        model_fn, arg, const = model_division, n, delta_n(n, cutoff)
    elif kind == "embed":
        deltas = [int(tok) for tok in rest.split(",") if tok.strip()]
        table = census_quat_with_subfields(deltas, thresholds)
        model_fn, arg = model_embed, len(deltas)
        const = (embed_constant_r1(deltas[0], cutoff) if len(deltas) == 1
                 else embed_constant_general(deltas, cutoff))
    else:
        raise ValueError(f"unknown model {model!r}")
    rows = []
    for x, c in table.rows():
        try:
            mv = model_fn(arg, x, const)
            rows.append({"x": x, "count": c, "model": mv, "ratio": c / mv})
        except ZeroDivisionError:
            raise ValueError(f"the {kind} model is zero or undefined at x = {x}") from None
    return rows
