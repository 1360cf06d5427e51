"""Effective-rigidity layer: explicit bound calculators with the unknown
absolute constants exposed as user parameters (default 1), plus the desk
experiments that exercise the distinguishing mechanisms the rigidity proofs
rely on: minimal distinguishing subfields, descent-distinguishing algebras,
arbitrarily-overlapping field pairs, and length-preserving families.  A bound
is a BoundReport: an mpf value, however large, and its float log10.

Search orders are fixed for reproducibility: discriminants by ascending
absolute value with the negative sign first on ties, primes ascending.
Splitting is evaluated by the vector kernel arith.kronecker_vec; minimal
distinguishing subfields, for one pair or for all, come from one partition
refinement of the algebras by the fields in that order (_refine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from . import arith, census
from .arith import chebyshev_theta, kronecker_vec, mpmath, np, prime_list
from .brauer import QuaternionAlgebraL, QuaternionAlgebraQ, descends, embeds, quaternion_iso
from .census import (_embeds_mask, _fundamental_blocks, least_primes,
                     quaternion_algebras_by_disc)
from .fields import QuadraticField, square_subproducts

_BOUND_PREC = 100


class NotFoundWithinBound(RuntimeError):
    """Search exhausted its stated bound without a witness; reported
    separately from None (which asserts no witness exists at all)."""


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound, kept in mpmath form so astronomically large values
    survive; how it is printed is the CLI's business."""

    name: str
    inputs: dict
    value: object  # mpf

    def __post_init__(self):
        if not (isinstance(self.value, mpmath.mp.mpf) and self.value > 0):
            raise ValueError(f"the {self.name} bound {self.value} is not a positive real")

    @property
    def log10(self) -> float:
        with mpmath.mp.workprec(_BOUND_PREC):
            return float(mpmath.mp.log10(self.value))  # inf past the float range


def recognizing_bound(n_k: int, d_k: int, x: float) -> BoundReport:
    """Discriminant search radius guaranteeing that quaternion algebras of
    |disc| < x over a degree-n_k field are told apart by their maximal
    subfields: 64^(n_k^3) d_k^(n_k) exp(2 n_k (21x/log^3 x + x))."""
    if x <= 2 or n_k < 1 or d_k < 1:
        raise ValueError("x must exceed 2, n_k and d_k must be >= 1")
    with mpmath.mp.workprec(_BOUND_PREC):
        xx = mpmath.mp.mpf(x)
        expo = 2 * n_k * (21 * xx / mpmath.mp.log(xx) ** 3 + xx)
        value = mpmath.mp.mpf(64) ** (n_k ** 3) * mpmath.mp.mpf(d_k) ** n_k * mpmath.mp.exp(expo)
    return BoundReport("recognizing", {"n_k": n_k, "d_k": d_k, "x": x}, value)


def grunwald_wang_conductor_bound(n_k: int, b_omega: float, x: float) -> BoundReport:
    """Conductor bound 32^(n_k^2) B(Omega) (prod_{p<=x} p)^(2 n_k), the
    primorial handled through the theta function in log space."""
    if x <= 2 or n_k < 1:
        raise ValueError("x must exceed 2 and n_k must be >= 1")
    theta = chebyshev_theta(x)
    with mpmath.mp.workprec(_BOUND_PREC):
        value = (mpmath.mp.mpf(32) ** (n_k ** 2) * mpmath.mp.mpf(b_omega)
                 * mpmath.mp.exp(mpmath.mp.mpf(2) * n_k * theta))
    return BoundReport("grunwald_wang", {"n_k": n_k, "b_omega": b_omega, "x": x}, value)


def chlr_length_bound(volume: float, dimension: int, c1: float = 1.0,
                      c2: float = 1.0, c3: float = 1.0) -> BoundReport:
    """Length-spectrum agreement radius forcing commensurability:
    c1 e^(c2 log(V) V^130) in dimension 2, c3 e^((log V)^(log V)) in 3."""
    with mpmath.mp.workprec(_BOUND_PREC):
        v = mpmath.mp.mpf(volume)
        if dimension == 2:
            if v <= 1:
                raise ValueError("volume must exceed 1")
            value = mpmath.mp.mpf(c1) * mpmath.mp.exp(
                mpmath.mp.mpf(c2) * mpmath.mp.log(v) * v ** 130)
        elif dimension == 3:
            if v <= 1:
                raise ValueError("volume must exceed 1 so log V > 0")
            value = mpmath.mp.mpf(c3) * mpmath.mp.exp(mpmath.mp.log(v) ** mpmath.mp.log(v))
        else:
            raise ValueError("dimension must be 2 or 3")
    return BoundReport("chlr_length", {"volume": volume, "dimension": dimension,
                                       "c1": c1, "c2": c2, "c3": c3}, value)


def mcreid_area_bound(volume: float, c: float = 1.0) -> BoundReport:
    """Area radius e^(cV) for totally geodesic surface spectra."""
    with mpmath.mp.workprec(_BOUND_PREC):
        value = mpmath.mp.exp(mpmath.mp.mpf(c) * mpmath.mp.mpf(volume))
    return BoundReport("mcreid_area", {"volume": volume, "c": c}, value)


def brauer_rigidity_bound(d_base: float, c: float, disc1: float, disc2: float) -> BoundReport:
    """Discriminant radius d^(2C) (2 log(|disc B1||disc B2|))^4 |disc B1||disc B2|
    for recognizing quaternion algebras from their quaternion subalgebras.
    The base-field discriminant symbol is taken as an explicit input."""
    if min(d_base, disc1, disc2) <= 0:
        raise ValueError("inputs must be positive")
    with mpmath.mp.workprec(_BOUND_PREC):
        prod = mpmath.mp.mpf(disc1) * mpmath.mp.mpf(disc2)
        value = mpmath.mp.mpf(d_base) ** (2 * c) * (2 * mpmath.mp.log(prod)) ** 4 * prod
    return BoundReport("brauer_rigidity",
                       {"d_base": d_base, "C": c, "disc1": disc1, "disc2": disc2}, value)


# -- distinguishing experiments ----------------------------------------------

def _refine(algebras, blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition refinement of the algebras by which deltas of the blocks (an iterator of
    discriminant arrays in search order) embed: the splitters, at which the classes grow in
    number, closed by the sentinel 0; each algebra's class, ranked by its bits at the
    splitters; and gap[c], the splitter index that parted classes c - 1 and c (-1 at the ends).
    Two algebras first differ at the least gap between their classes, or the sentinel.  Blocks
    are read while a class holds two algebras, trying the columns not constant on every class."""
    labels = np.zeros(len(algebras), dtype=np.int64)
    splitters, gap = [], np.array([-1, -1])
    while len(gap) <= len(algebras) and (block := next(blocks, None)) is not None:
        nonsplit = {}  # each ramified prime's symbols on the block, computed once
        rows = np.array([_embeds_mask(b, block, nonsplit) for b in algebras])
        first = np.unique(labels, return_index=True)[1][labels]  # each algebra's class leader
        for j in np.flatnonzero((rows != rows[first]).any(axis=0)):
            keys, labels = np.unique(2 * labels + rows[:, j], return_inverse=True)
            if len(keys) >= len(gap):  # a class split in two at block[j]
                old = keys[1:] >> 1
                gap = np.r_[-1, np.where(keys[:-1] >> 1 == old, len(splitters), gap[old]), -1]
                splitters.append(block[j])
                if len(keys) == len(algebras):
                    break
    return np.array(splitters + [0], dtype=np.int64), labels, gap


def _witness_rows(algebras, blocks, real_blocks=None):
    """rows(): for each algebra but the last, the int64 row of its least witness against each
    later one in combinations() order: the first splitter of _refine whose field embeds in
    exactly one of the two, or 0.  Given real_blocks, a second stream of the blocks, pairs of
    indefinite algebras read a refinement of those alone by deltas > 0 (a definite algebra
    holds no real field).  Returned with the largest |delta| in the rows, or 0 if one is 0."""
    real = np.array([real_blocks is not None and not b.ramified_at_infinity for b in algebras])
    full = _refine(algebras, blocks)
    part = _refine([b for b, r in zip(algebras, real) if r], (b[b > 0] for b in real_blocks or ()))
    definite, indefinite = np.flatnonzero(~real), np.flatnonzero(real)

    def parted(splitters, labels, gap, i, later):  # the least gap from i's class to each of later's
        c = labels[i]
        least = np.r_[np.minimum.accumulate(gap[c:0:-1])[::-1], len(splitters) - 1,
                      np.minimum.accumulate(gap[c + 1:-1])]
        return splitters[least[labels[later]]]

    def rows():  # r counts the indefinite algebras up to i, itself included
        for i, r in enumerate(np.cumsum(real)[:-1].tolist()):
            if real[i]:  # the full refinement is read at the later definite algebras only
                row, d = np.empty(len(algebras) - 1 - i, np.int64), definite[i + 1 - r:]
                row[d - (i + 1)] = parted(*full, i, d)
                row[indefinite[r:] - (i + 1)] = parted(*part, r - 1, slice(r, None))
            else:
                row = parted(*full, i, slice(i + 1, None))
            yield row

    def widest(splitters, labels, gap, among):  # the largest |delta| over the pairs that hold
        c = labels[among]  # one of `among`, off the gaps beside them; None if one shares a class
        return None if (np.bincount(labels)[c] > 1).any() else abs(int(
            splitters[np.maximum(gap[c], gap[c + 1]).max(initial=-1)]))
    maxima = widest(*full, ~real), widest(*part, slice(None))
    return rows, 0 if None in maxima else max(maxima)


def distinguish_quaternions(b1: QuaternionAlgebraQ, b2: QuaternionAlgebraQ,
                            delta_max: int = 10 ** 6) -> int | None:
    """The fundamental discriminant of least |delta| (negative first on ties)
    whose field embeds in exactly one of the algebras; None when the algebras
    are isomorphic.  Raises NotFoundWithinBound past delta_max."""
    if quaternion_iso(b1, b2):
        return None
    delta = int(_refine([b1, b2], _fundamental_blocks(delta_max))[0][0])  # 0 if no splitter
    if not delta:
        raise NotFoundWithinBound(f"no distinguishing |delta| <= {delta_max} for {b1} vs {b2}")
    return delta


@dataclass(frozen=True)
class ScanReport:
    """`names` holds repr(algebra) per algebra, and `rows` (_witness_rows) yields
    the least distinguishing delta per pair of them, one row per algebra.
    `all_distinguished` is True: rigidity_scan raises on a pair left in one class."""

    x: int
    delta_max: int
    names: tuple[str, ...]
    max_abs_delta: int
    bound_log10: float
    all_distinguished: bool
    rows: object = field(compare=False, repr=False)  # () -> an iterator of int64 rows

    @property
    def witnesses(self) -> tuple[int, ...]:
        return tuple(d for row in self.rows() for d in row.tolist())

    @property
    def pairs(self) -> tuple:
        """((name1, name2, delta), ...) in combinations() order."""
        return tuple((a, b, d) for (a, b), d in zip(combinations(self.names, 2), self.witnesses))


def _all_quaternion_algebras(x: int) -> list[QuaternionAlgebraQ]:
    """Quaternion algebras over Q with |disc| <= x, by ascending disc (disc = q^2 for
    squarefree q; the parity of the finite part fixes the real place)."""
    return [QuaternionAlgebraQ.from_primes(fs, include_infinity=len(fs) % 2 == 1)
            for _, fs in quaternion_algebras_by_disc(math.isqrt(x))]


def rigidity_scan(x: int, delta_max: int = 10 ** 6,
                  not_totally_complex: bool = False) -> ScanReport:
    """Distinguish every unordered pair of non-isomorphic quaternion algebras over Q with
    |disc| <= x by a quadratic field with |delta| <= delta_max; the empirical maximum must sit
    below the recognizing bound (it does, by many orders of magnitude).  A failed search would
    falsify the rigidity theorem at desk scale and is raised, never recorded."""
    if x < 4:
        raise ValueError("x must be >= 4")
    # an algebra is a squarefree q <= sqrt(x), and the scan traces 1.6 KB per unit of
    # isqrt(x) (the listing and the first block's matrix, x = 10^8 to 10^10); 4096 leaves
    # room for a second block and keeps the cap of 2.5 bytes per unit of the budget, 2.5 GB
    if 4096 * (y := math.isqrt(x)) > 2.5 * arith.SIEVE_MEMORY_BUDGET:
        raise arith.SieveBudgetError(f"algebras of q <= {y} exceed budget: about {4096 * y} bytes")
    algebras = _all_quaternion_algebras(x)
    rows, max_abs = _witness_rows(algebras, _fundamental_blocks(delta_max),
                                  _fundamental_blocks(delta_max) if not_totally_complex else None)
    if not max_abs:  # name the first pair left in one class, in combinations() order
        i, j = next((i, i + 1 + int((row != 0).argmin())) for i, row in enumerate(rows())
                    if not row.all())
        raise NotFoundWithinBound(f"pair {algebras[i]}, {algebras[j]}"
                                  f" not distinguished by |delta| <= {delta_max}")
    bound = recognizing_bound(1, 1, x)
    if math.log(max_abs) > bound.log10 * math.log(10):
        raise NotFoundWithinBound("empirical maximum exceeds the recognizing bound")
    return ScanReport(x, delta_max, tuple(repr(b) for b in algebras), max_abs, bound.log10,
                      True, rows)


def distinguish_brauer_pairs(l1: QuadraticField, l2: QuadraticField,
                             bl1: QuaternionAlgebraL, bl2: QuaternionAlgebraL,
                             x_max: int = 10 ** 8) -> QuaternionAlgebraQ | None:
    """The least-|disc| indefinite algebra over Q restricting to exactly one
    of the two given quaternion algebras (None when the restriction data
    already agree).  Both inputs must descend.  Over an imaginary field L,
    B restricts to B_L exactly when its finite ramification is the descended
    set of B_L plus primes nonsplit in L, so the witness is the least disc in
    the symmetric difference of the two listings of such even sets."""
    if l1.is_real or l2.is_real:
        raise ValueError("the desk experiments run over imaginary quadratic fields")
    if bl1.field != l1 or bl2.field != l2:
        raise ValueError("algebra is not defined over the given field")
    d1, d2 = descends(bl1), descends(bl2)
    if d1 is None or d2 is None:
        raise ValueError("both algebras must be restrictions from Q")
    if l1.delta == l2.delta and bl1.ramification == bl2.ramification:
        return None
    y = math.isqrt(x_max)
    r1, r2 = ({fs for _, fs in quaternion_algebras_by_disc(y, (field.delta,), d)
               if len(fs) % 2 == 0} for field, d in ((l1, d1), (l2, d2)))
    if r1 == r2:
        raise NotFoundWithinBound(f"no distinguishing algebra with |disc| <= {x_max}")
    return QuaternionAlgebraQ.from_primes(min(r1 ^ r2, key=math.prod))


def limit_pair(m: int) -> tuple[int, int, int, int]:
    """Two distinct negative fundamental discriminants with identical
    splitting type at every prime p <= m, lexicographically minimal in
    (|delta1|, |delta2|), plus the two least primes split in the first field
    and inert in the second.

    Any finite splitting pattern is realized by infinitely many fields, so
    every candidate delta1 admits a partner; the lexicographic minimum
    therefore pairs the very first negative fundamental discriminant with
    its earliest pattern match.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    d1, odd = -3, prime_list(m)[1:]
    # the partner -n is odd with (-n|2) = (-3|2) = -1, so n = 3 mod 8: walk
    # n = 8j + 3 < 2^63 in the blocks of j that every walk over |delta| uses,
    # and test the few that match for fundamentality
    for j, end in census._blocks(2 ** 60):
        n = 8 * np.arange(j, end) + 3
        for p in odd:
            n = n[kronecker_vec(-n, p) == kronecker_vec(d1, p)]
        for d in (-k for k in n.tolist() if k != 3):
            if arith.is_fundamental_discriminant(d):
                return (d1, d, *least_primes(2, lambda ps: (kronecker_vec(d1, ps) == 1)
                                             & (kronecker_vec(d, ps) == -1)))
    raise NotFoundWithinBound(f"m = {m}: no partner of {d1} inside int64")


def length_preserving_family(algebra: QuaternionAlgebraQ, deltas, count: int
                             ) -> list[QuaternionAlgebraQ]:
    """`count` pairwise non-isomorphic algebras strictly containing the given
    ramification set, each still admitting every field Q(sqrt(delta_i)):
    the moduli disc(B) p1 p2, disc(B) p1 p3, ... over ascending primes
    inert in all the fields and outside Ram(B)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    deltas = tuple(int(d) for d in deltas)
    for d in deltas:
        if not embeds(QuadraticField(d), algebra):
            raise ValueError(f"field {d} does not embed in {algebra}")
    # infinitude of common inert primes fails exactly on an odd-order
    # square relation among the discriminants
    for combo in square_subproducts(deltas):
        if len(combo) % 2:
            raise ValueError(f"odd-order relation {combo}: no common inert primes")
    picked = least_primes(count + 1, lambda ps: ~np.isin(ps, algebra.finite_primes)
                          & np.all([kronecker_vec(d, ps) == -1 for d in deltas], axis=0))
    base = picked[0]
    out = [QuaternionAlgebraQ.from_primes(algebra.finite_primes + (base, extra),
                                          algebra.ramified_at_infinity)
           for extra in picked[1:count + 1]]
    for b in out:
        for d in deltas:
            assert embeds(QuadraticField(d), b)
    return out
