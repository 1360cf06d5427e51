"""Seeded command lists for the benchmark workloads.

A workload is a pass: an ordered list of `quatrig` argv lists, each run in its
own process.  The seed picks the inputs (threshold lists, discriminants,
ramification sets); the scales are fixed, so two seeds cost about the same
and the program only ever sees generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

WORKLOADS = ("census", "analytic", "rigidity")

DIVISION_X = 10 ** 12
CSA_X = 10 ** 15
SUBFIELD_X = 10 ** 14
FUND_DISC_X = 10 ** 7
REPORT_X = 10 ** 10
SCAN_X = 10 ** 6
SCAN_DELTA_MAX = 10 ** 6
GEODESIC_X = 10 ** 5
SURFACE_X = 10 ** 10
LIMIT_PAIR_M = 13
REAL_DELTA_RANGE = (10 ** 5, 11 * 10 ** 4)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # "cold" commands run once per pass; "rerun" commands repeat an earlier
    # argv of the same pass (against the warm cache on the census workload).
    # A rerun follows the command it repeats at once and again at the end
    # of the pass (on analytic also in the middle), so that the reruns
    # sample more than one phase of the machine's speed.
    role: str = "cold"
    cached: bool = False


def _with_rerun(argv, cached=False) -> list[Command]:
    return [Command(argv, cached=cached), Command(argv, role="rerun", cached=cached)]


# The generator does its own small-number arithmetic rather than import the
# program it feeds.

def _squarefree(n: int) -> bool:
    n = abs(n)
    return all(n % (d * d) for d in range(2, isqrt(n) + 1))


def is_fundamental(d: int) -> bool:
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        return (d // 4) % 4 in (2, 3) and _squarefree(d // 4)
    return False


def _kernel(n: int) -> int:
    """Squarefree part of n, sign kept."""
    sign, n = (-1 if n < 0 else 1), abs(n)
    out, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            out *= p
            n //= p
        p += 1
    return sign * out * n


def _independent(d1: int, d2: int) -> bool:
    return _kernel(d1) != 1 and _kernel(d2) != 1 and _kernel(d1 * d2) != 1


def _fundamentals(lo: int, hi: int) -> list[int]:
    return [d for d in range(lo, hi + 1) if is_fundamental(d)]


SMALL_NEGATIVE = _fundamentals(-24, -3)
NEGATIVE = _fundamentals(-200, -3)
SMALL_SIGNED = _fundamentals(-40, 40)
# The real-field L-value sums one log-sine per a < d with chi(a) != 0.  A
# prime d = 1 mod 4 has d - 1 such terms, so every seed does the same work;
# d = 4m, or d with small prime factors, would do half as much or less.
REAL_PRIMES = [d for d in range(*REAL_DELTA_RANGE)
               if d % 4 == 1 and all(d % p for p in range(3, isqrt(d) + 1, 2))]
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _census(rng: random.Random) -> list[Command]:
    thresholds = sorted({rng.randrange(10 ** 6, DIVISION_X) for _ in range(4)} | {DIVISION_X})
    delta = rng.choice(SMALL_NEGATIVE)
    cached = [
        ("census", "division", "--n", "2", "--x", str(DIVISION_X),
         "--thresholds", ",".join(map(str, thresholds))),
        ("census", "csa", "--m", "3", "--n", "3", "--x", str(CSA_X)),
        ("census", "quat-subfields", f"--fields={delta}", "--x", str(SUBFIELD_X)),
    ]
    cmds = [c for a in cached for c in _with_rerun(a, cached=True)]
    cmds.append(Command(("census", "fund-disc", "--x", str(FUND_DISC_X))))
    return cmds + [Command(a, role="rerun", cached=True) for a in cached]


def _analytic(rng: random.Random) -> list[Command]:
    negative = rng.choice(NEGATIVE)
    while True:
        d1, d2 = sorted(rng.sample(SMALL_SIGNED, 2))
        if _independent(d1, d2):
            break
    real = rng.choice(REAL_PRIMES)
    first = ("predict", "delta-n", "--n", "2")
    embed = [Command(("predict", "embed-constant", f"--fields={d}"))
             for d in (negative, f"{d1},{d2}", real)]
    cmds = _with_rerun(first)
    cmds += [Command(("predict", "delta-n", "--n", str(n))) for n in (4, 6)]
    # a third rerun per pass: the analytic pass has the fewest reruns per
    # second, and their median is this workload's rerun_s
    cmds += embed[:2] + [Command(first, role="rerun")] + embed[2:]
    cmds.append(Command(("predict", "report", "--model", "division:2", "--x", str(REPORT_X))))
    return cmds + [Command(first, role="rerun")]


def _rigidity(rng: random.Random) -> list[Command]:
    p, q = sorted(rng.sample(PRIMES, 2))
    places = [str(x) for x in PRIMES[:5]] + ["inf"]
    while True:
        b1 = tuple(sorted(rng.sample(places, 2), key=places.index))
        b2 = tuple(sorted(rng.sample(places, 2), key=places.index))
        if b1 != b2:
            break
    surfaces = ("surfaces", "census", "--field", "-4", "--bl", "5.1,5.2", "--x", str(SURFACE_X))
    return [
        Command(("rigidity", "scan", "--x", str(SCAN_X), "--delta-max", str(SCAN_DELTA_MAX))),
        Command(("geodesics", "census", "--b", f"{p},{q}", "--x", str(GEODESIC_X))),
        *_with_rerun(surfaces),
        Command(("rigidity", "distinguish", "--b1", ",".join(b1), "--b2", ",".join(b2))),
        Command(("rigidity", "limit-pair", "--m", str(LIMIT_PAIR_M))),
        Command(surfaces, role="rerun"),
    ]


_GENERATORS = {"census": _census, "analytic": _analytic, "rigidity": _rigidity}


def commands(workload: str, seed: int) -> list[Command]:
    """The pass for `workload` under `seed`; the same seed gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
