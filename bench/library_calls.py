"""Re-time the eight library calls of the ROADMAP item 1 baseline table.

    python3 bench/library_calls.py

Each call runs once in a fresh process (so no sieve or lru cache carries
over), timed with time.perf_counter around the call alone, imports excluded.
Prints a markdown table next to the figures the ROADMAP listed; the CLI
harness (bench/run.py) is the one to cite, this only maps the old table onto
it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (call, ROADMAP seconds, bench/run.py command that covers it, or None)
CALLS = [
    ("count_division(2, 10**12)", 6.1, "census: census division --n 2 --x 1e12"),
    ("fundamental_discriminant_count(10**7)", 5.7, "census: census fund-disc --x 1e7"),
    ("census.smallest_inert_stats(10**5)", 30.4, None),
    ("rigidity_scan(10**6, 10**6)", 4.8, "rigidity: rigidity scan --x 1e6 --delta-max 1e6"),
    ("dirichlet_L(100049, 1)", 2.9, "analytic: predict embed-constant, real delta in [1e5, 1.1e5]"),
    ("geodesic_census(parse_ram_set('2,3'), 10**5)", 2.3,
     "rigidity: geodesics census --b <two primes> --x 1e5"),
    ("count_quat_with_subfields([-4], 10**14)", 2.4,
     "census: census quat-subfields --fields=<d> --x 1e14"),
    ("delta_n(2, 10**7)", 0.44, None),
]

SNIPPET = """
import json, sys, time
from quatrig import *
from quatrig import census
t0 = time.perf_counter()
{call}
print(json.dumps(time.perf_counter() - t0))
"""


def main() -> int:
    print("| call | ROADMAP (s) | re-measured (s) | harness command |")
    print("|---|---|---|---|")
    for call, old, covered in CALLS:
        proc = subprocess.run([sys.executable, "-c", SNIPPET.format(call=call)],
                              capture_output=True, text=True, cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"| `{call}` | {old} | {seconds:.2f} | {covered or 'not in the harness'} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
