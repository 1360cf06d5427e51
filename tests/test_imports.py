"""Which commands execute numpy and mpmath.  `import quatrig.cli` executes
neither: arith binds both on first use.  A warm census, --help, an argument
error, `predict delta-n`, a cold csa census and a surfaces census never use
them (the Euler products, the csa enumeration and the listing by
discriminant walk the primes as a list); `predict embed-constant` with two
or more fields and a geodesics census (whose fields come from the
squarefree-product enumerator, filtered by Euler's criterion; the
regulators are mpmath's) execute mpmath only; the other cold censuses
execute numpy only; none of these, nor a rigidity scan, loads numpy.ma.
Each case runs in a fresh interpreter, since this one has executed both."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quatrig.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())
LIBRARIES = ("numpy", "mpmath")
# numpy.ma is reported as a library of its own: numpy 2.4's plain np.unique
# (no return_* flag) imports it, about 15 ms and 1-2 MB of RSS
_PROBED = LIBRARIES + ("numpy.ma",)

# runs the CLI on argv, then reports its exit code and which libraries were
# executed (one of their submodules, numpy._core, mpmath.libmp or numpy.ma.core,
# is loaded) on the last line of stderr
_PROBE = """
import json, sys
{before}
import quatrig.cli
try:
    code = quatrig.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
ran = [lib for lib in {libraries!r} if any(m.startswith(lib + ".") for m in sys.modules)]
print(json.dumps([code, ran]), file=sys.stderr)
"""


def _fresh(argv: str, before: str = ""):
    """(exit code, executed libraries, stdout) of argv in a new interpreter."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(before=before, libraries=_PROBED), *argv.split()],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"})
    code, ran = json.loads(proc.stderr.splitlines()[-1])
    return code, ran, proc.stdout


def _pin(argv: str) -> str:
    (pin,) = [p for p in PINS["runs"] + PINS["help"] if p["argv"] == argv]
    return pin["stdout"]


@pytest.mark.parametrize("argv", [
    "census quat-subfields --fields=-4 --x 10000 --thresholds 100,10000",
    "--format json census quat-subfields --fields=-4 --x 10000 --thresholds 100,10000",
    "census fund-disc --x 1000 --thresholds 10,100,1000",
])
def test_warm_census_executes_neither_library(capsys, tmp_path, argv):
    cached = ["--cache-dir", str(tmp_path), *argv.split()]
    assert main(cached) == 0  # cold, in this process: fills the cache
    assert capsys.readouterr().out == _pin(argv)
    assert _fresh(" ".join(cached)) == (0, [], _pin(argv))


@pytest.mark.skipif(sys.version_info[:2] != tuple(PINS["python"]),
                    reason=f"help texts captured with Python {PINS['python']}'s argparse")
def test_help_executes_neither_library():
    assert _fresh("--help") == (0, [], _pin("--help"))


def test_argument_error_executes_neither_library():
    code, ran, out = _fresh("census division --n 2 --x 100 --bogus-flag")
    assert (code, ran, out) == (2, [], "")


def test_cold_sieve_census_executes_numpy_only(tmp_path):
    argv = f"--cache-dir {tmp_path} census division --n 2 --x 1000 --thresholds 10,100,1000"
    expected = _pin("census division --n 2 --x 1000 --thresholds 10,100,1000")
    assert _fresh(argv) == (0, ["numpy"], expected)


@pytest.mark.parametrize("argv, libraries", [
    ("predict delta-n --n 2 --cutoff 1000", []),
    ("predict embed-constant --fields=-4,5 --cutoff 1000", ["mpmath"]),
])
def test_euler_products_never_execute_numpy(argv, libraries):
    assert _fresh(argv) == (0, libraries, _pin(argv))


def test_cold_csa_census_executes_neither_library(tmp_path):
    argv = "census csa --m 2 --n 2 --x 1000 --thresholds 10,100,1000"
    assert _fresh(f"--cache-dir {tmp_path} {argv}") == (0, [], _pin(argv))


@pytest.mark.parametrize("argv", [
    "census fund-disc --x 1000000000",
    "census fund-disc --x 1000000000000",
    "census quat-subfields --fields=-4 --x 1000000000000000000",
])
def test_cold_sublinear_census_executes_numpy_only(tmp_path, argv):
    # the residue-class and prime-sum counts never touch mpmath, and the
    # residue-class count groups its d by gcd(d, P) without a plain np.unique
    assert _fresh(f"--cache-dir {tmp_path} {argv}") == (0, ["numpy"], _pin(argv))


@pytest.mark.parametrize("argv", [
    "surfaces census --field -4 --bl 5.1,5.2 --x 10000",
    "--format json surfaces census --field -4 --bl 5.1,5.2 --x 10000",
])
def test_surfaces_census_executes_neither_library(argv):
    # the nonsplit primes come from the list view by Euler's criterion; the
    # JSON payload is built for --format json only, and its float area bounds
    # never reach mpmath
    assert _fresh(argv) == (0, [], _pin(argv))


@pytest.mark.parametrize("argv", [
    "geodesics census --b 2,3 --x 40",
    "--format json geodesics census --b 2,3 --x 40",
])
def test_geodesics_census_executes_mpmath_only(argv):
    # the fields are listed without the stream of discriminants or the vector
    # kernel; only the regulators of the Pell solutions reach mpmath
    assert _fresh(argv) == (0, ["mpmath"], _pin(argv))


@pytest.mark.parametrize("argv", ["rigidity scan --x 400",
                                  "rigidity scan --x 400 --not-totally-complex"])
def test_rigidity_scan_loads_no_numpy_ma(capsys, argv):
    # the verdict counts class sizes with np.bincount, not a plain np.unique;
    # the recognizing bound is evaluated by mpmath
    assert main(argv.split()) == 0
    assert _fresh(argv) == (0, ["numpy", "mpmath"], capsys.readouterr().out)


@pytest.mark.parametrize("library, name", [("numpy", "np"), ("mpmath", "mpmath")])
def test_libraries_imported_before_quatrig_are_used_as_they_are(library, name):
    before = f"import {library}\nimport quatrig.arith\nassert quatrig.arith.{name} is {library}"
    code, _, out = _fresh("bounds theta --x 100", before)
    assert (code, out) == (0, _pin("bounds theta --x 100"))


def test_libraries_imported_after_quatrig_execute_on_import():
    # a notebook that imports numpy after quatrig gets the executed module
    code = ("import quatrig.cli, numpy, mpmath; from quatrig import arith; "
            "print(numpy.arange(4).sum(), arith.np is numpy, mpmath.mpf(2) ** 3)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout == "6 True 8.0\n", proc.stderr


def test_no_module_imports_numpy_or_mpmath_itself():
    # one module's own `import numpy` would execute numpy whenever quatrig is
    # imported, for every command: all of them take np and mpmath from arith
    stray = []
    for path in sorted((SRC / "quatrig").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in LIBRARIES]
    assert stray == []
