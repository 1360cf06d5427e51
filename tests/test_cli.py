import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from quatrig import census
from quatrig.cache import CensusCache
from quatrig.census import CountTable
from quatrig.cli import _json, _json_value, build_parser, main
from quatrig.fields import PlaceQ
from quatrig.rigidity import rigidity_scan

# stdout and exit code of one small argv per leaf command (both formats for
# the CSV-default groups), and the --help text of every parser node; a change
# to any of them is a deliberate edit of cli_pins.json
PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _reject(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject)


def test_census_division_csv(capsys):
    code, out = run(capsys, ["census", "division", "--n", "2", "--x", "100"])
    assert code == 0
    assert out == "x,count\n100,6\n"


def test_census_json_counts_as_strings(capsys, tmp_path):
    code, out = run(capsys, ["--format", "json", "--cache-dir", str(tmp_path),
                             "census", "csa", "--m", "2", "--n", "2", "--x", "100"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"x": "100", "count": "7"}]


def test_rigidity_distinguish_json(capsys):
    code, out = run(capsys, ["rigidity", "distinguish", "--b1", "2,inf", "--b2", "3,inf"])
    assert code == 0
    assert json.loads(out)["minimal_delta"] == -7


def test_bounds_chlr(capsys):
    code, out = run(capsys, ["bounds", "chlr", "--volume", "2.718281828",
                             "--dim", "3", "--const-c3", "1"])
    assert code == 0
    assert abs(json.loads(out)["value"] - 2.718281828) < 1e-6


def test_validation_errors_exit_2(capsys):
    assert main(["census", "division", "--n", "1", "--x", "100"]) == 2
    assert main(["rigidity", "distinguish", "--b1", "4,inf", "--b2", "3,inf"]) == 2
    assert main(["census", "quat-subfields", "--fields=-3,5,-15", "--x", "100"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "division", "--n", "2", "--x", "100", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--shards", "2", "census", "division", "--n", "2", "--x", "100"])
    assert exc.value.code == 2


def test_invariant_violation_exit_3(capsys):
    assert main(["rigidity", "distinguish", "--b1", "2,inf", "--b2", "3,inf",
                 "--delta-max", "4"]) == 3


def test_out_file(capsys, tmp_path):
    target = tmp_path / "result.csv"
    code = main(["--out", str(target), "census", "division", "--n", "2", "--x", "100"])
    assert code == 0
    assert target.read_text() == "x,count\n100,6\n"
    assert capsys.readouterr().out == ""


def _scan_oracle(x, not_totally_complex):
    """The scan's JSON as json.dumps prints the dict payload of every pair."""
    rep = rigidity_scan(x, 10 ** 6, not_totally_complex)
    payload = {"x": rep.x, "delta_max": rep.delta_max,
               "pairs": [{"pair": [a, b], "minimal_delta": d} for a, b, d in rep.pairs],
               "max_abs_delta": rep.max_abs_delta, "bound_log10": rep.bound_log10,
               "all_distinguished": rep.all_distinguished}
    return json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n"


@pytest.mark.parametrize("not_totally_complex", [False, True])
@pytest.mark.parametrize("x", [4, 36, 400, 10 ** 4])
def test_rigidity_scan_text_matches_json_dumps(capsys, tmp_path, x, not_totally_complex):
    argv = ["rigidity", "scan", "--x", str(x)] + ["--not-totally-complex"] * not_totally_complex
    code, out = run(capsys, argv)
    assert code == 0 and out == _scan_oracle(x, not_totally_complex)
    target = tmp_path / "scan.json"
    assert main(["--out", str(target), *argv]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()


def test_rigidity_scan_walks_the_rows_once(capsys, monkeypatch):
    # for the printout only: the maximum and the verdict come from the refinement
    from quatrig import rigidity

    expected = _scan_oracle(400, False)
    walks = []
    witness_rows = rigidity._witness_rows

    def counted(*args):
        rows, max_abs = witness_rows(*args)
        return (lambda: walks.append(1) or rows()), max_abs

    monkeypatch.setattr(rigidity, "_witness_rows", counted)
    assert run(capsys, ["rigidity", "scan", "--x", "400"]) == (0, expected)
    assert len(walks) == 1


class _Unread(tuple):
    def __iter__(self):
        return self

    def __next__(self):
        pytest.fail("CSV rows read for JSON output")


def test_only_the_chosen_format_is_built(capsys, monkeypatch):
    # surfaces census: the CSV output builds no JSON row (no _json_value per
    # row); geodesics census: the JSON output reads no geodesic into a CSV row
    from quatrig import cli, geometry

    def pinned(argv):
        (pin,) = [p for p in PINS["runs"] if p["argv"] == argv]
        assert run(capsys, argv.split()) == (0, pin["stdout"])

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_json_value", lambda value: pytest.fail("JSON built for CSV"))
        pinned("surfaces census --field -4 --bl 5.1,5.2 --x 10000")
    census = geometry.geodesic_census
    monkeypatch.setattr(geometry, "geodesic_census", lambda *args: dataclasses.replace(
        census(*args), data=_Unread()))
    pinned("--format json geodesics census --b 2,3 --x 40")


@pytest.mark.parametrize("flags, sha256, size", [
    ([], "02471f31e09992acba2c9b961e21f69fa56f5a06bc7f3087d6e14cb52f4de94f", 1034486),
    (["--not-totally-complex"],
     "203abd8d8ef3fca65ecda5cd4b60d4b7ba4299a6a0a120af2086d091a16c1da4", 1031713),
])
def test_rigidity_scan_stdout_is_pinned(capsys, flags, sha256, size):
    # 18,528 pairs; the oracle above reads the same rows as the printout, so
    # these digests of the pairwise search's output check them apart from it
    import hashlib

    code, out = run(capsys, ["rigidity", "scan", "--x", "100000", *flags])
    assert code == 0 and len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_rigidity_scan_unwritable_out(capsys, tmp_path):
    target = tmp_path / "missing" / "scan.json"
    assert main(["--out", str(target), "rigidity", "scan", "--x", "36"]) == 2
    assert capsys.readouterr().out == ""
    assert not target.exists()


def test_warm_cache_byte_identical(capsys, tmp_path):
    censuses = {
        "csa": ["csa", "--m", "2", "--n", "2"],
        "division": ["division", "--n", "2"],
        "embed-quads": ["embed-quads", "--b", "2,inf"],
        "quat-subfields": ["quat-subfields", "--fields=-4"],
        "fund-disc": ["fund-disc"],
    }
    for name, args in censuses.items():
        for fmt in ("csv", "json"):
            cache_dir = tmp_path / f"{name}-{fmt}"
            argv = ["--format", fmt, "--cache-dir", str(cache_dir), "census", *args,
                    "--x", "1000", "--thresholds", "10,100,1000"]
            code1, out1 = run(capsys, argv)
            assert code1 == 0
            assert len(list(cache_dir.iterdir())) == 1
            code2, out2 = run(capsys, argv)
            assert code2 == 0
            assert out1 == out2, (name, fmt)


def test_cache_corruption_detected(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "census", "division", "--n", "2", "--x", "100"]
    assert main(argv) == 0
    capsys.readouterr()
    (cache_file,) = tmp_path.iterdir()
    text = cache_file.read_text()
    cache_file.write_text(text.replace("100,6", "100,7"))
    assert main(argv) == 2


def test_cache_truncated_file_recomputed(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "census", "division", "--n", "2",
            "--x", "1000", "--thresholds", "10,100,1000"]
    code, cold = run(capsys, argv)
    assert code == 0
    (cache_file,) = tmp_path.iterdir()
    text = cache_file.read_text()
    for cut in ("", text[:10]):  # empty, or cut off inside the header line
        cache_file.write_text(cut)
        code, out = run(capsys, argv)
        assert code == 0 and out == cold
        assert cache_file.read_text() == text  # rewritten whole
    assert list(tmp_path.iterdir()) == [cache_file]  # no temporary file left


def test_embed_quads_cache_under_the_string_ram_order_is_a_miss(capsys, tmp_path):
    # the spec once listed "ram" as sorted strings ("11" before "2"); a file
    # stored under that key is another key's file: recomputed, not corruption
    stale = {"kind": "embed_quads", "ram": ["11", "2"], "not_totally_complex": False,
             "thresholds": [100]}
    CensusCache(tmp_path).store(stale, CountTable((100,), (999,)))
    code, out = run(capsys, ["--cache-dir", str(tmp_path), "census", "embed-quads",
                             "--b", "2,11", "--x", "100"])
    assert (code, out) == (0, "x,count\n100,22\n")
    assert len(list(tmp_path.iterdir())) == 2


def test_precision_validation(capsys):
    # --precision did nothing (every routine pins its own working precision)
    # and is gone: it is now an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["--precision", "80", "census", "division", "--n", "2", "--x", "100"])
    assert exc.value.code == 2


def test_model_zero_at_x1_exits_2(capsys):
    for model in ("embed:-4", "division:3"):
        assert main(["predict", "report", "--model", model, "--x", "1"]) == 2, model
        assert "zero or undefined at x = 1" in capsys.readouterr().err
    for model in ("division:2", "quads:2,inf"):
        code, out = run(capsys, ["predict", "report", "--model", model, "--x", "1"])
        assert code == 0, model
        assert strict_json(out)["rows"][0]["x"] == 1


def test_bounds_json_strict_past_float_range(capsys):
    code, out = run(capsys, ["bounds", "chlr", "--volume", "1e6", "--dim", "2"])
    assert code == 0
    payload = strict_json(out)
    assert payload["log10"] == {"log10": pytest.approx(780.778, abs=1e-3)}
    assert payload["value"] == {"log10_log10": payload["log10"]["log10"]}


def _encoded(value) -> str:
    try:
        return _json(_json_value(value))
    except ValueError:
        return "ValueError"


def test_json_value_encodes_a_float_as_its_mpf():
    # a float inside the range returns before mpmath is touched; the mpf route
    # is the reference at both zeros, a subnormal, +-1e308 and their neighbours
    edges = [math.nextafter(e, to) for e in (1e308, -1e308) for to in (0, e, 2 * e)]
    for value in (0.0, -0.0, 5e-324, 1e300, 1.7e308, *edges):
        assert _encoded(value) == _encoded(mpmath.mpf(value)), value


def test_x_is_a_threshold_next_to_thresholds(capsys):
    code, out = run(capsys, ["census", "division", "--n", "2", "--x", "100",
                             "--thresholds", "10,20"])
    assert (code, out) == (0, "x,count\n10,2\n20,2\n100,6\n")
    code, out = run(capsys, ["predict", "report", "--model", "division:2", "--x", "100",
                             "--thresholds", "10"])
    assert code == 0
    assert [r["x"] for r in strict_json(out)["rows"]] == [10, 100]


def _brute_fundamental_count(x):
    def squarefree(n):
        return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))

    def fundamental(d):
        if d % 4 == 1:
            return d != 1 and squarefree(abs(d))
        return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(abs(d // 4))

    return sum(fundamental(d) for d in range(-x, x + 1))


def test_fund_disc_thresholds_walk_no_blocks(capsys, monkeypatch):
    # residue-class counts for every threshold: no pass of the block kernel
    # and no table
    passes = []
    blocks = census._fundamental_blocks
    monkeypatch.setattr(census, "_fundamental_blocks", lambda y: passes.append(y) or blocks(y))
    monkeypatch.setattr(census, "fundamental_discriminants", None)
    code, out = run(capsys, ["census", "fund-disc", "--x", "500",
                             "--thresholds", "1,3,4,10,100,1000"])
    assert code == 0
    xs = [1, 3, 4, 10, 100, 500, 1000]
    assert out == "x,count\n" + "".join(f"{x},{_brute_fundamental_count(x)}\n" for x in xs)
    assert passes == []


def test_fund_disc_is_the_embed_quads_census_of_the_matrix_algebra(capsys, tmp_path):
    tail = ["--x", "1000", "--thresholds", "1,3,4,5,8,12,999"]
    for fmt in ([], ["--format", "json"]):
        outs = [run(capsys, [*fmt, "--cache-dir", str(tmp_path / name), "census", *leaf, *tail])
                for name, leaf in (("a", ["fund-disc"]), ("b", ["embed-quads", "--b="]))]
        assert [code for code, _ in outs] == [0, 0]
        if fmt:
            outs = [strict_json(out)["rows"] for _, out in outs]
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, what", [
    (["geodesics", "census", "--b", "2,3", "--x", "50000"], "census to 50000"),
    (["rigidity", "scan", "--x", "10000"], "algebras of q <= 100 exceed budget"),
    (["rigidity", "scan", "--x", "100", "--delta-max", "50000"], "census to 50000"),
    (["rigidity", "distinguish", "--b1", "2,3", "--b2", "2,5", "--delta-max", "50000"],
     "census to 50000"),
    (["census", "fund-disc", "--x", "10000000"], "census to 10000000"),
    (["census", "quat-subfields", "--fields=-4", "--x", "100000000000000"],
     "census to 10000000"),
])
def test_tables_past_the_memory_budget_exit_2(capsys, monkeypatch, tmp_path, argv, what):
    from quatrig import arith

    # 10^5 bytes: algebras of q <= 24, a census to 40,000, where the stream
    # of discriminants stops too, prime sums to y = 1.5 * 10^6, or the
    # residue-class count to isqrt(x) = 1250
    monkeypatch.setattr(arith, "SIEVE_MEMORY_BUDGET", 4 * 10 ** 4)
    code = main(["--cache-dir", str(tmp_path), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and what in captured.err


def test_memory_budget_stops_the_sizes_that_ran_out_and_admits_the_rest(capsys, monkeypatch):
    from quatrig import arith, rigidity

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    # at the real budget: the algebras of q <= 10^6 at x = 10^12 and a census
    # to 10^16, both stopped before anything large is allocated (an Admitted
    # raised by the listing of the algebras or of the primes would fail the test)
    with monkeypatch.context() as patch:
        patch.setattr(rigidity, "_all_quaternion_algebras", admitted)
        patch.setattr(census, "prime_list", admitted)
        for argv, what in ((["rigidity", "scan", "--x", str(10 ** 12)], "q <= 1000000"),
                           (["census", "fund-disc", "--x", str(10 ** 16)],
                            "census to 10000000000000000 exceeds budget: about 8000000000 bytes")):
            assert main(argv) == 2
            assert what in capsys.readouterr().err

    # the largest sizes that must still run get past their checks
    monkeypatch.setattr(census, "primes_upto", admitted)
    with pytest.raises(Admitted):
        census.fundamental_discriminants(4 * 10 ** 8)
    # the residue-class count: 80 bytes per unit of isqrt(x) admit y <= 31,250,000,
    # and it lists the primes to y, a sieve to sqrt(x), before anything else
    assert census.fundamental_discriminant_count(10 ** 9) == 607927069
    monkeypatch.setattr(census, "prime_list", admitted)
    with pytest.raises(Admitted):
        census.fundamental_discriminant_count(31250001 ** 2 - 1)
    with pytest.raises(arith.SieveBudgetError):
        census.fundamental_discriminant_count(31250001 ** 2)
    monkeypatch.setattr(rigidity, "_fundamental_blocks", admitted)
    with pytest.raises(Admitted):
        rigidity.rigidity_scan(10 ** 9)  # 19,224 algebras, 184,771,476 pairs
    # the scan's cap: 4096 bytes per unit of isqrt(x) admit q <= 610,351
    monkeypatch.setattr(rigidity, "_all_quaternion_algebras", admitted)
    with pytest.raises(Admitted):
        rigidity.rigidity_scan(610352 ** 2 - 1)
    with pytest.raises(arith.SieveBudgetError):
        rigidity.rigidity_scan(610352 ** 2)


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_leaf_has_a_runner_and_every_group_a_format():
    groups = _subcommands(build_parser())
    leaves = [(name, leaf_name, leaf) for name, group in groups.items()
              for leaf_name, leaf in _subcommands(group).items()]
    assert (len(groups), len(leaves)) == (7, 24)
    for name, group in groups.items():
        csv = name in ("census", "geodesics", "surfaces")
        assert group.get_default("default_format") == ("csv" if csv else "json"), name
    for name, leaf_name, leaf in leaves:
        assert callable(leaf.get_default("run")), (name, leaf_name)


@pytest.mark.parametrize("pin", PINS["runs"], ids=lambda pin: pin["argv"])
def test_leaf_output_pinned(capsys, tmp_path, pin):
    code, out = run(capsys, ["--cache-dir", str(tmp_path), *pin["argv"].split()])
    assert (code, out) == (pin["code"], pin["stdout"])


@pytest.mark.skipif(sys.version_info[:2] != tuple(PINS["python"]),
                    reason=f"help texts captured with Python {PINS['python']}'s argparse")
@pytest.mark.parametrize("pin", PINS["help"], ids=lambda pin: pin["argv"])
def test_help_text_pinned(capsys, monkeypatch, pin):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(pin["argv"].split())
    assert (exc.value.code, capsys.readouterr().out) == (pin["code"], pin["stdout"])


def test_census_inputs_validated(capsys):
    assert main(["census", "csa", "--m", "0", "--n", "3", "--x", "100"]) == 2
    assert "m and n must be >= 1" in capsys.readouterr().err
    for args in (["csa", "--m", "2", "--n", "2", "--x", "0"],
                 ["division", "--n", "2", "--x", "-5"],
                 ["division", "--n", "2", "--x", "100", "--thresholds", "0,100"],
                 ["embed-quads", "--b", "2,inf", "--x", "0"],
                 ["quat-subfields", "--fields=-4", "--x", "-1"],
                 ["fund-disc", "--x", "0"],
                 ["fund-disc", "--x", "0", "--thresholds", "1,10"]):
        assert main(["census", *args]) == 2, args
        assert "x must be >= 1" in capsys.readouterr().err, args


def test_degrees_near_a_million_finish(capsys):
    # p^(n^2 - n^2/d) > x already at p = 2: no Newton step on a power of 10^12
    assert run(capsys, ["census", "division", "--n", "1000003", "--x", "10"]) == (
        0, "x,count\n10,0\n")
    assert run(capsys, ["census", "csa", "--m", "6", "--n", "1000002", "--x", "10"]) == (
        0, "x,count\n10,1\n")
    # divisors by factorization, no numerators for a d past the bound, and a
    # sparse residue distribution: no list of 10^9 entries
    assert run(capsys, ["census", "division", "--n", "1000000007", "--x", "10"]) == (
        0, "x,count\n10,0\n")
    assert run(capsys, ["census", "csa", "--m", "1000000007", "--n", "1000000007",
                        "--x", "10"]) == (0, "x,count\n10,1\n")


def test_geodesics_cli(capsys):
    code, out = run(capsys, ["geodesics", "from-field", "--delta", "5"])
    assert code == 0
    assert out.startswith("delta,trace,length\n5,3,1.9248473")
    assert run(capsys, ["geodesics", "from-field", "--delta", "9"]) == (2, "")
    code, out = run(capsys, ["--format", "json", "geodesics", "census",
                             "--b", "2,3", "--x", "40"])
    assert json.loads(out)["count"] == 6


def test_volumes_and_surfaces_cli(capsys):
    code, out = run(capsys, ["volumes", "coarea", "--b", "2,3"])
    assert code == 0
    assert abs(json.loads(out)["coarea"] - 6.5797362673929) < 1e-9
    code, out = run(capsys, ["volumes", "kleinian", "--field", "-4", "--bl", "5.1,5.2"])
    assert abs(json.loads(out)["covolume"] - 4.885149835611835) < 1e-9
    code, out = run(capsys, ["surfaces", "census", "--field", "-4",
                             "--bl", "5.1,5.2", "--x", "10000"])
    assert code == 0
    assert out.splitlines()[0] == "ram_set,area"
    assert out.splitlines()[1].startswith('"2,5",13.159')


def test_predict_cli(capsys):
    code, out = run(capsys, ["predict", "delta-n", "--n", "2", "--cutoff", "10000"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.6079) < 1e-3
    code, out = run(capsys, ["predict", "report", "--model", "quads:2,inf",
                             "--x", "100000"])
    assert code == 0
    assert json.loads(out)["rows"][0]["meets_bound"] is True


def test_limit_pair_cli(capsys):
    code, out = run(capsys, ["rigidity", "limit-pair", "--m", "3"])
    payload = json.loads(out)
    assert (payload["delta1"], payload["delta2"]) == (-3, -51)
    assert payload["witness_primes"][0] == 7


def test_family_cli(capsys):
    code, out = run(capsys, ["rigidity", "family", "--b", "2,3",
                             "--fields", "5", "--count", "2"])
    assert json.loads(out)["members"] == ["2,3,7,13", "2,3,7,17"]


def test_bounds_cli(capsys):
    code, out = run(capsys, ["bounds", "gw", "--nk", "1", "--b-omega", "4", "--x", "10"])
    assert abs(json.loads(out)["value"] - 5644800) < 1
    code, out = run(capsys, ["bounds", "theta", "--x", "100"])
    assert abs(json.loads(out)["theta"] - 83.7283903990) < 1e-6
    code, out = run(capsys, ["bounds", "recognizing", "--x", "4"])
    assert json.loads(out)["log10"] > 30
    code, out = run(capsys, ["bounds", "brauer", "--disc1", "25", "--disc2", "25"])
    assert abs(json.loads(out)["value"] - 17176587.07) < 1
    code, out = run(capsys, ["bounds", "mcreid", "--volume", "0"])
    assert json.loads(out)["value"] == 1.0
    code, out = run(capsys, ["bounds", "chlr", "--volume", "2.8", "--dim", "2"])
    assert "log10" in json.loads(out)["value"]


def test_family_count_validated(capsys):
    assert main(["rigidity", "family", "--b", "2,3", "--fields", "5", "--count", "-1"]) == 2
    assert "count must be >= 0" in capsys.readouterr().err
    code, out = run(capsys, ["rigidity", "family", "--b", "2,3", "--fields", "5",
                             "--count", "0"])
    assert code == 0
    assert out == '{"base": "2,3","members": []}\n'


# a valid argv for every subcommand that takes a float option
_FLOAT_BASES = {
    ("geodesics", "census"): ["geodesics", "census", "--b", "2,3", "--x", "40"],
    ("surfaces", "census"): ["surfaces", "census", "--field", "-4", "--bl", "5.1,5.2",
                             "--x", "1000"],
    ("bounds", "recognizing"): ["bounds", "recognizing", "--x", "100"],
    ("bounds", "chlr"): ["bounds", "chlr", "--volume", "2", "--dim", "3"],
    ("bounds", "mcreid"): ["bounds", "mcreid", "--volume", "2"],
    ("bounds", "brauer"): ["bounds", "brauer", "--disc1", "6", "--disc2", "10"],
    ("bounds", "gw"): ["bounds", "gw", "--b-omega", "2", "--x", "100"],
    ("bounds", "theta"): ["bounds", "theta", "--x", "100"],
}


def _float_options(parser, path=()):
    """(subcommand path, option) for every option that parses a float."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _float_options(sub, path + (name,))
        elif action.type not in (None, int):
            yield path, action.option_strings[0]


_FLOAT_OPTIONS = sorted(_float_options(build_parser()))


def test_float_options_all_listed():
    assert len(_FLOAT_OPTIONS) == 18
    assert {path for path, _ in _FLOAT_OPTIONS} == set(_FLOAT_BASES)


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("path, option", _FLOAT_OPTIONS)
def test_float_options_reject_non_finite(capsys, path, option, value):
    argv = ["--format", "json", *_FLOAT_BASES[path], option, value]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 2), argv
    if code == 0:
        strict_json(out)


@pytest.mark.parametrize("argv", [
    ["geodesics", "census", "--b", "2,3", "--x", "40", "--volume", "1000"],
    ["surfaces", "census", "--field", "-4", "--bl", "5.1,5.2", "--x", "100000",
     "--volume", "1000"],
])
def test_exp_bound_overflow_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["predict", "delta-n", "--n", "2", "--cutoff", "0"],
    ["predict", "delta-n", "--n", "2", "--cutoff", "1"],
    ["predict", "delta-n", "--n", "2", "--cutoff", "-5"],
    ["predict", "embed-constant", "--fields=-4", "--cutoff", "0"],
    ["predict", "embed-constant", "--fields=-4,5", "--cutoff", "1"],
    ["predict", "report", "--model", "division:2", "--x", "100", "--cutoff", "0"],
    # (n^2 (1 - 1/l))^(l - 2) past the float range, for l = n prime from 83 on
    ["predict", "delta-n", "--n", "83"],
    ["predict", "delta-n", "--n", "1009"],
    ["predict", "delta-n", "--n", "1000003"],
    ["predict", "delta-n", "--n", "1000000007"],
    ["predict", "report", "--model", "division:211", "--x", "100"],
    ["predict", "report", "--model", "division:1000000007", "--x", "10"],
    ["bounds", "recognizing", "--x", "3", "--dk", "0"],
    ["bounds", "recognizing", "--x", "3", "--dk", "-1"],
    ["bounds", "gw", "--b-omega", "0", "--x", "10"],
    ["bounds", "gw", "--b-omega", "-1", "--x", "10"],
    ["bounds", "brauer", "--disc1", "1", "--disc2", "1"],
    # a bound whose log10 is at or below -1e308 has no JSON form
    ["bounds", "mcreid", "--volume", "1e300", "--const-c=-1e9"],
    ["bounds", "chlr", "--volume", "1e6", "--dim", "2", "--const-c2=-1"],
    ["volumes", "min-cf", "--dk", "-5", "--nk", "1"],
    ["volumes", "min-cf", "--dk", "1", "--nk", "400"],
    ["volumes", "min-cf", "--dk", "4", "--nk", "2", "--ram-norms=-3,1"],
    ["volumes", "min-cf", "--dk", "4", "--nk", "2", "--ram-norms=1"],
    ["--out", "{missing}/x.txt", "census", "fund-disc", "--x", "10"],
    # place tokens are `inf` or a prime: composite bases exit 2 over a quadratic field
    ["volumes", "kleinian", "--field", "-4", "--bl", "4,6"],
    ["volumes", "kleinian", "--field", "-4", "--bl", "9.1,9.2"],
    ["surfaces", "census", "--field", "-4", "--bl", "4,6", "--x", "1000"],
    # and a prime is ASCII digits: int() would read 1_1 as 11
    ["census", "embed-quads", "--b", "1_1,2", "--x", "100"],
], ids=" ".join)
def test_invalid_inputs_exit_2_with_a_message(capsys, tmp_path, argv):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _readme_commands():
    """(argv, annotation or None) for every `quatrig` line of the README CLI block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, note = line.partition("# ->")
        yield shlex.split(command)[1:], note.strip() or None


def test_readme_commands_run(capsys, tmp_path):
    commands = list(_readme_commands())
    assert len(commands) == 22
    for argv, note in commands:
        code, out = run(capsys, ["--cache-dir", str(tmp_path), *argv])
        assert code == 0, argv
        if note is None:
            continue
        if note.startswith("{"):  # the named JSON fields of the output
            expected = json.loads(note)
            assert {k: json.loads(out)[k] for k in expected} == expected, argv
        else:  # CSV lines, separated by " / "
            assert out == note.replace(" / ", "\n") + "\n", argv


def test_limit_pair_answers_past_the_old_cap(capsys):
    # the partner of m = 73 lies past 10^8, where a cap on |delta| once stopped the search
    for m, partner, primes in ((60, -14496387, [73, 79]), (73, -227160267, [97, 103])):
        code, out = run(capsys, ["rigidity", "limit-pair", "--m", str(m)])
        assert code == 0
        assert json.loads(out) == {"delta1": -3, "delta2": partner, "m": m,
                                   "witness_primes": primes}


def test_negative_limit_keeps_its_message(capsys):
    code = main(["geodesics", "census", "--b", "2,3", "--x", "-5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: limit must be >= 0\n")


def test_no_command_builds_the_discriminant_table(capsys, monkeypatch, tmp_path):
    # every reader walks the stream or the enumerator; the table is for library callers
    def refuse(limit):
        raise AssertionError(f"table to {limit} built")

    for module in [m for name, m in sys.modules.items() if name.startswith("quatrig")]:
        if hasattr(module, "fundamental_discriminants"):
            monkeypatch.setattr(module, "fundamental_discriminants", refuse)
    for argv in (["geodesics", "census", "--b", "2,3", "--x", "3000"],
                 ["rigidity", "scan", "--x", "1000", "--not-totally-complex"],
                 ["rigidity", "distinguish", "--b1", "2,3", "--b2", "2,5"],
                 ["rigidity", "limit-pair", "--m", "13"],
                 ["census", "fund-disc", "--x", "3000"]):
        code, _ = run(capsys, ["--cache-dir", str(tmp_path), *argv])
        assert code == 0, argv
    assert census.fundamental_discriminant_count(3000) == 1820
    assert census.splitting_density(PlaceQ.finite(2), 3000) == (
        Fraction(121, 364), Fraction(152, 455), Fraction(607, 1820))
    assert census.smallest_inert_stats(3000) == {
        "max_ratio": math.log(13) / math.log(24), "delta": -24, "prime": 13, "x": 3000}


def test_census_without_cache_dir_writes_only_the_test_cache(capsys, tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    code, out = run(capsys, ["census", "division", "--n", "2", "--x", "100"])
    assert (code, out) == (0, "x,count\n100,6\n")
    cache_dir = Path(os.environ["QUATRIG_CACHE_DIR"])
    assert cache_dir == tmp_path / "census-cache"
    assert len(list(cache_dir.iterdir())) == 1
    assert list(home.iterdir()) == []


# small values for every option of every leaf command, so that no draw runs
# at a default scale (--cutoff, --x, --delta-max and the rest are always given);
# 1e300 and -1e9 push exponent constants past the float range either way
_FUZZ_FLOATS = ["0", "-1", "0.5", "2.5", "1e300", "-1e9"]
_FUZZ_STRINGS = {
    "b": ["", "2,3", "2,inf", "3,inf", "2,3,5,7", "2", "inf", "4,inf"],
    "fields": ["-4", "5", "-4,5", "-3,-4", "8", "-4,-4", "1", "12", ""],
    "bl": ["5.1,5.2", "5.1", "2", "3", "", "13.1,13.2", "7"],
    "thresholds": ["1,10", "40", "0,5", "", "60,1"],
    "model": ["division:2", "division:3", "embed:-4", "embed:-4,5", "embed:",
              "quads:2,inf", "bogus:1", "division:x"],
    "ram_norms": ["5,5", "", "2", "0", "-3"],
}
# limit-pair matches the splitting of Q(sqrt(-3)) at every p <= m, a search
# that grows like 2^pi(m): on a 2-core Xeon m = 47 takes 0.06 s, m = 71 0.14 s
# and m = 83 10 s.
# Algebra degrees reach primes past 79, where the growth constants leave the
# float range.
_FUZZ_INT_MAX = {("rigidity", "limit-pair", "m"): 71, ("predict", "delta-n", "n"): 200,
                 ("census", "division", "n"): 200, ("census", "csa", "m"): 200,
                 ("census", "csa", "n"): 200}


def _leaves(parser, path=()):
    """(subcommand path, options) for every leaf command of the parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, [a for a in parser._actions if a.option_strings and a.dest != "help"]
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaves(sub, path + (name,))


def _option_args(path, action):
    """A strategy for the argv tokens of one option of the leaf at path."""
    opt = action.option_strings[0]
    if action.nargs == 0:  # store_true
        return st.sampled_from([[], [opt]])
    if action.type is int:
        values = st.integers(-3, _FUZZ_INT_MAX.get((*path, action.dest), 60)).map(str)
    elif action.type is not None:
        values = st.sampled_from(_FUZZ_FLOATS)
    else:
        values = st.sampled_from(_FUZZ_STRINGS[action.dest.rstrip("12")])
    return values.map(lambda v: [f"{opt}={v}"])


def _argv(leaf):
    path, actions = leaf
    return st.tuples(*(_option_args(path, a) for a in actions)).map(
        lambda parts: [*path, *(tok for part in parts for tok in part)])


_LEAVES = list(_leaves(build_parser()))


def test_fuzz_has_values_for_every_option():
    assert len(_LEAVES) == 24
    strings = {a.dest.rstrip("12") for _, actions in _LEAVES for a in actions
               if a.type is None and a.nargs != 0}
    assert strings == set(_FUZZ_STRINGS)


@settings(max_examples=600, deadline=None, database=None)
@seed(20261018)
@given(argv=st.sampled_from(_LEAVES).flatmap(_argv),
       fmt=st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]),
       to_file=st.booleans())
def test_cli_contract_on_fuzzed_argv(tmp_path_factory, argv, fmt, to_file):
    work = tmp_path_factory.mktemp("fuzz")
    out_args = ["--out", str(work / "out.txt")] if to_file else []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([*fmt, *out_args, "--cache-dir", str(work / "cache"), *argv])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    out_file = work / "out.txt"
    text = out_file.read_text() if out_file.exists() else stdout.getvalue()
    if text.startswith("{"):
        strict_json(text)
