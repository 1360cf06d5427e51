import argparse
import json

import pytest

from quatrig.cli import build_parser, main


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


def test_warm_cache_byte_identical(capsys, tmp_path):
    censuses = {
        "csa": ["csa", "--m", "2", "--n", "2"],
        "division": ["division", "--n", "2"],
        "embed-quads": ["embed-quads", "--b", "2,inf"],
        "quat-subfields": ["quat-subfields", "--fields=-4"],
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


def test_census_inputs_validated(capsys):
    assert main(["census", "csa", "--m", "0", "--n", "3", "--x", "100"]) == 2
    assert "m and n must be >= 1" in capsys.readouterr().err
    for args in (["csa", "--m", "2", "--n", "2", "--x", "0"],
                 ["division", "--n", "2", "--x", "-5"],
                 ["division", "--n", "2", "--x", "100", "--thresholds", "0,100"],
                 ["embed-quads", "--b", "2,inf", "--x", "0"],
                 ["quat-subfields", "--fields=-4", "--x", "-1"],
                 ["fund-disc", "--x", "0"]):
        assert main(["census", *args]) == 2, args
        assert "x must be >= 1" in capsys.readouterr().err, args


def test_geodesics_cli(capsys):
    code, out = run(capsys, ["geodesics", "from-field", "--delta", "5"])
    assert code == 0
    assert out.startswith("delta,trace,length\n5,3,1.9248473")
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
