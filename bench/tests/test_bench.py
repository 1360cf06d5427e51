"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_ARGVS = [
    ("census", "division", "--n", "2", "--x", "1000000"),
    ("census", "quat-subfields", "--fields=-4", "--x", "100000000"),
    ("predict", "delta-n", "--n", "4", "--cutoff", "10000"),
    ("predict", "embed-constant", "--fields=-4,5", "--cutoff", "10000"),
    ("geodesics", "census", "--b", "2,3", "--x", "1000"),
    ("surfaces", "census", "--field", "-4", "--bl", "5.1,5.2", "--x", "100000000"),
    ("rigidity", "distinguish", "--b1", "2,inf", "--b2", "3,inf", "--delta-max", "1000"),
]

SCALE_FLAGS = {"--n", "--m", "--x", "--delta-max", "--cutoff", "--bl", "--field", "--model"}


def _scale(cmds):
    """What a seed must not change: subcommands, sizes, roles, and the
    largest division threshold."""
    out = []
    for c in cmds:
        flags = {a: b for a, b in zip(c.argv, c.argv[1:]) if a in SCALE_FLAGS}
        top = None
        if "--thresholds" in c.argv:
            top = max(map(int, c.argv[c.argv.index("--thresholds") + 1].split(",")))
        out.append((c.argv[:2], tuple(sorted(flags.items())), top, c.role, c.cached))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seed_changes_inputs_not_scales(name):
    base = workloads.commands(name, 0)
    assert workloads.commands(name, 0) == base
    others = [workloads.commands(name, seed) for seed in range(1, 12)]
    assert any(o != base for o in others)
    for other in others:
        assert _scale(other) == _scale(base)


def _field(cmds, subcommand, nth=0):
    """The --fields value (or the flag pair) of the nth cold `subcommand`."""
    found = [c.argv for c in cmds if " ".join(c.argv[:2]) == subcommand and c.role == "cold"]
    return found[nth]


def test_generated_inputs_are_valid():
    for seed in range(30):
        census = workloads.commands("census", seed)
        division = _field(census, "census division")
        assert int(division[-1].split(",")[-1]) == workloads.DIVISION_X
        delta = int(_field(census, "census quat-subfields")[2].split("=")[1])
        assert delta < 0 and workloads.is_fundamental(delta)
        analytic = workloads.commands("analytic", seed)
        pair, real = (_field(analytic, "predict embed-constant", i)[2].split("=")[1]
                      for i in (1, 2))
        d1, d2 = map(int, pair.split(","))
        assert workloads._independent(d1, d2)
        lo, hi = workloads.REAL_DELTA_RANGE
        assert lo <= int(real) <= hi and workloads.is_fundamental(int(real))
        assert int(real) % 4 == 1
        distinguish = _field(workloads.commands("rigidity", seed), "rigidity distinguish")
        assert distinguish[2] != distinguish[4]


def test_every_rerun_repeats_an_earlier_command():
    for name in workloads.WORKLOADS:
        cmds = workloads.commands(name, 3)
        for i, c in enumerate(cmds):
            if c.role == "rerun":
                assert any(e.argv == c.argv and e.role == "cold" for e in cmds[:i])


def _child(argv, tmp_path, traced):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(tmp_path / "stats.json"),
         str(trace) if traced else "-", "0", "--",
         "--cache-dir", str(tmp_path / "cache"), *argv],
        capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, (json.loads(trace.read_text()) if traced else None)


@pytest.mark.parametrize("argv", SMALL_ARGVS, ids=lambda a: " ".join(a[:2]))
def test_stdout_identical_with_tracing_on_and_off(argv, tmp_path):
    # traced first: on the census commands it computes and stores, the
    # untraced run then reads the cache
    traced, report = _child(argv, tmp_path, traced=True)
    plain, _ = _child(argv, tmp_path, traced=False)
    assert traced == plain
    assert report["layers"]["cli"]["calls"] == 1


def test_layer_self_times_fit_in_each_command(tmp_path):
    deadline = time.monotonic() + 300
    traced = run.Pass(traced=True)
    for index, argv in enumerate(SMALL_ARGVS):
        cmd = workloads.Command(argv, cached=argv[0] == "census")
        result, _ = run.run_command(cmd, index, tmp_path, tmp_path / "cache", True, deadline)
        assert result.failure is None, result.failure
        self_total = sum(v["self_s"] for v in result.trace["layers"].values())
        assert 0 < self_total <= result.wall_s
        traced.results.append(result)
    metrics = run.pass_layers(traced)
    assert set(run.PER_LAYER) - {"trace.overhead_ratio"} <= set(metrics)
    for name in ("cache.store_s", "cache.bytes_written", "arith.kronecker.s", "arith.L.s",
                 "arith.pell.s", "census.counted", "geometry.geodesics", "rigidity.pairs"):
        assert metrics[name] > 0, name


def test_trace_counts_cross_module_calls_only(tmp_path):
    _, report = _child(("predict", "embed-constant", "--fields=-4,5", "--cutoff", "10000"),
                       tmp_path, traced=True)
    pairs = {(p, c): n for p, c, n, _ in report["pairs"]}
    # embed_constant_general calls kronecker_symbol across the module boundary,
    # once per prime up to the cutoff plus a few for the ramified primes
    assert pairs[("asymptotics.embed_constant_general", "arith.kronecker_symbol")] > 1229
    assert report["counters"]["asymptotics.products"] == 1
    assert report["counters"]["asymptotics.euler_terms"] == 1229
    assert all(p.split(".")[0] != c.split(".")[0] for p, c in pairs
               if not c.startswith("import ") and p != "process")
    assert len(report["spans"]) <= tracing.SPANS_PER_PAIR * len(pairs)


@pytest.mark.parametrize("text", [
    '{"value": NaN}\n', '{"value": Infinity}\n', '{"value": -Infinity}\n',
    '{"value": 1e400}\n', '{"value": 1\n', "", '{"value": 1}',
])
def test_check_stdout_rejects_non_strict_json(text):
    assert run.check_stdout(("predict", "delta-n"), text.encode()) is not None


def test_check_stdout_csv():
    good = b'ram_set,area\n"2,5",13.15\n"3,5",26.3\n'
    assert run.check_stdout(("surfaces", "census"), good) is None
    assert run.check_stdout(("census", "division"), b"x,count\n100,6\n") is None
    assert run.check_stdout(("geodesics", "census"), b"delta,trace,length\n5," + b"9" * 400
                            + b",1.5\n") is None
    assert run.check_stdout(("census", "division"), b"x,count\n100,6,7\n") is not None
    assert run.check_stdout(("geodesics", "census"), b"delta,trace,length\n5,3,nan\n") is not None
    assert run.check_stdout(("predict", "delta-n"), b'{"value": 0.5}\n') is None


def test_gate_counts_reference_and_rerun_mismatches():
    argv = ("census", "csa", "--m", "3")
    gate = run.Gate({" ".join(argv): run.digest(b"x,count\n1,1\n")})
    ok = run.Result(argv, "cold", stdout_sha=run.digest(b"x,count\n1,1\n"))
    gate.check(ok, b"x,count\n1,1\n")
    assert ok.failure is None
    wrong = run.Result(argv, "rerun", stdout_sha=run.digest(b"x,count\n1,2\n"))
    gate.check(wrong, b"x,count\n1,2\n")
    assert wrong.failure == "stdout differs from the reference digest"

    gate = run.Gate({})
    argv = ("census", "division")
    gate.check(run.Result(argv, "cold", stdout_sha="a"), b"x,count\n1,1\n")
    rerun = run.Result(argv, "rerun", stdout_sha="b")
    gate.check(rerun, b"x,count\n1,2\n")
    assert rerun.failure == "warm rerun differs from the cold run"


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    def result(role, wall, scale, setup_scale):
        return run.Result(("predict", role), role, wall_s=wall, setup_s=0.2, rss_mb=50.0,
                          scale=scale, setup_scale=setup_scale)

    # the machine ran at half and then at full reference speed; set-up is
    # scaled by the startup probe, the rest of a process by the compute probe
    passes = [run.Pass(False, [result("cold", 2.2, 0.5, 0.5), result("rerun", 1.2, 0.5, 0.5)]),
              run.Pass(False, [result("cold", 1.2, 1.0, 1.0), result("rerun", 0.7, 1.0, 1.0)]),
              run.Pass(False, [result("cold", 3.2, 0.5, 1.0), result("rerun", 0.7, 1.0, 1.0)])]
    scaled = run.end_to_end(passes)
    # each command's median over the passes, summed
    assert scaled["wall_s"]["value"] == pytest.approx(1.2 + 0.7)
    assert scaled["wall_s"]["n"] == 3
    assert scaled["rerun_s"]["value"] == pytest.approx(0.7)
    assert scaled["setup_s"]["value"] == pytest.approx(0.2)
    assert scaled["setup_s"]["min"] == pytest.approx(0.1)
    raw = run.end_to_end(passes, scaled=False)
    assert raw["wall_s"]["value"] == pytest.approx(2.2 + 0.7)
    assert raw["rerun_s"]["value"] == pytest.approx(0.7)
    assert raw["setup_s"]["min"] == raw["setup_s"]["max"] == 0.2
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]


def test_probes_take_positive_time():
    assert 0 < run.speed_probe() < 1
    assert 0 < run.startup_probe() < 10


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, u in run.PER_LAYER.items() if k not in run.REPORT_ONLY}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
