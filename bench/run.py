"""quatrig benchmark: the README's CLI commands at census scale.

    python3 bench/run.py --workload census|analytic|rigidity --seed N \\
        --seconds S --trace 0|1 [--record FILE]

A closed loop with one client: each command of a workload pass runs in a
fresh Python process (bench/child.py calls `quatrig.cli.main(argv)`), one at
a time.  Passes repeat while the next one still fits in S seconds; at least
one always runs.  With --trace 0 every process runs untraced and the run
reports the end-to-end metrics, with times scaled to a reference machine
speed measured between commands (see REFERENCE_PROBE_S).  With --trace 1
untraced and traced passes alternate and the run reports the per-layer
metrics of the traced passes, plus their overhead over the untraced ones.

Every command's stdout is checked: exit code 0, no traceback, strict JSON or
well-formed CSV, the same bytes as the reference digest taken at the commit
that defined the benchmark (bench/reference.json), and the same bytes as
every earlier run of that argv in this run, warm-cache reruns and traced
runs included.  A command that fails any check counts in `failed`.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics.  The lines before it list every metric with its sample count, the
failures, the per-command medians and the machine context.

    python3 bench/run.py --write-reference 0,1,2

re-takes the reference digests for the listed seeds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
RUN_DIR = ROOT / ".bench_run"
# a run must end within 180 s; the first command may compile bytecode
RUN_DEADLINE_S = 170.0
COMMAND_TIMEOUT_S = 150.0

# The machine shares its cores with other tenants, whose load changes the
# speed of the same code by up to a quarter, in phases from seconds to
# minutes.  The harness measures that speed with two probes and reports the
# end-to-end times at one reference speed; the raw times are printed too.
# - The compute probe times a fixed pure-Python loop, before the first
#   command of each pass and after every command.  The part of a process
#   after its imports is scaled by REFERENCE_PROBE_S over the mean of the
#   compute probes just before and just after it, which follows the
#   machine's speed through the run.
# - The startup probe times fresh interpreters from spawn until they have
#   imported numpy and mpmath, most of every process's set-up: STARTUP_REPS
#   of them before the first pass and after each pass.  Each process's
#   set-up is scaled by REFERENCE_STARTUP_S over the run's median startup
#   probe.  Set-up needs its own probe: start-up speed and the compute
#   probe drift apart over minutes.  It costs too much to run around every
#   command, and the median over the run keeps its own noise out.
# The references are about the probes' medians on the machine of
# results/BENCH_1.json.
PROBE_LOOP = 60_000
PROBE_REPS = 5
REFERENCE_PROBE_S = 0.006
STARTUP_REPS = 3
REFERENCE_STARTUP_S = 0.22
STARTUP_PROBE = "import time, numpy, mpmath; print(repr(time.monotonic()))"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rerun_s": "s",
}

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.total_s": "s",
                      f"{_layer}.self_s": "s"})
PER_LAYER.update({
    "arith.sieve.builds": "count",
    "arith.sieve.s": "s",
    "arith.sieve.max_limit": "count",
    "arith.sieve.bytes": "bytes",
    "arith.kronecker.calls": "count",
    "arith.kronecker.s": "s",
    "arith.L.calls": "count",
    "arith.L.s": "s",
    "arith.pell.calls": "count",
    "arith.pell.s": "s",
    "geometry.geodesics": "count",
    "census.counted": "count",
    "census.counted_per_s": "1/s",
    "census.fund_disc.calls": "count",
    "census.fund_disc.s": "s",
    "census.fund_disc.hit_ratio": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "cli.parse_s": "s",
    "cli.out_bytes": "bytes",
    "asymptotics.products": "count",
    "asymptotics.euler_terms": "count",
    "brauer.embeds.calls": "count",
    "rigidity.pairs": "count",
    "rigidity.probes_per_pair": "ratio",
    "trace.overhead_ratio": "ratio",
})
# Times of kernels that some workload never calls: they read exactly 0 there,
# so they are printed with the rest but left out of the result line.
REPORT_ONLY = {"arith.L.s", "arith.pell.s", "census.fund_disc.s", "cache.load_s",
               "cache.store_s"}

# callee span name -> (metric of its call count, metric of its total time)
CALLEES = {
    "arith.kronecker_symbol": ("arith.kronecker.calls", "arith.kronecker.s"),
    "arith.dirichlet_L": ("arith.L.calls", "arith.L.s"),
    "arith.pell_fundamental": ("arith.pell.calls", "arith.pell.s"),
    "cache.CensusCache.load": (None, "cache.load_s"),
    "cache.CensusCache.store": (None, "cache.store_s"),
    "brauer.embeds": ("brauer.embeds.calls", None),
}


@dataclass
class Result:
    argv: tuple[str, ...]
    role: str
    wall_s: float = 0.0
    setup_s: float | None = None
    rss_mb: float = 0.0
    stdout_sha: str = ""
    stdout_bytes: int = 0
    trace: dict | None = None
    failure: str | None = None
    # REFERENCE_PROBE_S over the compute probes around this command, and
    # REFERENCE_STARTUP_S over the run's median startup probe
    scale: float = 1.0
    setup_scale: float = 1.0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def scaled_wall_s(self) -> float:
        """wall_s at the reference speed: the set-up scaled by the startup
        probes, the rest by the compute probes."""
        if self.setup_s is None:
            return self.wall_s * self.scale
        return self.setup_s * self.setup_scale + (self.wall_s - self.setup_s) * self.scale


@dataclass
class Pass:
    traced: bool
    results: list[Result] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # compute probes, around each result

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


# -- output checks --------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite JSON number {text}")
    return value


def check_stdout(argv, data: bytes) -> str | None:
    """Why the stdout of `quatrig argv` is malformed, or None.  JSON must be
    strict (no NaN or Infinity, no number that overflows); CSV rows must
    match the header and hold finite numbers."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    if not text.endswith("\n"):
        return "stdout is empty or not newline-terminated"
    if argv[0] not in ("census", "geodesics", "surfaces"):
        try:
            json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
        except ValueError as exc:
            return f"invalid JSON: {exc}"
        return None
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    for row in rows[1:]:
        if len(row) != len(header):
            return f"CSV row {row} does not match header {header}"
        for name, value in zip(header, row):
            if name == "ram_set":
                continue
            try:
                int(value)  # exact counts and traces may have hundreds of digits
            except ValueError:
                try:
                    _finite_float(value)
                except ValueError:
                    return f"CSV field {name}={value!r} is not a finite number"
    return None


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["digests"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    """Correctness of every command output in one benchmark run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.seen: dict[str, str] = {}

    def check(self, result: Result, stdout: bytes) -> None:
        if result.failure is not None:
            return
        sha = result.stdout_sha
        first = self.seen.get(result.key)
        expected = self.reference.get(result.key)
        if expected is not None and sha != expected:
            result.failure = "stdout differs from the reference digest"
        elif first is not None and sha != first:
            result.failure = ("warm rerun differs from the cold run" if result.role == "rerun"
                              else "stdout differs from an earlier run of the same argv")
        elif first is None:
            result.failure = check_stdout(result.argv, stdout)
            self.seen[result.key] = sha


# -- running commands -----------------------------------------------------------

def speed_probe() -> float:
    """The compute probe: median time of PROBE_REPS runs of a fixed
    pure-Python loop."""
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def startup_probe() -> float:
    """The startup probe: seconds from spawning a fresh interpreter until it
    has imported numpy and mpmath, on the system-wide monotonic clock."""
    start = time.monotonic()
    probe = subprocess.run([sys.executable, "-c", STARTUP_PROBE], stdin=subprocess.DEVNULL,
                           capture_output=True, text=True, cwd=ROOT, check=True, timeout=60)
    return float(probe.stdout) - start


def run_command(cmd: workloads.Command, index: int, workdir: Path, cache_dir: Path,
                traced: bool, deadline: float) -> tuple[Result, bytes]:
    """Run one command in its own process; returns its result and stdout."""
    result = Result(cmd.argv, cmd.role)
    timeout = min(COMMAND_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        result.failure = "not started: the run's time limit was reached"
        return result, b""
    stats_path = workdir / f"{index}.stats"
    trace_path = workdir / f"{index}.trace"
    out_path = workdir / f"{index}.out"
    err_path = workdir / f"{index}.err"
    for path in (stats_path, trace_path):
        path.unlink(missing_ok=True)
    argv = (["--cache-dir", str(cache_dir)] if cmd.cached else []) + list(cmd.argv)
    child = [sys.executable, str(CHILD), str(stats_path),
             str(trace_path) if traced else "-", str(index), "--", *argv]
    env = dict(os.environ, QUATRIG_CACHE_DIR=str(cache_dir))
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(child, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(timeout, lambda: (killed.append(True), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        result.wall_s = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    result.stdout_sha = digest(stdout)
    result.stdout_bytes = len(stdout)
    stderr = err_path.read_text(errors="replace")
    # ru_maxrss of a child also counts the harness pages it was forked from;
    # the child's own high-water mark is exact when it could report one
    result.rss_mb = usage.ru_maxrss / 1024.0
    if stats_path.exists():
        stats = json.loads(stats_path.read_text())
        result.setup_s = stats["import_done"] - start
        result.rss_mb = (stats["peak_rss_kb"] or usage.ru_maxrss) / 1024.0
    if traced and trace_path.exists():
        result.trace = json.loads(trace_path.read_text())
    if killed:
        result.failure = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        result.failure = f"exit code {proc.returncode}: {stderr.strip()[-300:]}"
    elif "Traceback (most recent call last)" in stderr:
        result.failure = "traceback on stderr"
    elif traced and result.trace is None:
        result.failure = "traced run wrote no trace"
    return result, stdout


def run_pass(cmds, workdir: Path, traced: bool, deadline: float, gate: Gate) -> Pass:
    cache_dir = workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    run = Pass(traced)
    run.probes.append(speed_probe())
    for index, cmd in enumerate(cmds):
        result, stdout = run_command(cmd, index, workdir, cache_dir, traced, deadline)
        run.probes.append(speed_probe())
        result.scale = 2 * REFERENCE_PROBE_S / (run.probes[-2] + run.probes[-1])
        gate.check(result, stdout)
        run.results.append(result)
    return run


def run_passes(cmds, seconds: float, trace: bool, gate: Gate) -> tuple[list[Pass], list[float]]:
    """The run's passes and its startup probes."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    workdir = RUN_DIR / f"{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    passes: list[Pass] = []
    startups = [startup_probe() for _ in range(STARTUP_REPS)]
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(cmds, workdir, traced, deadline, gate))
            startups += [startup_probe() for _ in range(STARTUP_REPS)]
            longest = max(p.wall_s for p in passes)
            elapsed = time.monotonic() - start
            if elapsed + longest > RUN_DEADLINE_S - 5:
                break
            if trace and not any(p.traced for p in passes):
                continue
            if elapsed + longest > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_scale = REFERENCE_STARTUP_S / statistics.median(startups)
    for result in (r for p in passes for r in p.results):
        result.setup_scale = setup_scale
    return passes, startups


# -- metrics --------------------------------------------------------------------

def summary(values) -> dict:
    values = sorted(values)
    if not values:
        return {"value": 0.0, "n": 0}
    out = {"value": statistics.median(values), "n": len(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def end_to_end(passes, scaled=True) -> dict:
    """The end-to-end metrics of the untraced passes, with times at the
    reference speed (or as measured, with scaled=False)."""
    untraced = [p for p in passes if not p.traced]
    results = [r for p in untraced for r in p.results]

    def wall(r):
        return r.scaled_wall_s if scaled else r.wall_s

    def setup(r):
        return r.setup_s * r.setup_scale if scaled else r.setup_s

    walls = [[wall(r) for r in p.results] for p in untraced]
    total = summary([sum(w) for w in walls])
    # the sum of each command's median over the passes: a slow phase of the
    # machine then costs only the commands it overlapped, not a whole pass
    total["value"] = sum(statistics.median(w) for w in zip(*walls))
    return {
        "wall_s": total,
        "setup_s": summary([setup(r) for r in results if r.setup_s is not None]),
        "peak_rss_mb": summary([max(r.rss_mb for r in p.results) for p in untraced]),
        "rerun_s": summary([wall(r) for r in results if r.role == "rerun"]),
    }


def pass_layers(run: Pass) -> dict:
    """Per-layer metrics of one traced pass, summed over its processes."""
    m = defaultdict(float, {name: 0.0 for name in PER_LAYER if name != "trace.overhead_ratio"})
    callee_calls = defaultdict(float)
    callee_s = defaultdict(float)
    census_call_s = 0.0
    embeds_from_rigidity = 0
    for result in run.results:
        m["cli.out_bytes"] += result.stdout_bytes
        report = result.trace
        if report is None:
            continue
        for layer in LAYERS:
            stats = report["layers"][layer]
            m[f"{layer}.calls"] += stats["calls"]
            m[f"{layer}.total_s"] += stats["call_s"] + stats["import_s"]
            m[f"{layer}.self_s"] += stats["self_s"]
        census_call_s += report["layers"]["census"]["call_s"]
        for parent, callee, count, secs in report["pairs"]:
            callee_calls[callee] += count
            callee_s[callee] += secs
            if callee == "brauer.embeds" and parent.startswith("rigidity."):
                embeds_from_rigidity += count
        for name, value in report["counters"].items():
            if name == "arith.sieve.max_limit":
                m[name] = max(m[name], value)
            else:
                m[name] += value
    for callee, (calls, seconds) in CALLEES.items():
        if calls:
            m[calls] = callee_calls[callee]
        if seconds:
            m[seconds] = callee_s[callee]
    m["census.counted_per_s"] = m["census.counted"] / census_call_s if census_call_s else 0.0
    hits = m.pop("census.fund_disc.hits", 0.0)
    lookups = hits + m.pop("census.fund_disc.misses", 0.0)
    m["census.fund_disc.hit_ratio"] = hits / lookups if lookups else 0.0
    pairs = m["rigidity.pairs"]
    # each probe asks both algebras of a pair whether the field embeds
    m["rigidity.probes_per_pair"] = embeds_from_rigidity / 2 / pairs if pairs else 0.0
    return m


def per_layer(passes) -> dict:
    traced = [p for p in passes if p.traced]
    per_pass = [pass_layers(p) for p in traced]
    out = {name: summary([m[name] for m in per_pass])
           for name in PER_LAYER if name != "trace.overhead_ratio"}
    untraced_wall = statistics.median(p.wall_s for p in passes if not p.traced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    out["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall, "n": len(traced)}
    return out


# -- context ----------------------------------------------------------------------

def context(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quatrig").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30, 1),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "mpmath": metadata.version("mpmath"),
        "git_commit": commit, "src_sha256": src.hexdigest()[:16],
    }


# -- entry points -------------------------------------------------------------------

def _fmt(name, unit, s) -> str:
    spread = f"  q1..q3 {s['q1']:.6g}..{s['q3']:.6g}" if "q1" in s else ""
    return f"  {name:30s} {s['value']:>14.6g} {unit:6s} n={s['n']}{spread}"


def benchmark(args) -> int:
    cmds = workloads.commands(args.workload, args.seed)
    gate = Gate(load_reference())
    passes, startups = run_passes(cmds, args.seconds, bool(args.trace), gate)
    results = [r for p in passes for r in p.results]
    attempted = len(results)
    failed = [r for r in results if r.failure is not None]
    e2e = end_to_end(passes)
    raw = end_to_end(passes, scaled=False)
    speed = summary([REFERENCE_PROBE_S / t for p in passes for t in p.probes])
    startup_speed = summary([REFERENCE_STARTUP_S / t for t in startups])
    layers = per_layer(passes) if args.trace else {}
    ctx = context(args)

    n_traced = sum(p.traced for p in passes)
    print(f"# quatrig benchmark, workload {args.workload}, seed {args.seed}: "
          f"{len(passes) - n_traced} untraced and {n_traced} traced passes of "
          f"{len(cmds)} commands, one process each, one at a time")
    print("# end-to-end (untraced), times at the reference speed: median, samples, quartiles")
    for name, unit in END_TO_END.items():
        print(_fmt(name, unit, e2e[name]))
    print("# end-to-end times as measured, and the machine's speed against the reference")
    for name, unit in END_TO_END.items():
        if unit == "s":
            print(_fmt(f"{name} (raw)", unit, raw[name]))
    print(_fmt("speed (reference / probe)", "ratio", speed))
    print(_fmt("startup speed (ref. / probe)", "ratio", startup_speed))
    ratio = len(failed) / attempted
    print(f"  {'failed_ratio':30s} {ratio:>14.6g} ratio  ({len(failed)} of {attempted} "
          "commands failed)")
    if layers:
        print("# per-layer (traced passes): median, samples")
        for name, unit in PER_LAYER.items():
            print(_fmt(name, unit, layers[name]))
    print("# per-command wall time (untraced median, s: at the reference speed, raw) "
          "and peak RSS (MB)")
    for index, cmd in enumerate(cmds):
        runs = [p.results[index] for p in passes if not p.traced]
        print(f"  {statistics.median(r.scaled_wall_s for r in runs):8.3f} "
              f"{statistics.median(r.wall_s for r in runs):8.3f} "
              f"{max(r.rss_mb for r in runs):7.1f}  {cmd.role:5s} quatrig {' '.join(cmd.argv)}")
    for r in failed:
        print(f"# FAILED quatrig {r.key}: {r.failure}")
    print("# context " + json.dumps(ctx, sort_keys=True))

    if args.record:
        record = {
            "context": ctx,
            "end_to_end": {k: dict(v, unit=END_TO_END[k]) for k, v in e2e.items()},
            "end_to_end_raw": {k: dict(v, unit=END_TO_END[k]) for k, v in raw.items()
                               if END_TO_END[k] == "s"},
            "speed": speed,
            "startup_speed": startup_speed,
            "failed_ratio": {"value": ratio, "failed": len(failed), "attempted": attempted},
            "per_layer": {k: dict(v, unit=PER_LAYER[k]) for k, v in layers.items()},
            "commands": [
                {"argv": list(cmd.argv), "role": cmd.role,
                 **summary([p.results[i].scaled_wall_s for p in passes if not p.traced])}
                for i, cmd in enumerate(cmds)],
            "failures": [{"argv": r.key, "reason": r.failure} for r in failed],
        }
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if args.trace:
        metrics = {k: {"value": layers[k]["value"], "unit": u}
                   for k, u in PER_LAYER.items() if k not in REPORT_ONLY}
    else:
        metrics = {k: {"value": e2e[k]["value"], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


def write_reference(seeds) -> int:
    gate = Gate({})
    workdir = RUN_DIR / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                run = run_pass(workloads.commands(name, seed), workdir, False,
                               time.monotonic() + RUN_DEADLINE_S, gate)
                for r in run.results:
                    if r.failure:
                        print(f"seed {seed}: quatrig {r.key}: {r.failure}", file=sys.stderr)
                        return 1
                print(f"seed {seed} {name}: {len(run.results)} commands, {run.wall_s:.1f} s",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {"seeds": list(seeds), "digests": dict(sorted(gate.seen.items()))}
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full result record to this file")
    parser.add_argument("--write-reference", metavar="SEEDS",
                        help="re-take bench/reference.json for these comma-separated seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quatrig" / "cli.py").is_file():
        print(f"error: no quatrig sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference([int(s) for s in args.write_reference.split(",")])
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
