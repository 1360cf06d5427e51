"""Span tracing of one `quatrig` CLI process, installed from outside `src/`.

`Tracer.install` replaces every function and class of the layer modules by
a wrapper, both in its own module and in every module that imported it by
name (`census.kronecker_symbol`, `rigidity.embeds`).  A wrapper called from
its own module passes straight through; called from any other module it
records a span: name, start, end, parent span and request id (the command's
index in the pass).  Imports of the layer modules, and of numpy and mpmath,
are spans too, because every CLI process pays for them.

Memory stays bounded: every call is aggregated into a (parent, callee) count
and total time, and only the first SPANS_PER_PAIR calls of each pair are
kept as individual spans.  Spans are written out when the process ends.

A few kernels also get probes, timed without a span so that the per-layer
self times are unchanged: sieve builds, fundamental-discriminant lists,
Euler products and argument parsing.
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "cache", "census", "arith", "fields", "brauer", "asymptotics",
          "geometry", "rigidity")
DEPS = ("numpy", "mpmath")
SPANS_PER_PAIR = 50

_perf = time.perf_counter
_getframe = sys._getframe


def _traceable(obj, layer: str) -> bool:
    """Functions and classes defined in the layer module.  Exception and enum
    classes stay as they are: `except` clauses and enum members need them."""
    if getattr(obj, "__module__", None) != f"quatrig.{layer}":
        return False
    if isinstance(obj, type):
        return not issubclass(obj, (BaseException, enum.Enum))
    return callable(obj)


class _ClassProxy:
    """Stands in for a class: construction and classmethod calls from other
    modules are spans."""

    def __init__(self, tracer, cls, name, layer, home):
        self._cls = cls
        self._tracer = tracer
        self._name = name
        self._layer = layer
        self._home = home
        self._attrs = {}

    def __call__(self, *args, **kwargs):
        if _getframe(1).f_globals is self._home:
            return self._cls(*args, **kwargs)
        return self._tracer.call(self._name, self._layer, self._cls, args, kwargs)

    def __getattr__(self, attr):
        value = getattr(self._cls, attr)
        if not callable(value) or isinstance(value, type):
            return value
        if attr not in self._attrs:
            self._attrs[attr] = self._tracer.wrap(value, f"{self._name}.{attr}",
                                                  self._layer, self._home)
        return self._attrs[attr]


class _ImportTimer:
    """Meta-path finder that turns module execution into an import span."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if name in DEPS:
            layer = "deps"
        elif name.startswith("quatrig.") and name.split(".")[1] in LAYERS:
            layer = name.split(".")[1]
        else:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or not hasattr(spec.loader, "exec_module"):
            return spec
        execute = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            tracer.call(f"import {name}", layer, execute, (module,), {}, is_call=False)

        spec.loader.exec_module = exec_module
        return spec


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.origin = _perf()
        # frame: [span name, layer, time covered by child spans, span index]
        self.stack = [["process", None, 0.0, -1]]
        keys = LAYERS + ("deps",)
        self.depth = dict.fromkeys(keys, 0)
        self.calls = dict.fromkeys(keys, 0)
        self.call_s = dict.fromkeys(keys, 0.0)
        self.import_s = dict.fromkeys(keys, 0.0)
        self.self_s = dict.fromkeys(keys, 0.0)
        self.pairs = {}
        self.spans = []
        self.counters = defaultdict(float)
        self._fund_disc = None

    # -- span bookkeeping ---------------------------------------------------

    def call(self, name, layer, fn, args, kwargs, hook=None, is_call=True):
        stack = self.stack
        parent = stack[-1]
        key = (parent[0], name)
        agg = self.pairs.get(key)
        if agg is None:
            agg = self.pairs[key] = [0, 0.0]
        frame = [name, layer, 0.0, -1]
        if agg[0] < SPANS_PER_PAIR:
            frame[3] = len(self.spans)
            self.spans.append(None)
        stack.append(frame)
        self.depth[layer] += 1
        t0 = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _perf()
            stack.pop()
            self.depth[layer] -= 1
            dur = t1 - t0
            parent[2] += dur
            agg[0] += 1
            agg[1] += dur
            self.self_s[layer] += dur - frame[2]
            if is_call:
                self.calls[layer] += 1
            if self.depth[layer] == 0:
                (self.call_s if is_call else self.import_s)[layer] += dur
            if frame[3] >= 0:
                self.spans[frame[3]] = (name, t0 - self.origin, t1 - self.origin,
                                        parent[3], self.request_id)
        if hook is not None:
            hook(self, result, args)
        return result

    def wrap(self, fn, name, layer, home, hook=None):
        call = self.call

        def traced(*args, **kwargs):
            if _getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            return call(name, layer, fn, args, kwargs, hook)

        return traced

    # -- installation -------------------------------------------------------

    def install_import_hook(self):
        sys.meta_path.insert(0, _ImportTimer(self))

    def _probe(self, fn, on_exit):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            t0 = _perf()
            result = fn(*args, **kwargs)
            on_exit(self, _perf() - t0, result, args)
            return result

        return probed

    def install(self):
        """Wrap the functions and classes of every imported layer module."""
        modules = {layer: sys.modules[f"quatrig.{layer}"] for layer in LAYERS}
        self._fund_disc = modules["census"].fundamental_discriminants
        # methods are patched on the real classes, before proxies replace them
        _probe_sieve(self, modules["arith"].SieveTable)
        store, home = modules["cache"].CensusCache, vars(modules["cache"])
        store.load = self.wrap(store.load, "cache.CensusCache.load", "cache", home,
                               _on_cache_load)
        store.store = self.wrap(store.store, "cache.CensusCache.store", "cache", home,
                                _on_cache_store)
        replaced = {}
        for layer, module in modules.items():
            home = vars(module)
            for attr, obj in list(home.items()):
                if attr.startswith("__") or not _traceable(obj, layer):
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    traced = _ClassProxy(self, obj, name, layer, home)
                else:
                    inner = self._probe(obj, _PROBES[name]) if name in _PROBES else obj
                    traced = self.wrap(inner, name, layer, home, _HOOKS.get(name))
                replaced[id(obj)] = traced
                home[attr] = traced
        # names bound by `from .x import y` in the other modules
        for module in modules.values():
            home = vars(module)
            for attr, obj in list(home.items()):
                if id(obj) in replaced:
                    home[attr] = replaced[id(obj)]

    # -- output -------------------------------------------------------------

    def report(self) -> dict:
        if self._fund_disc is not None:
            info = self._fund_disc.cache_info()
            self.counters["census.fund_disc.hits"] += info.hits
            self.counters["census.fund_disc.misses"] += info.misses
        return {
            "layers": {k: {"calls": self.calls[k], "call_s": self.call_s[k],
                           "import_s": self.import_s[k], "self_s": self.self_s[k]}
                       for k in self.calls},
            "pairs": [[p, c, n, s] for (p, c), (n, s) in self.pairs.items()],
            "counters": dict(self.counters),
            "spans": [s for s in self.spans if s is not None],
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.report(), fh)


def start(request_id: int) -> Tracer:
    """A tracer whose import spans cover every layer imported from now on."""
    tracer = Tracer(request_id)
    tracer.install_import_hook()
    return tracer


# -- probes and return-value hooks --------------------------------------------

def _on_fund_disc(tracer, dur, result, args):
    tracer.counters["census.fund_disc.calls"] += 1
    tracer.counters["census.fund_disc.s"] += dur


def _count_products(tracer, products, cutoff):
    primes = sys.modules["quatrig.arith"]._SHARED.primes  # grown to cutoff by the product
    tracer.counters["asymptotics.products"] += products
    tracer.counters["asymptotics.euler_terms"] += products * int(
        primes.searchsorted(cutoff, side="right"))


def _on_delta_mn(tracer, dur, result, args):
    m, n, cutoff = args
    ell = next(p for p in range(2, n + 1) if n % p == 0)
    # one Euler product per residue j in range(0, m, l); none when l does not divide m
    _count_products(tracer, len(range(0, m, ell)) if m % ell == 0 else 0, cutoff)


def _on_embed_constant(tracer, dur, result, args):
    _count_products(tracer, 1, result.cutoff)


def _on_build_parser(tracer, dur, parser, args):
    tracer.counters["cli.parse_s"] += dur
    parse_args = parser.parse_args

    def timed_parse(*a, **k):
        t0 = _perf()
        try:
            return parse_args(*a, **k)
        finally:
            tracer.counters["cli.parse_s"] += _perf() - t0

    parser.parse_args = timed_parse


def _probe_sieve(tracer, cls):
    init = cls.__init__

    @functools.wraps(init)
    def timed_init(self, limit):
        t0 = _perf()
        init(self, limit)
        counters = tracer.counters
        counters["arith.sieve.builds"] += 1
        counters["arith.sieve.s"] += _perf() - t0
        counters["arith.sieve.max_limit"] = max(counters["arith.sieve.max_limit"], limit)
        # computed from the arrays the table keeps, not measured traffic
        counters["arith.sieve.bytes"] += sum(
            a.nbytes for a in vars(self).values() if hasattr(a, "nbytes"))

    cls.__init__ = timed_init


def _on_cache_load(tracer, table, args):
    store, spec = args
    if table is None:
        tracer.counters["cache.misses"] += 1
    else:
        tracer.counters["cache.hits"] += 1
        tracer.counters["cache.bytes_read"] += store._path(spec).stat().st_size


def _on_cache_store(tracer, path, args):
    tracer.counters["cache.bytes_written"] += path.stat().st_size


def _on_census_result(tracer, result, args):
    if isinstance(result, int) and not isinstance(result, bool):
        tracer.counters["census.counted"] += result
    elif getattr(result, "counts", None):
        tracer.counters["census.counted"] += result.counts[-1]


def _on_geodesics(tracer, result, args):
    tracer.counters["geometry.geodesics"] += result.count


def _on_scan(tracer, result, args):
    tracer.counters["rigidity.pairs"] += len(result.pairs)


def _on_distinguish(tracer, result, args):
    tracer.counters["rigidity.pairs"] += 1


# timed for counters without a span, whoever calls them
_PROBES = {
    "census.fundamental_discriminants": _on_fund_disc,
    "asymptotics.delta_mn": _on_delta_mn,
    "asymptotics.embed_constant_r1": _on_embed_constant,
    "asymptotics.embed_constant_general": _on_embed_constant,
    "cli.build_parser": _on_build_parser,
}

# run on the result of a call that crossed into the callee's module
_HOOKS = {
    "census.census_csa": _on_census_result,
    "census.census_division": _on_census_result,
    "census.census_embedding_quads": _on_census_result,
    "census.census_quat_with_subfields": _on_census_result,
    "census.fundamental_discriminant_count": _on_census_result,
    "geometry.geodesic_census": _on_geodesics,
    "rigidity.rigidity_scan": _on_scan,
    "rigidity.distinguish_quaternions": _on_distinguish,
}
