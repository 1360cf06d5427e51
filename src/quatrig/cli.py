"""Command-line front end.

Subcommands mirror the library:

    census    csa | division | embed-quads | quat-subfields | fund-disc
    predict   delta-n | embed-constant | report
    geodesics from-field | census
    volumes   coarea | kleinian | min-cf
    surfaces  census
    rigidity  distinguish | scan | limit-pair | family
    bounds    recognizing | chlr | mcreid | brauer | gw | theta

The parser tree is the dispatch table: every leaf parser carries its runner
as the `run` default and every command group its default output format, so
`main` parses argv and calls `args.run(args)`, which prints through `_emit`.

Exit codes: 0 success, 2 validation error, 3 invariant violation (an
internal-inconsistency or a failed theorem-level search).  Output is CSV for
tables and JSON elsewhere; counts are emitted as exact decimal strings in
JSON, and numbers past the float range as {"log10": ...} objects (_json_value).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import arith, asymptotics, census, geometry, rigidity
from .arith import mpmath
from .brauer import QuaternionAlgebraQ, parse_ram_set, parse_ram_set_l, format_ram_set
from .cache import CacheCorruption, CensusCache
from .census import DependentDiscriminants, InternalInconsistency
from .fields import QuadraticField
from .rigidity import NotFoundWithinBound

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def finite_float(text: str) -> float:
    """The type of every float option: inf and nan would print as non-strict JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_JSON_PREC = 100  # bits, for the float-range test and for the log10 of a bound


def _json_value(value):
    """A float or mpf as JSON: the float if |value| < 10^308, else {"log10": ...},
    or {"log10_log10": ...} once that log10 reaches 10^308; ValueError at <= -10^308."""
    if type(value) is float and -1e308 < value < 1e308:  # 1e308 itself is past 10^308
        return value + 0.0  # as float(mpf(value)): mpf has no -0.0
    with mpmath.mp.workprec(_JSON_PREC):
        edge = mpmath.mp.mpf(10) ** 308
        if value <= -edge:
            raise ValueError(f"{mpmath.mp.nstr(value, 6)} is below -1e308 and has no JSON form")
        if value < edge:
            return float(value)
        log10 = mpmath.mp.log10(value)
        if log10 < edge:
            return {"log10": float(log10)}
        return {"log10_log10": float(mpmath.mp.log10(log10))}


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "))


def _write(args, parts) -> None:
    """The one place output goes: the text parts in order, to the --out file,
    else to stdout."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        out.writelines(parts)


def _emit(args, payload, csv_rows=None, csv_header=None):
    """csv_rows/csv_header drive csv format; payload drives json.  Only the
    chosen one is built: csv_rows may be a generator, payload a function of
    no arguments that returns the payload."""
    if (args.format or args.default_format) == "csv" and csv_rows is not None:
        lines = [csv_header] + [",".join(str(c) for c in row) for row in csv_rows]
        _write(args, ["\n".join(lines) + "\n"])
    else:
        _write(args, [_json(payload() if callable(payload) else payload) + "\n"])


def _thresholds(args) -> list[int]:
    """--x together with every --thresholds value, ascending."""
    return sorted({args.x, *_parse_int_list(args.thresholds or "")})


# -- runners: the `run` default of each leaf parser ---------------------------

def _census(args, spec: dict, compute) -> None:
    """Print the census table compute(thresholds): the one output path of
    every census leaf.  The table is read from the census cache when warm,
    else computed and stored; the key is the spec plus the thresholds."""
    xs = _thresholds(args)
    cache = CensusCache(args.cache_dir)
    key = {**spec, "thresholds": xs}
    table = cache.load(key)
    if table is None:
        table = compute(xs)
        cache.store(key, table)
    rows = table.rows()
    _emit(args, {"spec": spec, "rows": [{"x": str(x), "count": str(c)} for x, c in rows]},
          rows, "x,count")


def _census_csa(args):
    _census(args, {"kind": "csa", "m": args.m, "n": args.n},
            lambda xs: census.census_csa(args.m, args.n, xs))


def _census_division(args):
    _census(args, {"kind": "division", "n": args.n}, lambda xs: census.census_division(args.n, xs))


def _census_embed_quads(args):
    b, ntc = parse_ram_set(args.b), args.not_totally_complex
    _census(args, {"kind": "embed_quads", "ram": [repr(v) for v in sorted(b.ramification)],
                   "not_totally_complex": ntc},
            lambda xs: census.census_embedding_quads(b, xs, ntc))


def _census_quat_subfields(args):
    deltas = _parse_int_list(args.fields)
    _census(args, {"kind": "quat_subfields", "deltas": deltas},
            lambda xs: census.census_quat_with_subfields(deltas, xs))


def _census_fund_disc(args):
    # every quadratic field embeds in the matrix algebra: its embed-quads census
    _census(args, {"kind": "fund_disc"},
            lambda xs: census.census_embedding_quads(QuaternionAlgebraQ.from_primes(()), xs))


def _emit_constant(args, value: asymptotics.EulerProductValue, **fields):
    _emit(args, {**fields, "value": value.value, "cutoff": value.cutoff,
                 "tail_estimate": value.tail_estimate})


def _predict_embed_constant(args):
    deltas = _parse_int_list(args.fields)
    if len(deltas) == 1:
        value = asymptotics.embed_constant_r1(deltas[0], args.cutoff)
    else:
        value = asymptotics.embed_constant_general(deltas, args.cutoff)
    _emit_constant(args, value, constant="embed", fields=deltas)


def _predict_report(args):
    rows = asymptotics.prediction_report(args.model, _thresholds(args), args.cutoff)
    _emit(args, {"model": args.model, "rows": rows},
          [[r["x"], r["count"], r.get("model", r.get("lower_bound")),
            r.get("ratio", r.get("count_over_x"))] for r in rows],
          "x,count,model,ratio")


def _geodesic_rows(data):
    return ([d.delta, d.trace, repr(d.length)] for d in data)


def _geodesics_from_field(args):
    d = geometry.geodesic_from_field(args.delta)
    _emit(args, {"delta": d.delta, "trace": str(d.trace), "length": d.length,
                 "squared_unit_length": d.squared_unit_length},
          _geodesic_rows([d]), "delta,trace,length")


def _geodesics_census(args):
    result = geometry.geodesic_census(parse_ram_set(args.b), args.x, args.volume, args.const_c)
    _emit(args, {"count": result.count, "classes": result.classes,
                 "max_length": result.max_length, "length_bound": result.length_bound},
          _geodesic_rows(result.data), "delta,trace,length")


def _volumes_coarea(args):
    res = geometry.coarea_maximal_order(parse_ram_set(args.b))
    _emit(args, {"coarea": res.value, "disc_bound": res.disc_bound})


def _volumes_min_cf(args):
    zk2 = float(arith.zeta_k_at_2(args.zeta_field))
    value = geometry.minimal_covolume_cf(args.dk, args.nk, zk2,
                                         _parse_int_list(args.ram_norms), args.kb_index)
    _emit(args, {"min_covolume": value})


def _surfaces_census(args):
    bl = parse_ram_set_l(args.bl, QuadraticField(args.field))
    rows = geometry.surface_census(bl, args.x, args.volume, args.const_c_upper)

    def payload():
        return {"count": len(rows),
                "rows": [{"ram_set": format_ram_set(r.algebra.ramification), "area": r.area,
                          "ggs_area_bound": _json_value(r.ggs_area_bound)} for r in rows]}

    _emit(args, payload,
          ([f'"{format_ram_set(r.algebra.ramification)}"', repr(r.area)] for r in rows),
          "ram_set,area")


def _rigidity_distinguish(args):
    b1, b2 = parse_ram_set(args.b1), parse_ram_set(args.b2)
    delta = rigidity.distinguish_quaternions(b1, b2, args.delta_max)
    _emit(args, {"b1": format_ram_set(b1.ramification), "b2": format_ram_set(b2.ramification),
                 "minimal_delta": delta})


def _rigidity_scan(args):
    """Print the JSON _emit would for {x, delta_max, pairs: [{pair: [a, b],
    minimal_delta: d}, ...], max_abs_delta, bound_log10, all_distinguished}
    without a dict per pair: each name is encoded once, each pair is one
    f-string, and the list goes where "pairs" sorts, before "x", written one
    algebra's row of pairs at a time."""
    report = rigidity.rigidity_scan(args.x, args.delta_max, args.not_totally_complex)
    head = _json({"all_distinguished": report.all_distinguished,
                  "bound_log10": report.bound_log10, "delta_max": report.delta_max,
                  "max_abs_delta": report.max_abs_delta})
    names = [_json(name) for name in report.names]

    def parts():
        yield f'{head[:-1]},"pairs": ['
        for i, row in enumerate(report.rows()):
            yield "," * (i > 0) + ",".join(f'{{"minimal_delta": {d},"pair": [{names[i]},{b}]}}'
                                          for b, d in zip(names[i + 1:], row.tolist()))
        yield f'],"x": {report.x}}}\n'

    _write(args, parts())


def _rigidity_limit_pair(args):
    d1, d2, p1, p2 = rigidity.limit_pair(args.m)
    _emit(args, {"m": args.m, "delta1": d1, "delta2": d2, "witness_primes": [p1, p2]})


def _rigidity_family(args):
    b = parse_ram_set(args.b)
    members = rigidity.length_preserving_family(b, _parse_int_list(args.fields), args.count)
    _emit(args, {"base": format_ram_set(b.ramification),
                 "members": [format_ram_set(x.ramification) for x in members]})


def _emit_bound(args, rep: rigidity.BoundReport):
    with mpmath.mp.workprec(_JSON_PREC):
        log10 = mpmath.mp.log10(rep.value)
    _emit(args, {"bound": rep.name, "inputs": rep.inputs,
                 "value": _json_value(rep.value), "log10": _json_value(log10)})


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quatrig")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--cache-dir", default=None)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def group(name: str, dest: str, default_format: str = "json"):
        grp = sub.add_parser(name)
        grp.set_defaults(default_format=default_format)
        return grp.add_subparsers(dest=dest, required=True)

    def leaf(grp, name: str, run):
        p = grp.add_parser(name)
        p.set_defaults(run=run)
        return p

    def thresholds(p):  # --x and the further --thresholds of a census table
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--thresholds")

    cen = group("census", "census_cmd", "csv")
    p = leaf(cen, "csa", _census_csa)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    thresholds(p)
    p = leaf(cen, "division", _census_division)
    p.add_argument("--n", type=int, required=True)
    thresholds(p)
    p = leaf(cen, "embed-quads", _census_embed_quads)
    p.add_argument("--b", required=True, help="ramification set, e.g. 2,inf")
    thresholds(p)
    p.add_argument("--not-totally-complex", action="store_true")
    p = leaf(cen, "quat-subfields", _census_quat_subfields)
    p.add_argument("--fields", required=True,
                   help="comma list of discriminants; use --fields=-4,5 for negatives")
    thresholds(p)
    p = leaf(cen, "fund-disc", _census_fund_disc)
    thresholds(p)

    pre = group("predict", "predict_cmd")
    p = leaf(pre, "delta-n", lambda a: _emit_constant(a, asymptotics.delta_n(a.n, a.cutoff),
                                                   constant="delta_n", n=a.n))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=10 ** 6)
    p = leaf(pre, "embed-constant", _predict_embed_constant)
    p.add_argument("--fields", required=True)
    p.add_argument("--cutoff", type=int, default=10 ** 6)
    p = leaf(pre, "report", _predict_report)
    p.add_argument("--model", required=True,
                   help="division:N | embed:D1,D2 | quads:RAMSET")
    thresholds(p)
    p.add_argument("--cutoff", type=int, default=10 ** 6)

    geo = group("geodesics", "geo_cmd", "csv")
    p = leaf(geo, "from-field", _geodesics_from_field)
    p.add_argument("--delta", type=int, required=True)
    p = leaf(geo, "census", _geodesics_census)
    p.add_argument("--b", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--volume", type=finite_float, default=0.0)
    p.add_argument("--const-c", type=finite_float, default=1.0)

    vol = group("volumes", "vol_cmd")
    p = leaf(vol, "coarea", _volumes_coarea)
    p.add_argument("--b", required=True)
    p = leaf(vol, "kleinian", lambda a: _emit(a, {"covolume": geometry.covolume_kleinian(
        parse_ram_set_l(a.bl, QuadraticField(a.field)))}))
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--bl", required=True, help="places, e.g. 5.1,5.2")
    p = leaf(vol, "min-cf", _volumes_min_cf)
    p.add_argument("--dk", type=int, required=True)
    p.add_argument("--nk", type=int, required=True)
    p.add_argument("--zeta-field", type=int, default=1,
                   help="discriminant whose zeta_k(2) to use (1 = rationals)")
    p.add_argument("--ram-norms", default="")
    p.add_argument("--kb-index", type=int, default=1)

    srf = group("surfaces", "surf_cmd", "csv")
    p = leaf(srf, "census", _surfaces_census)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--bl", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--volume", type=finite_float, default=1.0)
    p.add_argument("--const-C", dest="const_c_upper", type=finite_float, default=1.0)

    rig = group("rigidity", "rig_cmd")
    p = leaf(rig, "distinguish", _rigidity_distinguish)
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--delta-max", type=int, default=10 ** 6)
    p = leaf(rig, "scan", _rigidity_scan)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--delta-max", type=int, default=10 ** 6)
    p.add_argument("--not-totally-complex", action="store_true")
    p = leaf(rig, "limit-pair", _rigidity_limit_pair)
    p.add_argument("--m", type=int, required=True)
    p = leaf(rig, "family", _rigidity_family)
    p.add_argument("--b", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--count", type=int, required=True)

    bnd = group("bounds", "bounds_cmd")
    p = leaf(bnd, "recognizing",
             lambda a: _emit_bound(a, rigidity.recognizing_bound(a.nk, a.dk, a.x)))
    p.add_argument("--nk", type=int, default=1)
    p.add_argument("--dk", type=int, default=1)
    p.add_argument("--x", type=finite_float, required=True)
    p = leaf(bnd, "chlr", lambda a: _emit_bound(a, rigidity.chlr_length_bound(
        a.volume, a.dim, a.const_c1, a.const_c2, a.const_c3)))
    p.add_argument("--volume", type=finite_float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--const-c1", type=finite_float, default=1.0)
    p.add_argument("--const-c2", type=finite_float, default=1.0)
    p.add_argument("--const-c3", type=finite_float, default=1.0)
    p = leaf(bnd, "mcreid",
             lambda a: _emit_bound(a, rigidity.mcreid_area_bound(a.volume, a.const_c)))
    p.add_argument("--volume", type=finite_float, required=True)
    p.add_argument("--const-c", type=finite_float, default=1.0)
    p = leaf(bnd, "brauer", lambda a: _emit_bound(a, rigidity.brauer_rigidity_bound(
        a.d_base, a.const_c_upper, a.disc1, a.disc2)))
    p.add_argument("--d-base", type=finite_float, default=1.0)
    p.add_argument("--const-C", dest="const_c_upper", type=finite_float, default=1.0)
    p.add_argument("--disc1", type=finite_float, required=True)
    p.add_argument("--disc2", type=finite_float, required=True)
    p = leaf(bnd, "gw", lambda a: _emit_bound(a, rigidity.grunwald_wang_conductor_bound(
        a.nk, a.b_omega, a.x)))
    p.add_argument("--nk", type=int, default=1)
    p.add_argument("--b-omega", type=finite_float, required=True)
    p.add_argument("--x", type=finite_float, required=True)
    p = leaf(bnd, "theta",
             lambda a: _emit(a, {"theta": arith.chebyshev_theta(a.x), "x": a.x}))
    p.add_argument("--x", type=finite_float, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except (InternalInconsistency, NotFoundWithinBound) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, DependentDiscriminants, CacheCorruption, arith.SieveBudgetError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
