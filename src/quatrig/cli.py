"""Command-line front end.

Subcommands mirror the library:

    census    csa | division | embed-quads | quat-subfields | fund-disc
    predict   delta-n | embed-constant | report
    geodesics from-field | census
    volumes   coarea | kleinian | min-cf
    surfaces  census
    rigidity  distinguish | scan | limit-pair | family
    bounds    recognizing | chlr | mcreid | brauer | gw | theta

Exit codes: 0 success, 2 validation error, 3 invariant violation (an
internal-inconsistency or a failed theorem-level search).  Output is CSV for
tables and JSON elsewhere; counts are emitted as exact decimal strings in
JSON, and values beyond 1e308 as {"log10": ...} objects.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp

from . import arith, asymptotics, census, geometry, rigidity
from .brauer import parse_ram_set, parse_ram_set_l, format_ram_set
from .cache import CacheCorruption, CensusCache
from .census import CountTable, DependentDiscriminants, InternalInconsistency
from .fields import QuadraticField
from .rigidity import NotFoundWithinBound

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


@dataclass
class RunConfig:
    format: str
    out: str | None
    cache_dir: str | None
    precision: int

    def __post_init__(self):
        if self.precision < 64:
            raise ValueError("--precision must be >= 64 bits")


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _json_number(value):
    if isinstance(value, int):
        return str(value)
    try:
        f = float(value)
    except (OverflowError, ValueError):
        f = None
    if f is not None and abs(f) < 1e308:
        return f
    from mpmath import mp as _mp

    with _mp.workprec(100):
        return {"log10": float(_mp.log10(value))}


def _emit(payload, cfg: RunConfig, csv_rows=None, csv_header=None):
    """csv_rows/csv_header drive csv format; payload drives json."""
    if cfg.format == "csv" and csv_rows is not None:
        lines = [csv_header] + [",".join(str(c) for c in row) for row in csv_rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=None)
        text += "\n"
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _table_payload(table: CountTable):
    return {
        "spec": table.spec,
        "rows": [{"x": str(x), "count": str(c)} for x, c in table.rows()],
    }


def _cached_census(cfg: RunConfig, spec: dict, thresholds: list[int], compute):
    """The census table for spec at thresholds, from the cache when warm; the
    cache key is the spec plus the thresholds."""
    cache = CensusCache(cfg.cache_dir)
    key = {**spec, "thresholds": thresholds}
    cached = cache.load(key)
    if cached is not None:
        return CountTable(cached.thresholds, cached.counts, spec)
    table = compute()
    cache.store(key, table)
    return table


def _thresholds(args) -> list[int]:
    if getattr(args, "thresholds", None):
        return sorted(set(_parse_int_list(args.thresholds)))
    return [args.x]


# -- subcommand handlers -----------------------------------------------------

def _cmd_census(args, cfg: RunConfig) -> int:
    xs = _thresholds(args)
    if args.census_cmd == "csa":
        table = _cached_census(cfg, census.csa_spec(args.m, args.n), xs,
                               lambda: census.census_csa(args.m, args.n, xs))
    elif args.census_cmd == "division":
        table = _cached_census(cfg, census.division_spec(args.n), xs,
                               lambda: census.census_division(args.n, xs))
    elif args.census_cmd == "embed-quads":
        b = parse_ram_set(args.b)
        ntc = args.not_totally_complex
        table = _cached_census(cfg, census.embed_quads_spec(b, ntc), xs,
                               lambda: census.census_embedding_quads(b, xs, ntc))
    elif args.census_cmd == "quat-subfields":
        deltas = _parse_int_list(args.fields)
        table = _cached_census(cfg, census.quat_subfields_spec(deltas), xs,
                               lambda: census.census_quat_with_subfields(deltas, xs))
    else:  # fund-disc
        counts = [census.fundamental_discriminant_count(x) for x in xs]
        table = CountTable(tuple(xs), tuple(counts), {"kind": "fund_disc"})
    _emit(_table_payload(table), cfg, csv_rows=table.rows(), csv_header="x,count")
    return EXIT_OK


def _cmd_predict(args, cfg: RunConfig) -> int:
    if args.predict_cmd == "delta-n":
        value = asymptotics.delta_n(args.n, args.cutoff)
        _emit({"constant": "delta_n", "n": args.n, "value": value.value,
               "cutoff": value.cutoff, "tail_estimate": value.tail_estimate}, cfg)
    elif args.predict_cmd == "embed-constant":
        deltas = _parse_int_list(args.fields)
        if len(deltas) == 1:
            value = asymptotics.embed_constant_r1(deltas[0], args.cutoff)
        else:
            value = asymptotics.embed_constant_general(deltas, args.cutoff)
        _emit({"constant": "embed", "fields": deltas, "value": value.value,
               "cutoff": value.cutoff, "tail_estimate": value.tail_estimate}, cfg)
    else:  # report
        kind, _, rest = args.model.partition(":")
        xs = _thresholds(args)
        if kind == "division":
            n = int(rest)
            table = census.census_division(n, xs)
            rows = asymptotics.prediction_report(table, ("division", n), args.cutoff)
        elif kind == "embed":
            deltas = _parse_int_list(rest)
            table = census.census_quat_with_subfields(deltas, xs)
            rows = asymptotics.prediction_report(table, ("embed", deltas), args.cutoff)
        elif kind == "quads":
            b = parse_ram_set(rest)
            table = census.census_embedding_quads(b, xs)
            rows = asymptotics.prediction_report(table, ("quads", b), args.cutoff)
        else:
            raise ValueError(f"unknown model {args.model!r}")
        _emit({"model": args.model, "rows": rows}, cfg,
              csv_rows=[[r["x"], r["count"], r.get("model", r.get("lower_bound")),
                         r.get("ratio", r.get("count_over_x"))] for r in rows],
              csv_header="x,count,model,ratio")
    return EXIT_OK


def _cmd_geodesics(args, cfg: RunConfig) -> int:
    if args.geo_cmd == "from-field":
        d = geometry.geodesic_from_field(args.delta)
        _emit({"delta": d.delta, "trace": str(d.trace), "length": d.length,
               "squared_unit_length": d.squared_unit_length}, cfg,
              csv_rows=[[d.delta, d.trace, repr(d.length)]],
              csv_header="delta,trace,length")
    else:
        b = parse_ram_set(args.b)
        result = geometry.geodesic_census(b, args.x, args.volume, args.const_c)
        payload = {
            "count": result.count, "classes": result.classes,
            "max_length": result.max_length, "length_bound": result.length_bound,
        }
        _emit(payload, cfg,
              csv_rows=[[d.delta, d.trace, repr(d.length)] for d in result.data],
              csv_header="delta,trace,length")
    return EXIT_OK


def _cmd_volumes(args, cfg: RunConfig) -> int:
    if args.vol_cmd == "coarea":
        b = parse_ram_set(args.b)
        res = geometry.coarea_maximal_order(b)
        _emit({"coarea": res.value, "disc_bound": res.disc_bound}, cfg)
    elif args.vol_cmd == "kleinian":
        field = QuadraticField(args.field)
        bl = parse_ram_set_l(args.bl, field)
        _emit({"covolume": geometry.covolume_kleinian(bl)}, cfg)
    else:  # min-cf
        zk2 = float(arith.zeta_k_at_2(args.zeta_field))
        value = geometry.minimal_covolume_cf(args.dk, args.nk, zk2,
                                             _parse_int_list(args.ram_norms),
                                             args.kb_index)
        _emit({"min_covolume": value}, cfg)
    return EXIT_OK


def _cmd_surfaces(args, cfg: RunConfig) -> int:
    field = QuadraticField(args.field)
    bl = parse_ram_set_l(args.bl, field)
    rows = geometry.surface_census(bl, args.x, args.volume, args.const_c_upper)
    payload = {
        "count": len(rows),
        "rows": [{"ram_set": format_ram_set(r.algebra.ramification),
                  "area": r.area, "ggs_area_bound": _json_number(r.ggs_area_bound)}
                 for r in rows],
    }
    _emit(payload, cfg,
          csv_rows=[[f'"{format_ram_set(r.algebra.ramification)}"', repr(r.area)]
                    for r in rows],
          csv_header="ram_set,area")
    return EXIT_OK


def _cmd_rigidity(args, cfg: RunConfig) -> int:
    if args.rig_cmd == "distinguish":
        b1 = parse_ram_set(args.b1)
        b2 = parse_ram_set(args.b2)
        delta = rigidity.distinguish_quaternions(b1, b2, args.delta_max)
        _emit({"b1": format_ram_set(b1.ramification), "b2": format_ram_set(b2.ramification),
               "minimal_delta": delta}, cfg)
    elif args.rig_cmd == "scan":
        report = rigidity.rigidity_scan(args.x, args.delta_max, args.not_totally_complex)
        payload = {
            "x": report.x, "delta_max": report.delta_max,
            "pairs": [{"pair": [a, b], "minimal_delta": d} for a, b, d in report.pairs],
            "max_abs_delta": report.max_abs_delta,
            "bound_log10": report.bound_log10,
            "all_distinguished": report.all_distinguished,
        }
        _emit(payload, cfg)
        if not report.all_distinguished:
            return EXIT_INVARIANT
    elif args.rig_cmd == "limit-pair":
        d1, d2, p1, p2 = rigidity.limit_pair(args.m)
        _emit({"m": args.m, "delta1": d1, "delta2": d2,
               "witness_primes": [p1, p2]}, cfg)
    else:  # family
        b = parse_ram_set(args.b)
        members = rigidity.length_preserving_family(b, _parse_int_list(args.fields),
                                                    args.count)
        _emit({"base": format_ram_set(b.ramification),
               "members": [format_ram_set(x.ramification) for x in members]}, cfg)
    return EXIT_OK


def _cmd_bounds(args, cfg: RunConfig) -> int:
    if args.bounds_cmd == "recognizing":
        rep = rigidity.recognizing_bound(args.nk, args.dk, args.x)
    elif args.bounds_cmd == "chlr":
        rep = rigidity.chlr_length_bound(args.volume, args.dim, args.const_c1,
                                         args.const_c2, args.const_c3)
    elif args.bounds_cmd == "mcreid":
        rep = rigidity.mcreid_area_bound(args.volume, args.const_c)
    elif args.bounds_cmd == "brauer":
        rep = rigidity.brauer_rigidity_bound(args.d_base, args.const_c_upper,
                                             args.disc1, args.disc2)
    elif args.bounds_cmd == "gw":
        rep = rigidity.grunwald_wang_conductor_bound(args.nk, args.b_omega, args.x)
    else:  # theta
        value = arith.chebyshev_theta(args.x)
        _emit({"theta": value, "x": args.x}, cfg)
        return EXIT_OK
    _emit({"bound": rep.name, "inputs": rep.inputs,
           "value": rep.as_json_value(), "log10": rep.log10}, cfg)
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quatrig")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--precision", type=int, default=80,
                        help="working precision in bits (>= 64)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    cen = sub.add_parser("census").add_subparsers(dest="census_cmd", required=True)
    p = cen.add_parser("csa")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--thresholds")
    p = cen.add_parser("division")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--thresholds")
    p = cen.add_parser("embed-quads")
    p.add_argument("--b", required=True, help="ramification set, e.g. 2,inf")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--thresholds")
    p.add_argument("--not-totally-complex", action="store_true")
    p = cen.add_parser("quat-subfields")
    p.add_argument("--fields", required=True,
                   help="comma list of discriminants; use --fields=-4,5 for negatives")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--thresholds")
    p = cen.add_parser("fund-disc")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--thresholds")

    pre = sub.add_parser("predict").add_subparsers(dest="predict_cmd", required=True)
    p = pre.add_parser("delta-n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=10 ** 6)
    p = pre.add_parser("embed-constant")
    p.add_argument("--fields", required=True)
    p.add_argument("--cutoff", type=int, default=10 ** 6)
    p = pre.add_parser("report")
    p.add_argument("--model", required=True,
                   help="division:N | embed:D1,D2 | quads:RAMSET")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--thresholds")
    p.add_argument("--cutoff", type=int, default=10 ** 6)

    geo = sub.add_parser("geodesics").add_subparsers(dest="geo_cmd", required=True)
    p = geo.add_parser("from-field")
    p.add_argument("--delta", type=int, required=True)
    p = geo.add_parser("census")
    p.add_argument("--b", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--volume", type=float, default=0.0)
    p.add_argument("--const-c", type=float, default=1.0)

    vol = sub.add_parser("volumes").add_subparsers(dest="vol_cmd", required=True)
    p = vol.add_parser("coarea")
    p.add_argument("--b", required=True)
    p = vol.add_parser("kleinian")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--bl", required=True, help="places, e.g. 5.1,5.2")
    p = vol.add_parser("min-cf")
    p.add_argument("--dk", type=int, required=True)
    p.add_argument("--nk", type=int, required=True)
    p.add_argument("--zeta-field", type=int, default=1,
                   help="discriminant whose zeta_k(2) to use (1 = rationals)")
    p.add_argument("--ram-norms", default="")
    p.add_argument("--kb-index", type=int, default=1)

    srf = sub.add_parser("surfaces").add_subparsers(dest="surf_cmd", required=True)
    p = srf.add_parser("census")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--bl", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--volume", type=float, default=1.0)
    p.add_argument("--const-C", dest="const_c_upper", type=float, default=1.0)

    rig = sub.add_parser("rigidity").add_subparsers(dest="rig_cmd", required=True)
    p = rig.add_parser("distinguish")
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--delta-max", type=int, default=10 ** 6)
    p = rig.add_parser("scan")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--delta-max", type=int, default=10 ** 6)
    p.add_argument("--not-totally-complex", action="store_true")
    p = rig.add_parser("limit-pair")
    p.add_argument("--m", type=int, required=True)
    p = rig.add_parser("family")
    p.add_argument("--b", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--count", type=int, required=True)

    bnd = sub.add_parser("bounds").add_subparsers(dest="bounds_cmd", required=True)
    p = bnd.add_parser("recognizing")
    p.add_argument("--nk", type=int, default=1)
    p.add_argument("--dk", type=int, default=1)
    p.add_argument("--x", type=float, required=True)
    p = bnd.add_parser("chlr")
    p.add_argument("--volume", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--const-c1", type=float, default=1.0)
    p.add_argument("--const-c2", type=float, default=1.0)
    p.add_argument("--const-c3", type=float, default=1.0)
    p = bnd.add_parser("mcreid")
    p.add_argument("--volume", type=float, required=True)
    p.add_argument("--const-c", type=float, default=1.0)
    p = bnd.add_parser("brauer")
    p.add_argument("--d-base", type=float, default=1.0)
    p.add_argument("--const-C", dest="const_c_upper", type=float, default=1.0)
    p.add_argument("--disc1", type=float, required=True)
    p.add_argument("--disc2", type=float, required=True)
    p = bnd.add_parser("gw")
    p.add_argument("--nk", type=int, default=1)
    p.add_argument("--b-omega", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p = bnd.add_parser("theta")
    p.add_argument("--x", type=float, required=True)
    return parser


_CSV_DEFAULT = {"census", "geodesics", "surfaces"}

_HANDLERS = {
    "census": _cmd_census,
    "predict": _cmd_predict,
    "geodesics": _cmd_geodesics,
    "volumes": _cmd_volumes,
    "surfaces": _cmd_surfaces,
    "rigidity": _cmd_rigidity,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fmt = args.format or ("csv" if args.cmd in _CSV_DEFAULT else "json")
        cfg = RunConfig(format=fmt, out=args.out, cache_dir=args.cache_dir,
                        precision=args.precision)
        mp.prec = max(mp.prec, cfg.precision)
        return _HANDLERS[args.cmd](args, cfg)
    except (InternalInconsistency, NotFoundWithinBound) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, DependentDiscriminants, CacheCorruption, arith.SieveBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
