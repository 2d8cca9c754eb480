"""Command-line front end.

Subcommands: count, predict, compare, local-factors, verify, table.
JSON and CSV artifacts are deterministic for a fixed configuration:
fields are emitted in a fixed order and floats at 15 significant digits.
Timings are only included when asked for, since they would break
byte-identical reruns.

Exit codes: 0 success, 1 verification-suite failure, 2 usage error,
3 capacity guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import CapacityError, DomainError, PrimeSet, primes_up_to, vp
from .analytic import (
    EulerFactorInput,
    constants_report,
    fp_closed,
    fp_series,
    gp,
    gp_special,
    leading_constant,
)
from .counting import (
    CountRequest,
    RSource,
    count_report,
    iter_points,
    n_mobius,
    n_oracle,
    s_sum,
    t_sum,
)
from .geometry import intersection_mults, m_point_ok, semi_integral_ok


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path):
    _emit(json.dumps(_round_floats(obj), indent=2) + "\n", path)


def _emit_csv(header, rows, path):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", path)


@dataclass
class CliConfig:
    command: str
    k: int = 1
    bounds: list = field(default_factory=list)
    exclude_primes: PrimeSet = field(default_factory=PrimeSet.empty)
    r_source: str = "auto"
    prime_cutoff: int = 10000
    output_format: str = "json"
    output_path: str = None
    method: str = "mobius"
    with_st: bool = False
    timings: bool = False
    suite: str = "all"


def _resolve_source(cfg: CliConfig) -> RSource:
    if cfg.r_source == "auto":
        return RSource.JACOBI if cfg.k == 1 else RSource.EXACT
    return {
        "exact": RSource.EXACT,
        "jacobi": RSource.JACOBI,
        "rstar": RSource.RSTAR,
    }[cfg.r_source]


def _cmd_count(cfg: CliConfig) -> int:
    req = CountRequest(
        k=cfg.k,
        bound=Fraction(cfg.bounds[0]),
        s_set=cfg.exclude_primes,
        r_source=_resolve_source(cfg),
    )
    rep = count_report(
        req, with_oracle=cfg.method in ("oracle", "both"), with_st=cfg.with_st
    )
    _emit_json(rep.to_json_dict(include_timings=cfg.timings), cfg.output_path)
    return 0


def _cmd_predict(cfg: CliConfig) -> int:
    rep = constants_report(
        cfg.k, cfg.exclude_primes, cfg.prime_cutoff, bounds=cfg.bounds
    )
    _emit_json(rep, cfg.output_path)
    return 0


def _compare_rows(cfg: CliConfig):
    source = _resolve_source(cfg)
    lead = leading_constant(cfg.k, cfg.exclude_primes, cfg.prime_cutoff)
    rows = []
    for b in cfg.bounds:
        req = CountRequest(
            k=cfg.k, bound=Fraction(b), s_set=cfg.exclude_primes, r_source=source
        )
        tuples = n_mobius(b, req)
        # (lead * b**(4k-1)) * log b, not _main_terms' lead * size: the digits differ
        main = lead * b ** (4 * cfg.k - 1) * math.log(b)
        rows.append(
            (b, tuples, tuples // 2, main, tuples / main, tuples / 2 / main)
        )
    return rows


def _cmd_compare(cfg: CliConfig) -> int:
    rows = _compare_rows(cfg)
    header = ["B", "tuples", "points", "n_main", "ratio_tuples", "ratio_points"]
    if cfg.output_format == "csv":
        _emit_csv(header, rows, cfg.output_path)
    else:
        _emit_json(
            {"schema": "v1", "columns": header, "rows": [list(r) for r in rows]},
            cfg.output_path,
        )
    return 0


def _cmd_local_factors(cfg: CliConfig) -> int:
    rows = []
    for p in primes_up_to(cfg.prime_cutoff):
        in_s = p in cfg.exclude_primes
        certified = gp(
            EulerFactorInput(p=p, k=cfg.k, in_S=in_s, s=1.0, w=2.0 * cfg.k - 1.0)
        )
        printed = gp_special(p, cfg.k, in_s)
        rows.append((p, int(in_s), certified, printed, abs(certified - printed)))
    _emit_csv(
        ["p", "in_S", "gp_value", "gp_special_value", "abs_diff"],
        rows,
        cfg.output_path,
    )
    return 0


def _cmd_table(cfg: CliConfig) -> int:
    source = _resolve_source(cfg)
    rep = constants_report(cfg.k, cfg.exclude_primes, cfg.prime_cutoff, cfg.bounds)
    rows = []
    for b, pred in zip(cfg.bounds, rep["predictions"]):
        req = CountRequest(
            k=cfg.k, bound=Fraction(b), s_set=cfg.exclude_primes, r_source=source
        )
        tuples = n_mobius(b, req)
        rows.append((b, tuples, tuples // 2, pred["n_main"], tuples / pred["n_main"],
                     s_sum(b, b * b, req), pred["s_main"],
                     t_sum(b, req), pred["t_main"]))
    _emit_csv(
        ["B", "tuples", "points", "n_main", "ratio_tuples",
         "s_sum", "s_main", "t_sum", "t_main"],
        rows,
        cfg.output_path,
    )
    return 0


def _suite_mpoints(report) -> bool:
    ok = True
    sets = [PrimeSet.empty(), PrimeSet.of(2), PrimeSet.of(2, 3), PrimeSet.of(5)]
    ps = primes_up_to(100)
    # every checked quantity depends on the point only through (x, h, z),
    # so one representative per class covers the whole exhaustive set
    classes = {}
    n_points = 0
    for pt in iter_points(40, k=1):
        n_points += 1
        classes.setdefault((pt.x, pt.h, pt.z), pt)
    for pt in classes.values():
        for p in ps:
            m = intersection_mults(pt, p)
            if 2 * m.n1 + m.n2 != max(vp(p, pt.z) - vp(p, pt.x), 0):
                report(f"multiplicity identity fails at {pt} p={p}")
                ok = False
        for s_set in sets:
            if semi_integral_ok(pt, s_set) != m_point_ok(pt, s_set):
                report(f"equivalence fails at {pt} S={s_set}")
                ok = False
    report(
        f"checked {n_points} points of height <= 40 "
        f"({len(classes)} coordinate classes)"
    )
    return ok


def _suite_routes(report) -> bool:
    ok = True
    for s_set in (PrimeSet.empty(), PrimeSet.of(2), PrimeSet.of(2, 3)):
        for b in (5, 10, 20, 30):
            a = n_oracle(b, 1, s_set)
            reqj = CountRequest(
                k=1, bound=Fraction(b), s_set=s_set, r_source=RSource.JACOBI
            )
            reqe = CountRequest(
                k=1, bound=Fraction(b), s_set=s_set, r_source=RSource.EXACT
            )
            mj = n_mobius(b, reqj)
            me = n_mobius(b, reqe)
            if not (a == mj == me):
                report(f"route mismatch B={b} S={s_set}: {a} {mj} {me}")
                ok = False
    report("route equality checked for B in {5,10,20,30}, three prime sets")
    return ok


def _suite_euler(report) -> bool:
    ok = True
    worst = 0.0
    for p in (2, 3, 5, 7, 11):
        for k in (1, 2):
            for in_s in (True, False):
                for s, w in ((2.0, 2.0 * k), (1.5, 2.0 * k - 0.5), (3.0, 2.0 * k + 1)):
                    inp = EulerFactorInput(p=p, k=k, in_S=in_s, s=s, w=w)
                    worst = max(worst, abs(fp_series(inp, 60) - fp_closed(inp)))
    if worst > 1e-9:
        report(f"series/closed disagreement {worst:.2e}")
        ok = False
    report(f"series vs closed worst abs diff {worst:.2e}")
    for p in primes_up_to(97):
        if p == 2:
            continue
        for k in (1, 2):
            for in_s in (True, False):
                d = abs(
                    gp(EulerFactorInput(p=p, k=k, in_S=in_s, s=1.0, w=2.0 * k - 1.0))
                    - gp_special(p, k, in_s)
                )
                if d > 1e-12:
                    report(f"odd-prime specialization differs at p={p} k={k}: {d:.2e}")
                    ok = False
    for k in (1, 2):
        for in_s in (True, False):
            cert = gp(EulerFactorInput(p=2, k=k, in_S=in_s, s=1.0, w=2.0 * k - 1.0))
            printed = gp_special(2, k, in_s)
            report(
                f"p=2 k={k} in_S={in_s}: certified {cert:.12g}, "
                f"tabulated {printed:.12g}, abs diff {abs(cert - printed):.12g}"
            )
    report("odd-prime specializations match; p=2 differences reported above")
    return ok


def _cmd_verify(cfg: CliConfig) -> int:
    suites = {
        "mpoints": _suite_mpoints,
        "routes": _suite_routes,
        "euler": _suite_euler,
    }
    names = list(suites) if cfg.suite == "all" else [cfg.suite]
    all_ok = True
    for name in names:
        print(f"suite {name}:")
        ok = suites[name](lambda msg: print(f"  {msg}"))
        print(f"{'ok' if ok else 'FAIL'} - {name}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semicubic",
        description="count semi-integral points on x^3 = (y_1^2+...+y_{4k}^2) z",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, bounds=False, bound=False):
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--exclude-primes", default="",
                        help="comma-separated primes; empty for none")
        sp.add_argument("--out", default=None)
        if bounds:
            sp.add_argument("--bounds", default="",
                            help="comma-separated integer height bounds")
        if bound:
            sp.add_argument("--bound", type=int, required=True)

    sp = sub.add_parser("count", help="run the counting routes at one bound")
    common(sp, bound=True)
    sp.add_argument("--method", choices=["mobius", "oracle", "both"],
                    default="mobius")
    sp.add_argument("--r-source", choices=["auto", "exact", "jacobi", "rstar"],
                    default="auto")
    sp.add_argument("--with-st", action="store_true")
    sp.add_argument("--timings", action="store_true")

    sp = sub.add_parser("predict", help="constants and main-term predictions")
    common(sp, bounds=True)
    sp.add_argument("--prime-cutoff", type=int, default=100000)

    sp = sub.add_parser("compare", help="counts against the predicted main term")
    common(sp, bounds=True)
    sp.add_argument("--r-source", choices=["auto", "exact", "jacobi", "rstar"],
                    default="auto")
    sp.add_argument("--prime-cutoff", type=int, default=10000)
    sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("local-factors", help="CSV of local factors per prime")
    common(sp)
    sp.add_argument("--prime-cutoff", type=int, default=100)

    sp = sub.add_parser("verify", help="run an invariant suite")
    sp.add_argument("--suite", choices=["mpoints", "routes", "euler", "all"],
                    default="all")

    sp = sub.add_parser("table", help="CSV sweep for external plotting")
    common(sp, bounds=True)
    sp.add_argument("--r-source", choices=["auto", "exact", "jacobi", "rstar"],
                    default="auto")
    sp.add_argument("--prime-cutoff", type=int, default=10000)

    return ap


def config_from_args(args) -> CliConfig:
    cfg = CliConfig(command=args.command)
    for name in ("k", "method", "timings", "suite", "prime_cutoff", "r_source",
                 "with_st"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "out"):
        cfg.output_path = args.out
    if hasattr(args, "format"):
        cfg.output_format = args.format
    try:
        if hasattr(args, "exclude_primes"):
            cfg.exclude_primes = PrimeSet.parse(args.exclude_primes)
        if hasattr(args, "bound"):
            cfg.bounds = [args.bound]
        elif hasattr(args, "bounds"):
            cfg.bounds = [int(t) for t in args.bounds.split(",") if t.strip()]
    except DomainError:
        raise
    except ValueError as exc:  # a token that is not an integer
        raise DomainError(f"expected comma-separated integers: {exc}") from exc
    low = 2 if cfg.command in ("compare", "table") else 1  # main term is 0 at B = 1
    for b in cfg.bounds:
        if b < low:
            raise DomainError(f"bound {b} must be >= {low} for {cfg.command}")
    if len(set(cfg.bounds)) != len(cfg.bounds):
        raise DomainError(f"duplicate bounds in {cfg.bounds}")
    return cfg


def run(cfg: CliConfig) -> int:
    commands = {
        "count": _cmd_count,
        "predict": _cmd_predict,
        "compare": _cmd_compare,
        "local-factors": _cmd_local_factors,
        "verify": _cmd_verify,
        "table": _cmd_table,
    }
    if cfg.command in ("count", "compare", "table") and not cfg.bounds:
        print("error: at least one bound is required", file=sys.stderr)
        return 2
    try:
        return commands[cfg.command](cfg)
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except DomainError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
