"""Command-line front end.

Subcommands: count, predict, compare, local-factors, verify, table.
JSON and CSV artifacts are deterministic for a fixed configuration:
fields are emitted in a fixed order and floats at 15 significant digits.
Timings are only included when asked for, since they would break
byte-identical reruns.

Exit codes: 0 success, 1 verification-suite failure, 2 usage error
(including a --k or bound too large for the float arithmetic, and an output,
stdout or --out, that cannot be written), 3 capacity
guard (including a bound too large for memory and a count too long to
print), 141 (128 + SIGPIPE) when the reader closed stdout before the
output was written, as `| head` does.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from .arith import (PRIME_SIEVE_LIMIT, CapacityError, DomainError, PrimeSet,
                    check_sieve_limit, primes_up_to, vp)
from .analytic import (
    EulerFactorInput,
    _series_closed_sweep,
    centre_factors,
    constants_report,
    fp_closed,
    fp_series,
    local_factors,
)
from .counting import (
    CountRequest,
    NStarValues,
    RSource,
    count_report,
    n_mobius,
    n_oracle,
    point_classes,
)
from .geometry import intersection_mults, m_point_ok, semi_integral_ok
from .reps import _p2_coefficients


def _round_floats(obj):
    """obj with every float at 15 significant digits.

    The JSON writer (_json_lines) calls it on one scalar at a time, and its
    text is that of json.dumps(_round_floats(obj), indent=2): only that
    reference, in the tests, passes a whole artifact, which is copied.
    """
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {key: _round_floats(v) for key, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


# Artifacts are written in pieces of at most this many lines, about 64 KiB: a
# line of the count's n_star_values averages about 17 characters and a CSV row
# about 50.  Joining a fixed number of CSV rows keeps the loop in C.  json's
# indenting encoder is pure Python: the 209 KB JSON of a count at B = 2*10^4
# took 11-12 ms through it, as one json.dumps string or in pieces.  Into a
# StringIO it took 4.1-4.3 ms line by line, one str.format a line, and 1.8-2.3
# ms a step at a time (_step_lines), medians of 41 on a 2-core x86 machine
# with Python 3.11.
_JSON_LINES_PER_PIECE = 1 << 12
_CSV_ROWS_PER_PIECE = 1 << 10

# json's encoder without indent, which runs in C: one scalar at a time, a str,
# int, float, bool or None as json.dumps writes it
_encode = json.JSONEncoder().encode


def _emit(text: str, fh):
    """Write one piece of an artifact."""
    fh.write(text)


def _emit_text(pieces, path):
    """Write the pieces of text to path, or to stdout without one, as they come."""
    try:
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
            for piece in pieces:
                _emit(piece, fh)
    except OSError as exc:
        if not path:
            raise
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc


def _json_key(key) -> str:
    """A dict key as json.dumps writes it: an int, float, bool or None as its JSON, quoted."""
    return _encode(key if isinstance(key, str) else _encode(key))


def _json_lines(obj, head: str, tail: str, ind: str):
    """The lines of json.dumps(obj, indent=2) nested at indent ind, each with its newline.

    The first line starts with head and the last ends with tail.  Floats are
    rounded to 15 significant digits as they are written.  The count's
    n_star_values, an NStarValues, goes a step at a time (_step_lines), so a
    yielded str may hold up to _JSON_LINES_PER_PIECE lines.
    """
    if obj and isinstance(obj, (dict, list)):
        inner = ind + "  "
        last = len(obj) - 1
        if isinstance(obj, list):
            yield head + "[\n"
            for i, value in enumerate(obj):
                yield from _json_lines(value, inner, "," if i < last else "", inner)
            yield f"{ind}]{tail}\n"
            return
        yield head + "{\n"
        if isinstance(obj, NStarValues):
            yield from _step_lines(obj, inner)
        else:
            for i, (key, value) in enumerate(obj.items()):
                yield from _json_lines(value, f"{inner}{_json_key(key)}: ",
                                       "," if i < last else "", inner)
        yield f"{ind}}}{tail}\n"
    else:
        text = ("{}" if isinstance(obj, dict) else "[]" if isinstance(obj, list)
                else _encode(_round_floats(obj)))
        yield f"{head}{text}{tail}\n"


def _step_lines(values: NStarValues, ind: str):
    """The lines '{ind}"e": value,' of a non-empty NStarValues, the last without
    its comma, at most _JSON_LINES_PER_PIECE to a str.  Each step's value is
    converted to text once, into a line with %d for the key, and the step's
    keys are formatted into copies of that line by one % in C."""
    text = None
    for keys, value in values.steps():
        line = f'{ind}"%d": {value},\n'
        keys = tuple(keys)
        for i in range(0, len(keys), _JSON_LINES_PER_PIECE):
            if text:
                yield text
            block = keys[i:i + _JSON_LINES_PER_PIECE]
            text = line * len(block) % block
    yield text[:-2] + "\n"


def _pieces(chunks, per_piece: int):
    """The chunks, each of whole lines and at most per_piece of them, joined in
    order into pieces of at most per_piece lines."""
    piece, lines = [], 0
    for chunk in chunks:
        n = chunk.count("\n")
        if lines + n > per_piece:
            yield "".join(piece)
            piece, lines = [], 0
        piece.append(chunk)
        lines += n
    if piece:
        yield "".join(piece)


def _emit_json(obj, path):
    """json.dumps(_round_floats(obj), indent=2) and a newline, encoded as it is written."""
    _emit_text(_pieces(_json_lines(obj, "", "", ""), _JSON_LINES_PER_PIECE), path)


def _emit_csv(header, fmt: str, rows, path):
    """The header, then each row of the iterable rows as fmt formats it, as they come.

    fmt holds one field per column, "{}" for ints and "{:.15g}" for floats,
    and ends with a newline: each column holds one type.
    """
    lines = itertools.chain([",".join(header) + "\n"], itertools.starmap(fmt.format, rows))
    _emit_text(iter(lambda: "".join(itertools.islice(lines, _CSV_ROWS_PER_PIECE)), ""), path)


def _request(args, b) -> CountRequest:
    return CountRequest(k=args.k, bound=Fraction(b), s_set=args.exclude_primes,
                        r_source=args.r_source)


def _check_printable(ints) -> None:
    """Refuse, before any output is opened, an integer longer than str() prints.

    Python refuses to convert an int of more than sys.get_int_max_str_digits()
    digits (4300 by default) to text.  The digit count is bounded from the
    bit length, at most one digit over.
    """
    limit = sys.get_int_max_str_digits()
    digits = max(map(int.bit_length, ints), default=0) * 30103 // 100000 + 1
    if limit and digits > limit:
        raise CapacityError(f"a count of about {digits} digits exceeds the "
                            f"{limit}-digit limit for printing an integer")


def _cmd_count(args) -> int:
    rep = count_report(_request(args, args.bound),
                       with_oracle=args.method in ("oracle", "both"))
    if not args.with_st:
        rep["s_value"] = rep["t_value"] = None
    if not args.timings:
        del rep["timings"]
    _check_printable([*(value for _, value in rep["n_star_values"].steps()),
                      *(v for v in rep.values() if type(v) is int)])
    _emit_json(rep, args.out)
    return 0


def _cmd_predict(args) -> int:
    # --prime-cutoff changes no number: G is taken over every prime.  The
    # benchmark's predict ops still pass it and its check reads the echo, so
    # until ROADMAP item 1 drops both, the cutoff is refused and echoed as it
    # was while G was the product up to it; delete this shim and the option then.
    if args.prime_cutoff < 100:
        raise DomainError("prime cutoff must be at least 100")
    items = list(constants_report(args.k, args.exclude_primes, args.bounds).items())
    check_sieve_limit(args.prime_cutoff)
    rep = dict(items[:3] + [("prime_cutoff", args.prime_cutoff)] + items[3:])
    _emit_json(rep, args.out)
    return 0


def _count_rows(args) -> list:
    """Per bound: the row prefix (B, tuples, points, n_main, ratio_tuples),
    the prediction it rests on and the count report, with S and T."""
    rep = constants_report(args.k, args.exclude_primes, args.bounds)
    counts = (count_report(_request(args, b)) for b in args.bounds)
    return [((b, r["tuples"], r["points"], pred["n_main"], r["tuples"] / pred["n_main"]),
             pred, r) for b, pred, r in zip(args.bounds, rep["predictions"], counts)]


def _cmd_compare(args) -> int:
    rows = [(b, tuples, points, main, ratio, tuples / 2 / main)
            for (b, tuples, points, main, ratio), _, _ in _count_rows(args)]
    header = ["B", "tuples", "points", "n_main", "ratio_tuples", "ratio_points"]
    if args.format == "csv":
        _emit_csv(header, "{},{},{},{:.15g},{:.15g},{:.15g}\n", rows, args.out)
    else:
        _emit_json(
            {"schema": "v1", "columns": header, "rows": [list(r) for r in rows]},
            args.out,
        )
    return 0


def _cmd_local_factors(args) -> int:
    rows = ((p, int(in_s), certified, printed, abs(certified - printed))
            for p, in_s, certified, printed
            in local_factors(args.k, args.exclude_primes, args.prime_cutoff))
    _emit_csv(
        ["p", "in_S", "gp_value", "gp_special_value", "abs_diff"],
        "{},{},{:.15g},{:.15g},{:.15g}\n",
        rows,
        args.out,
    )
    return 0


def _cmd_table(args) -> int:
    rows = [(*row, r["s_value"], pred["s_main"], r["t_value"], pred["t_main"])
            for row, pred, r in _count_rows(args)]
    _emit_csv(
        ["B", "tuples", "points", "n_main", "ratio_tuples",
         "s_sum", "s_main", "t_sum", "t_main"],
        "{},{},{},{:.15g},{:.15g},{},{:.15g},{},{:.15g}\n",
        rows,
        args.out,
    )
    return 0


def _suite_mpoints(report) -> bool:
    ok = True
    sets = [PrimeSet.empty(), PrimeSet.of(2), PrimeSet.of(2, 3), PrimeSet.of(5)]
    ps = primes_up_to(100)
    # every checked quantity depends on the point only through (x, h, z),
    # so one representative per class covers the whole exhaustive set
    classes = point_classes(40)
    for pt, _ in classes:
        for p in ps:
            m = intersection_mults(pt, p)
            if 2 * m.n1 + m.n2 != max(vp(p, pt.z) - vp(p, pt.x), 0):
                report(f"multiplicity identity fails at {pt} p={p}")
                ok = False
        for s_set in sets:
            if semi_integral_ok(pt, s_set) != m_point_ok(pt, s_set):
                report(f"equivalence fails at {pt} S={s_set}")
                ok = False
    report(f"checked {sum(n for _, n in classes)} points of height <= 40 "
           f"({len(classes)} coordinate classes)")
    return ok


def _route_counts(b: int, k: int, s_set: PrimeSet) -> tuple:
    """(oracle, scaled model, brute-force table): the three routes' counts at (B, k, S)."""
    return (n_oracle(b, k, s_set), *(
        n_mobius(b, CountRequest(k=k, bound=Fraction(b), s_set=s_set, r_source=source))
        for source in (RSource.JACOBI, RSource.EXACT)))


def _suite_routes(report) -> bool:
    """Oracle = scaled model = brute-force table on fixed grids, well inside the table's guard."""
    ok = True
    grids = {1: (5, 10, 20, 30, 50), 2: (5, 10, 12)}
    for k, bounds in grids.items():
        for s_set in (PrimeSet.empty(), PrimeSet.of(2), PrimeSet.of(2, 3)):
            for b in bounds:
                a, mj, me = _route_counts(b, k, s_set)
                if not (a == mj == me):
                    report(f"route mismatch k={k} B={b} S={s_set}: {a} {mj} {me}")
                    ok = False
    report("route equality checked for " + "; ".join(
        f"k={k}, B in {{{','.join(map(str, bounds))}}}" for k, bounds in grids.items())
        + "; three prime sets")
    return ok


def _check_euler_factors(report) -> bool:
    """The series against the closed form, on a grid and at every prime up to 10^4."""
    worst = 0.0
    for p in (2, 3, 5, 7, 11):
        for k in (1, 2):
            for in_s in (True, False):
                for s, w in ((2.0, 2.0 * k), (1.5, 2.0 * k - 0.5), (3.0, 2.0 * k + 1)):
                    inp = EulerFactorInput(p=p, k=k, in_S=in_s, s=s, w=w)
                    worst = max(worst, abs(fp_series(inp, 60) - fp_closed(inp)))
    report(f"series vs closed worst abs diff {worst:.2e}")
    worst_rel = max(_series_closed_sweep(k, 2.0, 2.0 * k, 10**4) for k in (1, 2))
    report(f"series vs closed form for p <= 10^4 worst rel diff {worst_rel:.2e}")
    return worst <= 1e-9 and worst_rel <= 1e-12


def _check_specializations(report) -> bool:
    """gp_special against the certified gp at s = 1, p <= 97: equal at odd primes.

    At p = 2 in the set the tabulated form weights exponent 0 by A + B and the
    model by 1, so gp - gp_special = (1 - A - B)/4; p = 2 outside it is reported.
    """
    worst, worst_at = 0.0, None
    for p in primes_up_to(97):
        for k in (1, 2):
            for in_s in (True, False):
                cert, printed = centre_factors(p, k, in_s)
                expected = 0.0
                if p == 2:
                    report(f"p=2 k={k} in_S={in_s}: certified {cert:.12g}, tabulated "
                           f"{printed:.12g}, abs diff {abs(cert - printed):.12g}")
                    if not in_s:
                        continue
                    a, b = _p2_coefficients(k)
                    expected = float((1 - a - b) / 4)
                if (d := abs(cert - printed - expected)) > worst:
                    worst, worst_at = d, (p, k, in_s)
    report(f"gp - gp_special vs 0 at odd primes, (1 - A - B)/4 at p=2 in_S=True: "
           f"worst residual {worst:.2e} at (p, k, in_S) = {worst_at}")
    return worst <= 1e-12


def _suite_euler(report) -> bool:
    return all([_check_euler_factors(report), _check_specializations(report)])


def _cmd_verify(args) -> int:
    suites = {
        "mpoints": _suite_mpoints,
        "routes": _suite_routes,
        "euler": _suite_euler,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
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

    def common(sp, bounds=False, bound=False, r_source=False):
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--exclude-primes", default="",
                        help="comma-separated primes; empty for none")
        sp.add_argument("--out", default=None)
        if bounds:
            sp.add_argument("--bounds", default="",
                            help="comma-separated integer height bounds")
        if bound:  # count: one bound, and which routes run at it
            sp.add_argument("--bound", type=int, required=True)
            sp.add_argument("--method", choices=["mobius", "oracle", "both"],
                            default="mobius",
                            help="the Mobius route always runs, so oracle (which "
                                 "adds direct enumeration) gives the same output "
                                 "as both")
        if r_source:
            sp.add_argument("--r-source", choices=["auto", "exact", "jacobi", "rstar"],
                            default="auto")

    sp = sub.add_parser("count", help="run the counting routes at one bound")
    common(sp, bound=True, r_source=True)
    sp.add_argument("--with-st", action="store_true")
    sp.add_argument("--timings", action="store_true")

    sp = sub.add_parser("predict", help="constants and main-term predictions")
    common(sp, bounds=True)
    sp.add_argument("--prime-cutoff", type=int, default=100000,
                    help=f"only checked (at least 100, at most {PRIME_SIEVE_LIMIT}) "
                         "and echoed: G is taken over every prime, and "
                         "euler_product_tail_estimate is a certified bound on the "
                         "relative error of the printed G")

    sp = sub.add_parser("compare", help="counts against the predicted main term")
    common(sp, bounds=True, r_source=True)
    sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("local-factors", help="CSV of local factors per prime")
    common(sp)
    sp.add_argument("--prime-cutoff", type=int, default=100,
                    help=f"the primes swept, up to this cutoff (at most {PRIME_SIEVE_LIMIT})")

    sp = sub.add_parser("verify", help="run an invariant suite")
    sp.add_argument("--suite", choices=["mpoints", "routes", "euler", "all"],
                    default="all")

    sp = sub.add_parser("table", help="CSV sweep for external plotting")
    common(sp, bounds=True, r_source=True)

    return ap


_SOURCES = {"exact": RSource.EXACT, "jacobi": RSource.JACOBI, "rstar": RSource.RSTAR}


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Validate the parsed arguments and resolve them in place.

    --exclude-primes becomes a PrimeSet, --bounds a list of ints, and
    --r-source an RSource (auto: the scaled model for k <= 2, the table
    above; rstar for count only).  Raises DomainError on bad input.
    """
    try:
        if hasattr(args, "exclude_primes"):
            args.exclude_primes = PrimeSet.parse(args.exclude_primes)
        if hasattr(args, "bounds"):  # as PrimeSet.parse: "" is none, "20,,30" an error
            args.bounds = [int(t) for t in args.bounds.split(",")] if args.bounds.strip() else []
    except DomainError:
        raise
    except ValueError as exc:  # a token that is not an integer
        raise DomainError(f"expected comma-separated integers: {exc}") from exc
    if hasattr(args, "r_source"):
        if args.r_source == "rstar" and args.command != "count":
            # its columns would print the unscaled model as tuples; count names it
            raise DomainError(f"--r-source rstar is for count only, not {args.command}")
        args.r_source = (_SOURCES[args.r_source] if args.r_source != "auto"
                         else RSource.JACOBI if args.k <= 2 else RSource.EXACT)
    if getattr(args, "prime_cutoff", 2) < 2:  # no prime lies below 2
        raise DomainError(f"prime cutoff {args.prime_cutoff} must be >= 2")
    bounds = [args.bound] if hasattr(args, "bound") else getattr(args, "bounds", [])
    low = 2 if args.command in ("compare", "table") else 1  # main term is 0 at B = 1
    for b in bounds:
        if b < low:
            raise DomainError(f"bound {b} must be >= {low} for {args.command}")
    if len(set(bounds)) != len(bounds):
        raise DomainError(f"duplicate bounds in {bounds}")
    return args


def run(args: argparse.Namespace) -> int:
    """Run a subcommand on arguments resolved by config_from_args."""
    commands = {
        "count": _cmd_count,
        "predict": _cmd_predict,
        "compare": _cmd_compare,
        "local-factors": _cmd_local_factors,
        "verify": _cmd_verify,
        "table": _cmd_table,
    }
    if args.command in ("compare", "table") and not args.bounds:
        print("error: at least one bound is required", file=sys.stderr)
        return 2
    try:
        return commands[args.command](args)
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # arrays of a bound past what this machine can hold
        print("capacity guard: out of memory; lower the bound or --k", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # float local factors at large k, or a huge bound
        print(f"invalid arguments: --k or a bound is too large ({exc.args[-1]})",
              file=sys.stderr)
        return 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built once a process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config_from_args(args)
    except DomainError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    try:
        code = run(args)
        sys.stdout.flush()  # a block-buffered stdout fails here, not at exit
        return code
    except OSError as exc:
        # only a write to stdout gets here (_emit_text turns --out's into a
        # DomainError): point stdout at devnull, so that the flush at exit
        # writes what is left nowhere instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader is gone
            return 141
        print(f"invalid arguments: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
