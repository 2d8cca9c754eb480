"""Checks every op's output against the pinned references in refs.json.

An op passes when it exits 0 and its output matches: integers exactly,
Euler products within their own tail estimate (or, where the output does
not print one, within the estimate pinned for that configuration), other
floats within the stated tolerance.  Euler-product values also give the
relative error that feeds the g_rel_err metric.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
import re
from fractions import Fraction

FLOAT_TOL = Fraction(1, 10**12)       # floats not resting on G (zeta, prefactors)
ROUND_TOL = Fraction(1, 10**13)       # consistency of 15-digit printed values
LOCAL_PRODUCT_TOL = Fraction(1, 10**11)  # product of 15-digit per-prime factors


class CheckFailed(Exception):
    pass


def parse_argv(argv: list) -> dict:
    """The op's parameters, with the CLI's defaults where a flag is absent."""
    op = {"cmd": argv[0], "k": 1, "S": "", "method": "mobius", "r": "auto",
          "with_st": False}
    it = iter(argv[1:])
    for flag in it:
        if flag == "--with-st":
            op["with_st"] = True
            continue
        value = next(it)
        if flag == "--k":
            op["k"] = int(value)
        elif flag == "--bound":
            op["bounds"] = [int(value)]
        elif flag == "--bounds":
            op["bounds"] = [int(t) for t in value.split(",") if t]
        elif flag == "--exclude-primes":
            op["S"] = ",".join(str(p) for p in sorted(int(t) for t in value.split(",")))
        elif flag == "--prime-cutoff":
            op["cutoff"] = int(value)
        elif flag == "--method":
            op["method"] = value
        elif flag == "--r-source":
            op["r"] = value
        elif flag == "--suite":
            op["suite"] = value
        else:
            raise ValueError(f"unknown flag {flag}")
    return op


def count_key(op: dict) -> str:
    return (f"count|k={op['k']}|B={op['bounds'][0]}|S={op['S']}|r={op['r']}"
            f"|m={op['method']}|st={int(op['with_st'])}")


def row_key(cmd: str, k: int, b: int, s: str) -> str:
    return f"{cmd}|k={k}|B={b}|S={s}"


def g_key(k: int, s: str) -> str:
    return f"k={k}|S={s}"


def local_factors_key(k: int, cutoff: int, s: str) -> str:
    return f"k={k}|P={cutoff}|S={s}"


def nstar_digest(n_star_values: dict) -> str:
    pairs = sorted((int(e), int(v)) for e, v in n_star_values.items())
    return hashlib.sha256(json.dumps(pairs, separators=(",", ":")).encode()).hexdigest()


def _expect(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _rel(value, ref) -> Fraction:
    value, ref = Fraction(value), Fraction(ref)
    return abs(value - ref) / abs(ref)


def _size(b: int, k: int) -> float:
    # the same float expression the CLI uses for B^(4k-1) log B
    return b ** (4 * k - 1) * math.log(b)


class Checker:
    """Holds the references; check() judges one op's exit code and output."""

    def __init__(self, refs: dict):
        self.refs = refs

    def g_ref(self, k: int, s: str) -> Fraction:
        return Fraction(self.refs["G"][g_key(k, s)]["G"])

    def prefactor(self, k: int) -> Fraction:
        """4k / ((3k-1)(4^k-1)|B_2k| zeta(4k-1)) from the pinned constants."""
        b2k = Fraction(self.refs["bernoulli"][str(2 * k)])
        zeta = Fraction(self.refs["zeta"][str(4 * k - 1)])
        return Fraction(4 * k) / ((3 * k - 1) * (4**k - 1) * b2k * zeta)

    def check(self, argv: list, rc, text: str) -> list:
        """Raise CheckFailed, or return the relative errors of the op's
        Euler products (possibly none)."""
        _expect(rc == 0, f"exit code {rc}")
        op = parse_argv(argv)
        return getattr(self, "_" + op["cmd"].replace("-", "_"))(op, text)

    def _count(self, op, text):
        ref = self.refs["count"].get(count_key(op))
        _expect(ref is not None, f"no reference for {count_key(op)}")
        d = json.loads(text)
        _expect(d["schema"] == "v1", "schema")
        _expect(d["request"] == ref["request"], f"request {d['request']}")
        _expect(nstar_digest(d["n_star_values"]) == ref["nstar_digest"],
                "n_star_values differ from the reference")
        for key in ("n_mobius", "n_oracle", "s_value", "t_value"):
            _expect(d[key] == ref[key], f"{key} {d[key]} != {ref[key]}")
        _expect(d["tuples"] == d["n_mobius"] and d["points"] == d["n_mobius"] // 2,
                "tuples/points")
        if op["method"] == "both":
            _expect(d["n_oracle"] == d["n_mobius"], "oracle != mobius")
        if op["with_st"] and op["k"] == 1:
            _expect(d["n_star_values"]["1"] == 16 * (d["s_value"] - d["t_value"]),
                    "N* != 16 (S - T)")
        return []

    def _main_term_check(self, k, s, b, values: dict, tail) -> Fraction:
        """n_main/s_main/t_main against the pinned G; returns G's error."""
        g = self.g_ref(k, s)
        size = Fraction(_size(b, k))
        want = {
            "n_main": self.prefactor(k) * g * size,
            "s_main": g / (3 * (2 * k - 1)) * size,
            "t_main": g / (6 * (2 * k - 1) * (3 * k - 1)) * size,
        }
        for name, v in values.items():
            err = _rel(v, want[name])
            _expect(err <= tail + FLOAT_TOL, f"{name} off by {float(err):.3g} at B={b}")
        if "s_main" in values:
            g_out = Fraction(values["s_main"]) * 3 * (2 * k - 1) / size
        else:
            g_out = Fraction(values["n_main"]) / (self.prefactor(k) * size)
        return _rel(g_out, g)

    def _pinned_tail(self, k, s, cutoff) -> Fraction:
        return Fraction(self.refs["G"][g_key(k, s)]["tail"][str(cutoff)])

    def _table(self, op, text):
        lines = text.splitlines()
        _expect(lines[0] == "B,tuples,points,n_main,ratio_tuples,s_sum,s_main,"
                "t_sum,t_main", "table header")
        _expect(len(lines) == 1 + len(op["bounds"]), "table rows")
        k, s = op["k"], op["S"]
        tail = self._pinned_tail(k, s, op.get("cutoff", 10000))
        errs = []
        for b, line in zip(op["bounds"], lines[1:]):
            row = dict(zip(lines[0].split(","), line.split(",")))
            ref = self.refs["table"].get(row_key("table", k, b, s))
            _expect(ref is not None, f"no table reference at B={b} S={s}")
            _expect(int(row["B"]) == b, "table B")
            for key in ("tuples", "points", "s_sum", "t_sum"):
                _expect(int(row[key]) == ref[key], f"table {key} at B={b}")
            errs.append(self._main_term_check(
                k, s, b, {key: Fraction(row[key]) for key in ("n_main", "s_main", "t_main")},
                tail))
            _expect(_rel(Fraction(row["ratio_tuples"]),
                         ref["tuples"] / Fraction(row["n_main"])) <= ROUND_TOL,
                    "ratio_tuples")
        return errs

    def _compare(self, op, text):
        d = json.loads(text, parse_float=Fraction)
        _expect(d["columns"] == ["B", "tuples", "points", "n_main", "ratio_tuples",
                                 "ratio_points"], "compare columns")
        _expect([r[0] for r in d["rows"]] == op["bounds"], "compare bounds")
        k, s = op["k"], op["S"]
        tail = self._pinned_tail(k, s, op.get("cutoff", 10000))
        errs = []
        for b, tuples, points, n_main, ratio_t, ratio_p in d["rows"]:
            ref = self.refs["compare"].get(row_key("compare", k, b, s))
            _expect(ref is not None, f"no compare reference at B={b} S={s}")
            _expect(tuples == ref["tuples"] and points == tuples // 2,
                    f"compare tuples at B={b}")
            errs.append(self._main_term_check(k, s, b, {"n_main": n_main}, tail))
            _expect(_rel(ratio_t, tuples / n_main) <= ROUND_TOL, "ratio_tuples")
            _expect(_rel(ratio_p, Fraction(tuples, 2) / n_main) <= ROUND_TOL,
                    "ratio_points")
        return errs

    def _predict(self, op, text):
        d = json.loads(text, parse_float=Fraction)
        k, s = op["k"], op["S"]
        _expect((d["schema"], d["k"], d["exclude_primes"], d["prime_cutoff"])
                == ("v1", k, s, op.get("cutoff", 100000)), "predict echo fields")
        _expect(d["bernoulli_2k"] == self.refs["bernoulli"][str(2 * k)], "bernoulli")
        zeta = Fraction(self.refs["zeta"][str(4 * k - 1)])
        _expect(_rel(d["zeta_4k_minus_1"], zeta) <= FLOAT_TOL, "zeta")
        _expect(_rel(d["prefactor"], self.prefactor(k)) <= FLOAT_TOL, "prefactor")
        tail = d["euler_product_tail_estimate"]
        g = self.g_ref(k, s)
        err = _rel(d["euler_product"], g)
        _expect(err <= tail, f"Euler product error {float(err):.3g} exceeds its "
                f"tail estimate {float(tail):.3g}")
        _expect(_rel(d["leading_constant"], self.prefactor(k) * g) <= tail + FLOAT_TOL,
                "leading_constant")
        g2 = Fraction(self.refs["g2_abs_diff"][g_key(k, s)])
        _expect(abs(d["g2_special_vs_certified_abs_diff"] - g2) <= FLOAT_TOL,
                "g2_special_vs_certified_abs_diff")
        preds = d["predictions"]
        _expect([p["bound"] for p in preds] == op.get("bounds", []), "prediction bounds")
        for p in preds:
            self._main_term_check(
                k, s, p["bound"], {key: p[key] for key in ("n_main", "s_main", "t_main")},
                tail)
        return [err]

    def _local_factors(self, op, text):
        k, s, cutoff = op["k"], op["S"], op.get("cutoff", 100)
        ref = self.refs["local_factors"].get(local_factors_key(k, cutoff, s))
        _expect(ref is not None, f"no local-factors reference k={k} P={cutoff} S={s}")
        lines = text.splitlines()
        _expect(lines[0] == "p,in_S,gp_value,gp_special_value,abs_diff",
                "local-factors header")
        rows = [line.split(",") for line in lines[1:]]
        _expect(len(rows) == ref["rows"], "local-factors row count")
        ps = [int(r[0]) for r in rows]
        _expect(sum(ps) == ref["p_sum"] and ps == sorted(set(ps)), "local-factors primes")
        s_set = {int(t) for t in s.split(",")} if s else set()
        _expect(all(int(r[1]) == (int(r[0]) in s_set) for r in rows), "in_S column")
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            prod = decimal.Decimal(1)
            for r in rows:
                prod *= decimal.Decimal(r[2])
        _expect(_rel(prod, Fraction(ref["product"])) <= LOCAL_PRODUCT_TOL,
                "product of gp_value differs from the reference")
        _expect(all(Fraction(r[4]) <= FLOAT_TOL for r in rows[1:]),
                "odd-prime specialization differs")
        p2 = rows[0]
        _expect(_rel(Fraction(p2[2]), Fraction(ref["p2_gp"])) <= ROUND_TOL
                and _rel(Fraction(p2[3]), Fraction(ref["p2_special"])) <= ROUND_TOL,
                "p = 2 row")
        return []

    def _verify(self, op, text):
        ref = self.refs["verify"]
        for suite in ref["suites"]:
            _expect(f"ok - {suite}" in text.splitlines(), f"suite {suite} not ok")
        _expect("FAIL" not in text, "a suite failed")
        m = re.search(r"checked (\d+) points of height <= 40 \((\d+) coordinate classes\)",
                      text)
        _expect(m is not None and (int(m[1]), int(m[2])) == (ref["points"], ref["classes"]),
                "mpoints totals")
        return []
