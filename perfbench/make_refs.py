"""Generate refs.json: the pinned outputs of every grid entry in workloads.py.

Run from the repository root:  python3 perfbench/make_refs.py

Each integer reference is the CLI's own output, cross-validated once by an
independent route before it is pinned:
  * count at k = 1: n_star_values[1] == 16 (S - T), with S and T summed over
    the multiplicative model;
  * count at k = 2: the exact-table route equals 16 x the model route;
  * count --method both: the oracle equals the Mobius count;
  * table and compare: tuples equal 8 x the model route's count.
The Euler-product constants G(k, S) come from mpmath (the runner never
imports it): the local factors are multiplied at 40 digits for p <= 100, and the tail
over p > 100 is exp(sum_m c_m (primezeta(m) - sum_{p<=100} p^-m)), where c_m
are the exact Taylor coefficients of log gp in u = 1/p.  The factors come from
analytic.f_poly expanded exactly in u, and from analytic.gp run on mpf
arguments for p = 2 and the primes in S.  At k = 2 the p = 2 factor passes
through the program's float coefficients, so those constants are good to
about 1e-16 relative.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from semicubic import analytic, cli, counting  # noqa: E402
from semicubic.arith import PrimeSet, primes_up_to  # noqa: E402
from semicubic.counting import CountRequest, RSource  # noqa: E402

import workloads as W  # noqa: E402
from check import (  # noqa: E402
    Checker, count_key, g_key, local_factors_key, nstar_digest, parse_argv, row_key)

DPS = 40
DIRECT_LIMIT = 100  # primes multiplied directly; the tail is the log series
SERIES_TERMS = 60


def run_cli(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Euler-product constants


class LaurentPoly:
    """Exact Laurent polynomial in u, enough arithmetic to run analytic.f_poly."""

    def __init__(self, terms: dict):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def _lift(o):
        return o if isinstance(o, LaurentPoly) else LaurentPoly({0: o})

    def __add__(self, o):
        t = dict(self.terms)
        for e, c in self._lift(o).terms.items():
            t[e] = t.get(e, 0) + c
        return LaurentPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in self._lift(o).terms.items():
                t[e1 + e2] = t.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = LaurentPoly({0: 1})
        for _ in range(n):
            out = out * self
        return out


@functools.lru_cache(maxsize=None)
def odd_factor_polys(k: int):
    """(N, a, b) with gp = N(u) / ((1 - u^a)(1 - u^b)), u = 1/p, for an odd
    prime outside S at (s, w) = (1, 2k-1); N has exact integer coefficients."""
    u = LaurentPoly({1: 1})
    num = 1 + analytic.f_poly(u, u ** (2 * k - 1), LaurentPoly({1 - 2 * k: 1}))
    assert min(num.terms) == 0 and num.terms[0] == 1
    return tuple(num.terms.get(j, 0) for j in range(max(num.terms) + 1)), 4 * k - 1, 6 * k - 2


def log_gp_coefficients(k: int, terms: int) -> list:
    """c_0..c_terms of log gp(u) for an odd prime outside S, exactly."""
    poly, a, b = odd_factor_polys(k)
    n = [Fraction(poly[j]) if j < len(poly) else Fraction(0) for j in range(terms + 1)]
    log_n = [Fraction(0)] * (terms + 1)
    for m in range(1, terms + 1):
        acc = m * n[m] - sum(j * log_n[j] * n[m - j] for j in range(1, m))
        log_n[m] = acc / m
    c = list(log_n)
    for e in (a, b):
        for m in range(e, terms + 1, e):
            c[m] += Fraction(e, m)  # -log(1 - u^e) = sum_j u^(ej) / j
    return c


def gp_ref(p: int, k: int, in_s: bool):
    """The local factor at working precision.  Odd primes outside S use the
    exact polynomial (analytic.gp forms z^3, z^4 in floats, which rounds at
    k = 2); the others run analytic.gp itself on mpf arguments."""
    if p != 2 and not in_s:
        poly, a, b = odd_factor_polys(k)
        u = mpf(1) / p
        val = mpf(0)
        for coeff in reversed(poly):
            val = val * u + coeff
        return val / ((1 - u**a) * (1 - u**b))
    return analytic.gp(analytic.EulerFactorInput(
        p=p, k=k, in_S=in_s, s=mpf(1), w=mpf(2 * k - 1)))


def g_constant(k: int, s_set: PrimeSet):
    assert all(p <= DIRECT_LIMIT for p in s_set)
    c = log_gp_coefficients(k, SERIES_TERMS)
    assert c[1] == 0, "log gp must start at u^2"
    # the expansion must reproduce the closed form just past the cutoff
    u = mpf(1) / 101
    series = mpmath.exp(sum(mpf(c[m].numerator) / c[m].denominator * u**m
                            for m in range(2, SERIES_TERMS + 1)))
    assert abs(series / gp_ref(101, k, False) - 1) < mpf(10) ** -(DPS - 5)
    program = analytic.gp(analytic.EulerFactorInput(p=101, k=k, in_S=False, s=1.0,
                                                    w=2.0 * k - 1.0))
    assert abs(series / program - 1) < 1e-14
    small = primes_up_to(DIRECT_LIMIT)
    direct = mpf(1)
    for p in small:
        direct *= gp_ref(p, k, p in s_set)
    tail = mpf(0)
    for m in range(2, SERIES_TERMS + 1):
        if c[m]:
            rest = mpmath.primezeta(m) - sum(mpf(p) ** -m for p in small)
            tail += mpf(c[m].numerator) / c[m].denominator * rest
    return direct * mpmath.exp(tail)


def truncated_product(k: int, s_set: PrimeSet, cutoff: int):
    out = mpf(1)
    for p in primes_up_to(cutoff):
        out *= gp_ref(p, k, p in s_set)
    return out


# ---------------------------------------------------------------------------


def count_ref(argv: list) -> tuple:
    text = run_cli(argv)
    d = json.loads(text)
    ref = {
        "request": d["request"],
        "nstar_digest": nstar_digest(d["n_star_values"]),
        **{key: d[key] for key in ("n_mobius", "n_oracle", "s_value", "t_value")},
    }
    return ref, d, text


def main():
    mp.dps = DPS
    refs: dict = {
        "bernoulli": {str(m): str(abs(Fraction(*mpmath.bernfrac(m)))) for m in (2, 4)},
        "zeta": {str(s): mpmath.nstr(mpmath.zeta(s), 30) for s in (3, 7)},
        "G": {}, "g2_abs_diff": {}, "count": {}, "table": {}, "compare": {},
        "local_factors": {},
    }
    outputs = []  # (argv, text) of every op run here, re-checked at the end

    for k in (1, 2):
        for s in W.S_GRID:
            ps = PrimeSet.parse(s)
            w = 2.0 * k - 1.0
            refs["G"][g_key(k, s)] = {
                "G": mpmath.nstr(g_constant(k, ps), 30),
                "tail": {"10000": repr(analytic.euler_product(k, ps, 10000).tail_estimate)},
            }
            refs["g2_abs_diff"][g_key(k, s)] = repr(abs(
                analytic.gp_special(2, k, 2 in ps)
                - analytic.gp(analytic.EulerFactorInput(p=2, k=k, in_S=2 in ps, s=1.0, w=w))))
            print(f"G(k={k}, S={{{s}}}) = {refs['G'][g_key(k, s)]['G']}", flush=True)

    def k1_counts(bound_grid, extra):
        for b in bound_grid:
            for s in W.S_GRID:
                argv = W.with_s(["count", "--k", "1", "--bound", str(b)] + extra, s)
                ref, d, text = count_ref(argv)
                refs["count"][count_key(parse_argv(argv))] = ref
                outputs.append((argv, text))
                ps = PrimeSet.parse(s)
                req = CountRequest(k=1, bound=Fraction(b), s_set=ps, r_source=RSource.RSTAR)
                if d["s_value"] is None:
                    sv = counting.s_sum(b, b * b, req)
                    tv = counting.t_sum(b, req)
                else:
                    sv, tv = d["s_value"], d["t_value"]
                assert d["n_star_values"]["1"] == 16 * (sv - tv), argv
                if d["n_oracle"] is not None:
                    assert d["n_oracle"] == d["n_mobius"], argv
                print("count", argv, "ok", flush=True)

    k1_counts(W.COUNT_K1_BOUNDS, [])
    k1_counts(W.ORACLE_K1_BOUNDS, ["--method", "both", "--with-st"])

    for b in W.COUNT_K2_BOUNDS:
        for s in W.S_GRID:
            argv = W.with_s(["count", "--k", "2", "--bound", str(b), "--r-source", "exact"], s)
            ref, d, text = count_ref(argv)
            refs["count"][count_key(parse_argv(argv))] = ref
            outputs.append((argv, text))
            req = CountRequest(k=2, bound=Fraction(b), s_set=PrimeSet.parse(s),
                               r_source=RSource.RSTAR)
            model = counting.n_star_by_divisor(b, req)
            assert {int(e): v for e, v in d["n_star_values"].items()} == {
                e: 16 * v for e, v in model.items()}, argv
            assert d["n_mobius"] == 16 * counting.n_mobius(b, req), argv
            print("count", argv, "ok", flush=True)

    def model_tuples(b, s):
        req = CountRequest(k=1, bound=Fraction(b), s_set=PrimeSet.parse(s), r_source=RSource.RSTAR)
        return 8 * counting.n_mobius(b, req)

    for b in W.TABLE_K1_BOUNDS:
        for s in W.S_GRID:
            argv = W.with_s(["table", "--k", "1", "--bounds", str(b)], s)
            text = run_cli(argv)
            header, row = text.splitlines()
            row = dict(zip(header.split(","), row.split(",")))
            ref = {key: int(row[key]) for key in ("tuples", "points", "s_sum", "t_sum")}
            assert ref["tuples"] == model_tuples(b, s), argv
            refs["table"][row_key("table", 1, b, s)] = ref
            outputs.append((argv, text))
            print("table", argv, "ok", flush=True)

    for b in W.COMPARE_BOUNDS:
        for s in W.S_GRID:
            argv = W.with_s(["compare", "--k", "1", "--bounds", str(b)], s)
            text = run_cli(argv)
            tuples = json.loads(text)["rows"][0][1]
            assert tuples == model_tuples(b, s), argv
            refs["compare"][row_key("compare", 1, b, s)] = {"tuples": tuples}
            outputs.append((argv, text))

    for s in W.S_GRID:
        ps = PrimeSet.parse(s)
        cutoff = W.LOCAL_FACTORS_CUTOFF
        argv = W.with_s(["local-factors", "--k", "1", "--prime-cutoff", str(cutoff)], s)
        text = run_cli(argv)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        refs["local_factors"][local_factors_key(1, cutoff, s)] = {
            "rows": len(rows),
            "p_sum": sum(int(r[0]) for r in rows),
            "product": mpmath.nstr(truncated_product(1, ps, cutoff), 30),
            "p2_gp": rows[0][2],
            "p2_special": rows[0][3],
        }
        assert len(rows) == len(primes_up_to(cutoff))
        outputs.append((argv, text))
        print("local-factors", argv, "ok", flush=True)

    text = run_cli(["verify", "--suite", "all"])
    m = re.search(r"checked (\d+) points of height <= 40 \((\d+) coordinate classes\)", text)
    refs["verify"] = {"suites": ["mpoints", "routes", "euler"],
                      "points": int(m[1]), "classes": int(m[2])}
    outputs.append((["verify", "--suite", "all"], text))

    # every predict grid entry once, to confirm the pinned G against the
    # program's own tail estimate
    for k in (1, 2):
        for s in W.S_GRID:
            argv = W.with_s(["predict", "--k", str(k), "--prime-cutoff",
                              str(W.PREDICT_CUTOFF), "--bounds", "1000,100000"], s)
            outputs.append((argv, run_cli(argv)))

    checker = Checker(refs)
    worst = {}
    for argv, text in outputs:
        errs = checker.check(argv, 0, text)
        if errs:
            worst[argv[0]] = max(worst.get(argv[0], 0.0), max(float(e) for e in errs))
    print("all pinned outputs pass the checker; worst G error by op:", worst)

    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
