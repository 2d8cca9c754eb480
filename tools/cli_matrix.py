"""Byte-identity matrix for the semicubic CLI.

Runs a fixed list of CLI commands in-process through semicubic.cli.main and
prints one line per command:

    sha256(stdout) sha256(stderr) exit argv

where exit is the return code, the code of a SystemExit, or the type name of
an uncaught exception.  Run it on two checkouts and diff the outputs to show
that a change keeps every artifact byte for byte:

    python3 tools/cli_matrix.py > after.txt
    python3 tools/cli_matrix.py --src ../parent/src > before.txt
    diff before.txt after.txt

Stdlib only; about 8 to 11 s on a 2-core x86 machine (8.2 s for 286 commands
in one session, 11.2 s for its 288 in a slower one, 7.7 s for 291 once the
walk by runs forked its second part, 8.4 s for 293; 12 to 14 s while each
r_4k table raised theta to the power 4k itself), about 2 s of them in one
count at B = 10^6, the edge of the loop over n, and about 1.2 s in the k = 5
count and oracle at the edge of their r_20 table, B = 252.  The r_4k tables
are kept from command to command and rebuilt only for a command that needs a
longer one, and every
k >= 2 table reads and extends the k = 1 table, so the order of the commands
decides which tables are built.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import S_GRID, with_s  # noqa: E402  the benchmark's prime sets

# (k, --r-source) pairs: every source at k = 1, the model and the table at
# k = 2, and auto (the table) at k = 3.
SOURCES = [(1, "auto"), (1, "exact"), (1, "jacobi"), (1, "rstar"),
           (2, "auto"), (2, "exact"), (3, "auto")]
# (count --bound, table/compare --bounds) per k, small enough for the
# brute-force r_4k tables.
BOUNDS = {1: ("30", "10,20"), 2: ("12", "5,10"), 3: ("6", "3,5")}

EXTRA = [
    # the order of the r_4k cache, which the commands share: here the k = 1
    # table is 30^2 long.  A k = 2 exact count extends it to 150^2 and the
    # k = 1 oracle at B = 100 and 120 reads it; a k = 3 count extends it again
    # to 160^2, and the k = 1 oracle at B = 160 reads that
    ["count", "--k", "2", "--bound", "150", "--r-source", "exact"],
    ["count", "--k", "1", "--bound", "100", "--method", "both", "--with-st",
     "--exclude-primes", "2,3"],
    ["count", "--k", "1", "--bound", "120", "--method", "oracle"],
    ["count", "--k", "3", "--bound", "160", "--method", "both"],
    ["count", "--k", "1", "--bound", "160", "--method", "oracle", "--exclude-primes", "5,7"],
    # successes: the default prime cutoffs (100 for local-factors, 100000 for
    # predict; compare and table take none), k = 6 at a cutoff of 10^6, the oracle
    ["local-factors", "--k", "1"],
    ["predict", "--k", "1", "--bounds", "2"],
    ["predict", "--k", "2", "--bounds", "100,1000"],
    ["compare", "--k", "1", "--bounds", "20,40"],
    ["table", "--k", "1", "--bounds", "10,20"],
    # bounds where two orders of the main-term product differ in the last digit
    ["compare", "--k", "1", "--bounds", "34,77"],
    ["table", "--k", "1", "--bounds", "34,77"],
    ["predict", "--k", "6", "--prime-cutoff", "1000000", "--bounds", "10"],
    ["local-factors", "--k", "6", "--prime-cutoff", "1000"],
    ["count", "--k", "1", "--bound", "20", "--method", "oracle"],
    ["count", "--k", "1", "--bound", "20", "--method", "both", "--with-st"],
    ["count", "--k", "2", "--bound", "8", "--method", "both", "--r-source", "exact"],
    ["verify", "--suite", "all"],
    # the oracle at k = 1, 2, 3 up to B = 100, 12, 5, which older trees with
    # tighter guards accept too, two prime sets each, and at k = 4
    *(["count", "--k", k, "--bound", bound, "--method", "both", "--with-st"] + s
      for k, bound in (("1", "100"), ("2", "12"), ("3", "5"))
      for s in ([], ["--exclude-primes", "2,3"])),
    ["count", "--k", "4", "--bound", "20", "--method", "both", "--with-st"],
    # usage errors (exit 2)
    ["predict", "--bounds", "a"],
    ["predict", "--bounds", "0"],
    ["predict", "--bounds", "-2"],
    ["predict", "--bounds", "10,10"],
    ["compare", "--bounds", "1"],
    ["compare", "--bounds", "20,a"],
    # an empty token in --bounds, as in --exclude-primes below
    ["compare", "--k", "1", "--bounds", "20,,30"],
    ["predict", "--bounds", ","],
    ["table", "--bounds", "1"],
    ["table", "--bounds", "5,20,5"],
    ["count", "--bound", "0"],
    ["count", "--k", "3", "--bound", "5", "--r-source", "jacobi"],
    ["compare", "--k", "1"],
    ["table", "--k", "1"],
    ["count", "--k", "1"],
    ["count", "--k", "0", "--bound", "5"],
    ["count", "--k", "1", "--bound", "5", "--exclude-primes", "4"],
    ["count", "--k", "1", "--bound", "5", "--exclude-primes", "2,,3"],
    ["count", "--k", "1", "--bound", "5", "--r-source", "other"],
    ["local-factors", "--prime-cutoff", "0"],
    ["local-factors", "--prime-cutoff", "-5"],
    # large k: gp_special's float powers overflow (exit 2), the Euler
    # product's odd primes do not; euler_constant's edge is p = 2 outside the
    # set (k = 129), later with 2 in it, but predict stops first, at k = 109,
    # where the leading constant's prefactor leaves the normal floats
    ["predict", "--k", "20", "--prime-cutoff", "200"],
    ["local-factors", "--k", "20", "--prime-cutoff", "200"],
    ["predict", "--k", "7", "--prime-cutoff", "1000000"],
    ["local-factors", "--k", "8", "--prime-cutoff", "100000"],
    *(["predict", "--k", k, "--prime-cutoff", "100"] + s
      for k, s in (("128", []), ("129", []), ("129", ["--exclude-primes", "2"]),
                   ("130", ["--exclude-primes", "2"]))),
    # and at the benchmark's cutoff, which once meant 78,498 centre polynomials
    # of 1,278 coefficients each
    ["predict", "--k", "128", "--prime-cutoff", "1000000"],
    # counts stop at k = 10^4 (exit 3), and so does a count too long to print;
    # at B = 100 the exact route's table is refused before any walk runs
    ["count", "--k", "10000", "--bound", "3"],
    ["count", "--k", "10000", "--bound", "100"],
    ["count", "--k", "10001", "--bound", "2"],
    ["count", "--k", "1000", "--bound", "50", "--r-source", "rstar"],
    # the oracle at k = 1, B = 200 and at B = 250, the table's capacity guard
    # (exit 3), and the model past it (exit 0)
    ["count", "--k", "1", "--bound", "200", "--method", "oracle"],
    ["count", "--k", "1", "--bound", "250", "--method", "both",
     "--exclude-primes", "2,3", "--with-st"],
    ["count", "--k", "2", "--bound", "400", "--r-source", "exact"],
    ["count", "--k", "2", "--bound", "400", "--r-source", "auto"],
    # a k = 7 table past the budget, refused before theta^4 is built
    ["count", "--k", "7", "--bound", "300", "--method", "both"],
    # the oracle reads the r_4k table: at its edges for k = 1 (B = 518) and
    # k = 5 (B = 252), one step past (exit 3), and at k = 5 with S and T
    ["count", "--k", "1", "--bound", "518", "--method", "both",
     "--exclude-primes", "2,3", "--with-st"],
    ["count", "--k", "5", "--bound", "252", "--method", "both"],
    ["count", "--k", "1", "--bound", "519", "--method", "oracle"],
    ["count", "--k", "5", "--bound", "20", "--method", "both", "--with-st"],
    # a prime of the set above the prime cutoff enters the Euler product
    # through the centre polynomials, in the float range at every k
    # euler_constant takes, up to the largest prime a set holds and k = 129
    # with 2 in the set (where predict refuses the leading constant)
    ["predict", "--k", "1", "--prime-cutoff", "100", "--exclude-primes", "101",
     "--bounds", "1000"],
    ["compare", "--k", "1", "--bounds", "20,40", "--exclude-primes", "10007"],
    ["predict", "--k", "7", "--prime-cutoff", "100", "--exclude-primes", "1000003"],
    ["predict", "--k", "20", "--prime-cutoff", "100", "--exclude-primes", "999999999989"],
    ["predict", "--k", "129", "--prime-cutoff", "100", "--exclude-primes", "2,101"],
    # the table's edges (B = 518, 381, 320 for k = 1, 2, 3) and one step past
    *(["count", "--k", k, "--bound", str(edge + step), "--r-source", "exact"]
      for k, edge in (("1", 518), ("2", 381), ("3", 320)) for step in (0, 1)),
    # S and T on the table route at its edges, and k = 3 tables up to the edge
    *(["count", "--k", k, "--bound", edge, "--r-source", "exact", "--with-st"] + s
      for k, edge in (("1", "518"), ("2", "381"), ("3", "320"))
      for s in ([], ["--exclude-primes", "2,3"])),
    ["table", "--k", "3", "--bounds", "100,320"],
    ["compare", "--k", "3", "--bounds", "100,320", "--exclude-primes", "5,7"],
    # the benchmark's constants ops
    ["predict", "--k", "1", "--prime-cutoff", "1000000", "--bounds", "1000,100000"],
    ["predict", "--k", "2", "--prime-cutoff", "1000000", "--bounds", "3000,30000",
     "--exclude-primes", "5,7"],
    ["local-factors", "--k", "1", "--prime-cutoff", "100000", "--exclude-primes", "2,3"],
    # odd primes in the set at the benchmark's predict cutoff, and local-factors at k = 2
    *(["predict", "--k", k, "--prime-cutoff", "1000000", "--exclude-primes", "3,5,7"]
      for k in ("1", "2")),
    ["local-factors", "--k", "2", "--prime-cutoff", "100000", "--exclude-primes", "2,3"],
    # local-factors above the cutoff where half its rows are formatted in a
    # forked child: k = 1 for three sets, and k = 6
    *(with_s(["local-factors", "--k", "1", "--prime-cutoff", "100000"], s)
      for s in ("", "2", "5,7")),
    ["local-factors", "--k", "6", "--prime-cutoff", "100000"],
    # the benchmark's count-k1 ops at the ends of its bound grid, for every set
    *(with_s(["count", "--k", "1", "--bound", bound], s)
      for bound in ("19800", "20200") for s in S_GRID),
    *(with_s(["table", "--k", "1", "--bounds", "3000"], s) for s in S_GRID),
    # the benchmark's crosscheck ops: the Euler suite alone, and the exact k = 2
    # count at the ends of its bound grid for every set, without and with S and T
    ["verify", "--suite", "euler"],
    *(with_s(["count", "--k", "2", "--bound", bound, "--r-source", "exact"], s) + st
      for bound in ("148", "152") for s in S_GRID for st in ([], ["--with-st"])),
    # two neighbouring bounds with S and T, the edge where the loop over n
    # was once first cut into blocks
    ["count", "--k", "1", "--bound", "1999", "--with-st"],
    ["count", "--k", "1", "--bound", "2000", "--with-st"],
    # the walk by runs of the largest prime: k = 2 for every set, rstar at
    # k = 1, and the smallest bounds, around the first primes, squares and cubes
    *(with_s(["count", "--k", "2", "--bound", "20000", "--with-st"], s) for s in S_GRID),
    ["count", "--k", "1", "--bound", "30000", "--r-source", "rstar",
     "--exclude-primes", "2,3", "--with-st"],
    # 2 in the runs: the k = 2 weights of 2, and rstar with a set that misses 2
    ["count", "--k", "2", "--bound", "100000", "--exclude-primes", "3", "--with-st"],
    ["count", "--k", "1", "--bound", "100000", "--exclude-primes", "5,7",
     "--r-source", "rstar", "--with-st"],
    *(["count", "--k", "1", "--bound", bound, "--with-st"]
      for bound in ("2", "3", "4", "8", "9", "25", "27")),
    # the prime sieve's edge (a cutoff of 10^6) and one step past, then the
    # loop over n at its edge (B = 10^6, about 6 s) and one step past
    *(argv + [str(edge + step)]
      for argv, edge in ((["local-factors", "--k", "1", "--prime-cutoff"], 10**6),
                         (["count", "--k", "1", "--bound"], 10**6))
      for step in (0, 1)),
    # past the loop's edge with the oracle: its table guard refuses before the walk
    ["count", "--k", "1", "--bound", "1000001", "--method", "both"],
    ["predict", "--k", "1", "--prime-cutoff", "1000001"],
    # predict's cutoff is only checked and echoed: refused below 100 (exit 2),
    # below 2 by the check local-factors shares, and after k, whose refusal
    # comes before the sieve's; compare and table take no cutoff (exit 2)
    ["predict", "--k", "1", "--prime-cutoff", "99"],
    ["predict", "--k", "1", "--prime-cutoff", "1"],
    ["predict", "--k", "0", "--prime-cutoff", "1000001"],
    ["compare", "--k", "1", "--bounds", "10", "--prime-cutoff", "10000"],
    ["table", "--k", "1", "--bounds", "10", "--prime-cutoff", "10000"],
    # primes of the set above euler_constant's head of 100, whose two sides
    # each add a rounding bound: the three cases whose bound depends in its
    # last bits on the order of those additions, below the 15 digits printed
    ["predict", "--k", "3", "--exclude-primes", "101", "--bounds", "1000"],
    *(["predict", "--k", k, "--exclude-primes", "2,101,103"] for k in ("3", "128")),
    # the leading constant's edge: its prefactor r4k_main_coeff(k) / (3k - 1) is
    # a normal float up to k = 108 (exit 0) and subnormal from k = 109 (exit 2);
    # compare and table stop there too, before any count
    ["predict", "--k", "108", "--bounds", "2"],
    ["predict", "--k", "109", "--bounds", "2"],
    ["compare", "--k", "128", "--bounds", "2"],
    ["table", "--k", "129", "--bounds", "2", "--exclude-primes", "2"],
    # a k where the prefactor rounded once moves the 15th digit printed
    ["predict", "--k", "21", "--bounds", "10"],
    # primes of the set above 100 at the largest k predict takes
    ["predict", "--k", "108", "--exclude-primes", "2,101,103"],
    # zeta(4k - 1) at k = 5 and 3 on the empty set, 19 and 11, both misrounded
    # by one unit in the last place while zeta_real summed in floats: at k = 3
    # the leading constant's 15th digit moved, at k = 5 no printed digit did
    ["predict", "--k", "5", "--bounds", "10"],
    ["predict", "--k", "3", "--bounds", "10"],
    # the walk by runs in two parts, the second in a forked child, from
    # floor(B) = 10^4 on: a count, one with S and T, and a table; then k = 2
    # and compare through the fork, and the Mobius sum read off its slots
    ["count", "--k", "1", "--bound", "20000"],
    ["count", "--k", "1", "--bound", "20000", "--with-st", "--exclude-primes", "2,3"],
    ["table", "--k", "1", "--bounds", "15000,20000"],
    ["count", "--k", "2", "--bound", "20000", "--exclude-primes", "5,7"],
    ["compare", "--k", "1", "--bounds", "15000,20000"],
]


def commands() -> list:
    out = []
    for k, source in SOURCES:
        bound, bounds = BOUNDS[k]
        for s in S_GRID:
            tail = ["--k", str(k), "--r-source", source]
            if s:
                tail += ["--exclude-primes", s]
            out.append(["count", "--bound", bound, "--with-st"] + tail)
            out.append(["table", "--bounds", bounds] + tail)
            for fmt in ("json", "csv"):
                out.append(["compare", "--bounds", bounds, "--format", fmt] + tail)
    for s in S_GRID:
        tail = ["--exclude-primes", s] if s else []
        for k in (1, 2):
            out.append(["predict", "--k", str(k), "--prime-cutoff", "1000",
                        "--bounds", "10,100"] + tail)
            out.append(["local-factors", "--k", str(k), "--prime-cutoff", "200"] + tail)
    return out + EXTRA


def run_one(main, argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # recorded, not raised: the matrix goes on
            status = type(exc).__name__
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest()
              for s in (out, err)]
    return f"{digest[0]} {digest[1]} {status} {' '.join(argv)}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory that holds the semicubic package")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from semicubic.cli import main as cli_main

    for argv in commands():
        print(run_one(cli_main, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
