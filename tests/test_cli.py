import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from semicubic import analytic, cli
from semicubic.arith import PrimeSet
from semicubic.cli import build_parser, config_from_args, main, run
from semicubic.counting import RSource


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_count_json_and_round_trip(capsys):
    code, out = _run(capsys, ["count", "--k", "1", "--bound", "20",
                              "--method", "both"])
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == "v1"
    assert blob["n_oracle"] == blob["n_mobius"]
    assert blob["points"] * 2 == blob["tuples"]
    assert blob["request"]["k"] == 1


def test_count_with_exclusions_and_st(capsys):
    code, out = _run(capsys, ["count", "--k", "1", "--bound", "10",
                              "--exclude-primes", "2,3", "--with-st"])
    assert code == 0
    blob = json.loads(out)
    assert blob["request"]["exclude_primes"] == "2,3"
    assert blob["s_value"] is not None and blob["t_value"] is not None


def test_count_deterministic_output(capsys):
    _, first = _run(capsys, ["count", "--k", "1", "--bound", "15"])
    _, second = _run(capsys, ["count", "--k", "1", "--bound", "15"])
    assert first == second


def test_count_timings_flag(capsys):
    code, out = _run(capsys, ["count", "--k", "1", "--bound", "5", "--timings"])
    assert code == 0
    assert "timings" in json.loads(out)


def test_capacity_exit_code(tmp_path, capsys, monkeypatch):
    # the oracle's guard is its r_4 table's: one step past B = 518
    code = main(["count", "--k", "1", "--bound", "519", "--method", "oracle"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("capacity guard: ") and len(err.strip().splitlines()) == 1, err
    # k >= 5, once refused, runs at a small bound
    code, out = _run(capsys, ["count", "--k", "5", "--bound", "10", "--method", "oracle"])
    blob = json.loads(out)
    assert code == 0
    assert blob["n_oracle"] == blob["n_mobius"] > 0
    # k = 2 takes the model under auto; the brute-force r_8 table stops at B = 381
    for source, want in (("auto", 0), ("exact", 3)):
        code, _ = _run(capsys, ["count", "--k", "2", "--bound", "382",
                                "--r-source", source])
        assert code == want, source

    # the loop over n stops at B = 10^6, the prime sieve at a cutoff of 10^6
    # and counts at k = 10^4: one step past each, a bound of 10^9 and k = 10^6
    # are refused before any allocation
    for argv in (["count", "--k", "1", "--bound", "1000000000"],
                 ["count", "--k", "1", "--bound", "1000001"],
                 ["count", "--k", "10001", "--bound", "2"],
                 ["count", "--k", "1000000", "--bound", "3"],
                 ["predict", "--k", "1", "--prime-cutoff", "1000001"],
                 ["local-factors", "--k", "1", "--prime-cutoff", "1000001"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3, argv
        assert err.startswith("capacity guard: ") and "guarded" in err, (argv, err)
    # compare and table take G over every prime and have no cutoff to guard
    for command in ("compare", "table"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--k", "1", "--bounds", "10", "--prime-cutoff", "1000001"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --prime-cutoff 1000001" in capsys.readouterr().err

    # a count too long for str() is refused before the output is opened
    path = tmp_path / "count.json"
    code = main(["count", "--k", "1000", "--bound", "50", "--r-source", "rstar",
                 "--out", str(path)])
    err = capsys.readouterr().err
    assert code == 3 and not path.exists()
    assert err.startswith("capacity guard: ") and len(err.strip().splitlines()) == 1, err

    # a bound whose arrays do not fit in memory is a capacity refusal too
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "count_report", out_of_memory)
    code = main(["count", "--k", "1", "--bound", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("capacity guard: ") and "Traceback" not in err, err
    assert len(err.strip().splitlines()) == 1, err


def _assert_usage_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, argv
    assert err.strip() and "Traceback" not in err, (argv, err)
    assert len(err.strip().splitlines()) == 1, (argv, err)


BAD_BOUNDS = [
    ["predict", "--bounds", "a"],
    ["predict", "--bounds", "0"],
    ["predict", "--bounds", "-2"],
    ["predict", "--bounds", "10,10"],
    ["compare", "--bounds", "1"],
    ["compare", "--bounds", "20,a"],
    # an empty token is an error, as in --exclude-primes
    ["compare", "--bounds", "20,,30"],
    ["predict", "--bounds", ","],
    ["table", "--bounds", "1"],
    ["table", "--bounds", "5,20,5"],
    ["count", "--bound", "0"],
    # not a bound: the scaled model is exact only for k <= 2
    ["count", "--k", "3", "--bound", "5", "--r-source", "jacobi"],
    # k too large for the float powers of gp_special, and of p = 2 at k = 10^6
    ["local-factors", "--k", "20", "--prime-cutoff", "200"],
    ["predict", "--k", "1000000"],
    ["local-factors", "--k", "1000000"],
    # not a bound: no prime lies below the cutoff
    ["local-factors", "--prime-cutoff", "0"],
    ["local-factors", "--prime-cutoff", "-5"],
    # not a bound: the unscaled model would be printed as the tuple count
    ["compare", "--k", "1", "--bounds", "50,99", "--format", "csv", "--r-source", "rstar"],
    ["table", "--k", "1", "--bounds", "50,99", "--r-source", "rstar"],
    # the leading constant below the normal floats, from k = 109 on
    ["predict", "--k", "109"],
    ["compare", "--k", "128", "--bounds", "2"],
    ["table", "--k", "129", "--bounds", "2", "--exclude-primes", "2"],
]


def test_usage_exit_codes(capsys):
    code, _ = _run(capsys, ["compare", "--k", "1"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--k", "1"])  # missing --bound
    assert exc.value.code == 2
    capsys.readouterr()  # argparse's usage text
    for argv in BAD_BOUNDS:
        _assert_usage_error(capsys, argv)
    # B = 1 is a valid prediction bound (the main terms are 0 there)
    code, out = _run(capsys, ["predict", "--prime-cutoff", "200", "--bounds", "1"])
    assert code == 0
    assert json.loads(out)["predictions"][0]["n_main"] == 0


def test_large_k_is_refused_before_the_centre_polynomials(capsys, monkeypatch):
    # p = 2 overflows from k = 129 on, before any coefficient list of about 10k
    def refuse(k, in_s):
        raise AssertionError(f"centre coefficients built for k = {k}")

    monkeypatch.setattr(analytic, "_centre_coefficients", refuse)
    for argv in (["predict", "--k", "1000000"], ["local-factors", "--k", "1000000"],
                 ["predict", "--k", "129", "--prime-cutoff", "100"]):
        _assert_usage_error(capsys, argv)


def test_leading_constant_at_the_edge_of_the_normal_floats(capsys):
    # k = 108 is the last k whose prefactor, 1.6e-305, is a normal float; from
    # k = 109 on predict, compare and table refuse, whatever the set
    for s in ("", "2", "2,3", "5,7"):
        code, out = _run(capsys, ["predict", "--k", "108", "--exclude-primes", s])
        assert code == 0 and json.loads(out)["leading_constant"] >= sys.float_info.min, s
        for k in range(109, 131):
            for command in ("predict", "compare", "table"):
                _assert_usage_error(capsys, [command, "--k", str(k), "--bounds", "2",
                                             "--exclude-primes", s])


def _assert_g_within_printed_bound(out, g):
    blob = json.loads(out, parse_float=Fraction)
    bound = blob["euler_product_tail_estimate"]
    assert 0 < bound <= Fraction(1, 10**14)
    assert abs(blob["euler_product"] / g - 1) <= bound


def test_predict_past_the_float_range_of_the_general_form(capsys, mp_euler_constant):
    # the odd primes raise no power of p above 1, so k = 20 runs, and its G
    # lies within the printed bound of the constant
    code, out = _run(capsys, ["predict", "--k", "20", "--prime-cutoff", "200"])
    assert code == 0
    _assert_g_within_printed_bound(out, mp_euler_constant(20, PrimeSet.empty()))


def test_predict_with_a_prime_of_the_set_above_the_cutoff(capsys, mp_euler_constant):
    # such a prime enters G through the centre polynomials, which raise no
    # power of p above 1, so it stays in the float range at any k predict takes
    for k, p in ((7, 1000003), (20, 999999999989)):
        code, out = _run(capsys, ["predict", "--k", str(k), "--prime-cutoff", "100",
                                  "--exclude-primes", str(p)])
        assert code == 0, (k, p)
        _assert_g_within_printed_bound(out, mp_euler_constant(k, PrimeSet.of(p)))


def test_predict_cutoff_is_only_checked_and_echoed(capsys):
    # G is taken over every prime: the cutoff is echoed, right after
    # exclude_primes, and moves no number printed, and it is still refused
    # below 100 (exit 2) and past the prime sieve's guard (exit 3)
    blobs = []
    for cutoff in (100, 10**4, 10**6):
        code, out = _run(capsys, ["predict", "--k", "1", "--exclude-primes", "5,7",
                                  "--bounds", "1000", "--prime-cutoff", str(cutoff)])
        blob = json.loads(out)
        assert code == 0 and list(blob)[3] == "prime_cutoff"
        assert blob.pop("prime_cutoff") == cutoff
        blobs.append(blob)
    assert blobs[0] == blobs[1] == blobs[2]
    assert main(["predict", "--k", "1", "--prime-cutoff", "99"]) == 2
    assert "at least 100" in capsys.readouterr().err
    assert main(["predict", "--k", "1", "--prime-cutoff", str(10**6 + 1)]) == 3
    assert "guarded" in capsys.readouterr().err
    # k is refused first, as while G was the product up to the cutoff
    assert main(["predict", "--k", "0", "--prime-cutoff", str(10**6 + 1)]) == 2
    capsys.readouterr()


def test_benchmark_checker_refuses_g_moved_by_ten_bounds(capsys, perfbench):
    # the benchmark's predict ops pass its checker as printed, and fail it
    # with G moved by ten times the printed bound, either way
    check = perfbench("check")
    refs = json.loads((Path(check.__file__).parent / "refs.json").read_text())
    checker = check.Checker(refs)
    for k, s in ((1, ""), (1, "2,3"), (2, "2"), (2, "5,7")):
        argv = ["predict", "--k", str(k), "--prime-cutoff", "1000000",
                "--bounds", "1000,100000"] + (["--exclude-primes", s] if s else [])
        code, out = _run(capsys, argv)
        [err] = checker.check(argv, code, out)
        blob = json.loads(out)
        bound = blob["euler_product_tail_estimate"]
        assert err <= bound <= 1e-14, (k, s)
        for sign in (1, -1):
            blob["euler_product"] = float(f"{blob['euler_product'] * (1 + sign * 10 * bound):.15g}")
            with pytest.raises(check.CheckFailed, match="exceeds its tail estimate"):
                checker.check(argv, code, json.dumps(blob, indent=2))
            blob = json.loads(out)


def test_bad_prime_set_is_usage_error(capsys):
    for primes in ("4", "x", "2,x", "2,,3", "1000000000000000003"):
        _assert_usage_error(capsys, ["count", "--k", "1", "--bound", "5",
                                     "--exclude-primes", primes])


def test_count_k2_exact_route(capsys):
    for source, name in (("exact", "exact_bruteforce"), ("auto", "jacobi_k2")):
        code, out = _run(capsys, ["count", "--k", "2", "--bound", "4",
                                  "--method", "both", "--r-source", source])
        assert code == 0
        blob = json.loads(out)
        assert blob["request"]["r_source"] == name
        assert blob["n_oracle"] == blob["n_mobius"] > 0


def test_predict_deterministic(capsys):
    argv = ["predict", "--k", "1", "--prime-cutoff", "500", "--bounds", "50"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second
    assert json.loads(first) == json.loads(second)


def test_predict_json(capsys):
    code, out = _run(capsys, ["predict", "--k", "1", "--prime-cutoff", "1000",
                              "--bounds", "100,1000"])
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == "v1"
    assert abs(blob["prefactor"] - 3.32762949032283) < 1e-9
    assert len(blob["predictions"]) == 2
    assert blob["euler_product"] > 0


def test_local_factors_csv(capsys):
    code, out = _run(capsys, ["local-factors", "--k", "1",
                              "--prime-cutoff", "30"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,in_S,gp_value,gp_special_value,abs_diff"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3", "5", "7", "11", "13", "17",
                                    "19", "23", "29"]
    by_p = {int(r[0]): r for r in rows}
    assert float(by_p[2][4]) > 0.1  # p=2 disagreement is reported
    assert float(by_p[3][4]) < 1e-12


def test_compare_csv(capsys):
    code, out = _run(capsys, ["compare", "--k", "1", "--bounds", "20,40",
                              "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "B,tuples,points,n_main,ratio_tuples,ratio_points"
    assert len(lines) == 3
    b20 = lines[1].split(",")
    assert int(b20[1]) == 2 * int(b20[2])
    assert 0.2 < float(b20[4]) < 5.0
    # compare, table and predict print one n_main, digit for digit; these
    # bounds are where a second main-term expression differs in the last digit
    for k, primes, bounds in ((1, "", "34,77"), (1, "2,3", "10"), (2, "", "50")):
        tail = ["--k", str(k), "--bounds", bounds, "--exclude-primes", primes]
        _, out = _run(capsys, ["compare", "--format", "csv"] + tail)
        via_compare = [line.split(",")[3] for line in out.strip().split("\n")[1:]]
        _, out = _run(capsys, ["table"] + tail)
        via_table = [line.split(",")[3] for line in out.strip().split("\n")[1:]]
        _, out = _run(capsys, ["predict"] + tail)
        via_predict = [f"{p['n_main']:.15g}" for p in json.loads(out)["predictions"]]
        assert via_compare == via_table == via_predict, (k, primes, bounds)


def test_table_csv(capsys):
    code, out = _run(capsys, ["table", "--k", "1", "--bounds", "10,20"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("B,tuples,points,n_main")
    assert len(lines) == 3


def test_verify_suites(capsys):
    code, out = _run(capsys, ["verify", "--suite", "routes"])
    assert code == 0
    assert "ok - routes" in out
    code, out = _run(capsys, ["verify", "--suite", "all"])
    assert code == 0
    lines = out.splitlines()
    assert all(f"ok - {suite}" in lines for suite in ("mpoints", "routes", "euler"))
    assert "  checked 491512 points of height <= 40 (112 coordinate classes)" in lines
    assert "  series vs closed worst abs diff 1.33e-15" in lines
    assert "  series vs closed form for p <= 10^4 worst rel diff 4.44e-16" in lines


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = _run(capsys, ["count", "--k", "1", "--bound", "10",
                              "--out", str(path)])
    assert code == 0 and out == ""
    blob = json.loads(path.read_text())
    assert blob["schema"] == "v1"
    _assert_usage_error(capsys, ["count", "--bound", "5",
                                 "--out", str(tmp_path / "missing" / "x.json")])


def test_config_from_args_round_trip(capsys):
    args = build_parser().parse_args(
        ["compare", "--k", "2", "--bounds", "5,10", "--exclude-primes", "2",
         "--format", "csv"]
    )
    cfg = config_from_args(args)
    assert cfg.command == "compare"
    assert cfg.k == 2
    assert cfg.bounds == [5, 10]
    assert 2 in cfg.exclude_primes
    assert cfg.format == "csv"
    assert cfg.r_source == RSource.JACOBI  # auto: the scaled model at k = 2
    assert run(cfg) == 0
    capsys.readouterr()
    # the prime-cutoff defaults: 100 for local-factors, 100000 for predict
    for argv, check in (
        (["local-factors", "--k", "1"],
         lambda out: len(out.strip().split("\n")) == 1 + 25),  # primes <= 100
        (["predict", "--k", "1", "--bounds", "2"],
         lambda out: json.loads(out)["prime_cutoff"] == 100000),
    ):
        assert main(argv) == 0
        via_main = capsys.readouterr().out
        assert run(config_from_args(build_parser().parse_args(argv))) == 0
        via_run = capsys.readouterr().out
        assert via_main == via_run and check(via_main), argv


def test_artifacts_are_written_in_pieces(tmp_path, capsys, monkeypatch):
    # the JSON lines or the CSV rows are joined into pieces, and the pieces
    # make up the text one json.dumps string or one join would give
    pieces = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_JSON_LINES_PER_PIECE", 10)  # predict writes 27 lines
    monkeypatch.setattr(cli, "_CSV_ROWS_PER_PIECE", 50)
    monkeypatch.setattr(cli, "_emit", lambda text, fh: (pieces.append(text), emit(text, fh)))
    for argv in (["count", "--k", "1", "--bound", "300", "--with-st"],
                 ["predict", "--k", "1", "--bounds", "10,100"]):
        pieces.clear()
        code, out = _run(capsys, argv)
        assert code == 0 and len(pieces) > 1 and "".join(pieces) == out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    pieces.clear()
    code, out = _run(capsys, ["local-factors", "--k", "1", "--prime-cutoff", "1000"])
    assert code == 0 and "".join(pieces) == out
    assert [len(piece.splitlines()) for piece in pieces] == [50, 50, 50, 19]  # 1 + 168 rows

    # the rounded copy leaves its input as it was
    rep = {"n_star_values": {e: 2 * e for e in range(1, 100)}, "ratio": 1 / 3}
    rounded = cli._round_floats(rep)
    assert rounded["ratio"] == 0.333333333333333 and rep["ratio"] == 1 / 3


def test_count_pieces_hold_at_most_a_piece_of_lines(capsys, monkeypatch):
    # the count's n_star_values is written a step at a time, and a step with
    # more keys than a piece holds (6,077 at B = 2 * 10^4) is split
    pieces = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda text, fh: (pieces.append(text), emit(text, fh)))
    code, out = _run(capsys, ["count", "--k", "1", "--bound", "20000"])
    assert code == 0 and "".join(pieces) == out
    lines = [piece.count("\n") for piece in pieces]
    assert max(lines) <= cli._JSON_LINES_PER_PIECE and sum(lines) == len(out.splitlines())
    assert len(json.loads(out)["n_star_values"]) == 12160 and len(pieces) >= 3


def test_main_parses_with_one_parser(capsys):
    # main keeps one parser a process; a parse leaves no option behind for
    # the next, whose output is that of a fresh parser
    assert main(["count", "--k", "1", "--bound", "30", "--with-st", "--timings",
                 "--exclude-primes", "2,3"]) == 0
    capsys.readouterr()
    argv = ["count", "--k", "1", "--bound", "30"]
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert run(config_from_args(build_parser().parse_args(argv))) == 0
    assert second == capsys.readouterr().out
    assert cli._parser() is cli._parser()


def test_closed_stdout_exits_141_without_a_traceback():
    # the rows up to 10^5, about 480 KB, are more than a pipe holds, so the
    # command is still writing when the reader closes the pipe after one line
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "semicubic.cli", "local-factors", "--prime-cutoff", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"p,in_S,gp_value,gp_special_value,abs_diff\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_2_without_a_traceback():
    # every write to /dev/full fails with ENOSPC: one usage line, as a failed
    # --out gives, whether the command writes in pieces or prints
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in (["count", "--k", "1", "--bound", "50"],
                 ["predict", "--k", "1", "--bounds", "10"],
                 ["local-factors", "--prime-cutoff", "100000"],
                 ["verify", "--suite", "euler"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "semicubic.cli", *argv],
                                  stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
        err = proc.stderr.decode()
        assert proc.returncode == 2, (argv, err)
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1, (argv, err)
        assert err.startswith("invalid arguments: cannot write stdout: "), (argv, err)


def test_local_factors_overflow_writes_nothing(tmp_path, capsys):
    # k = 8 overflows past p = 65521, after 6542 rows: every check runs
    # before the first row, so nothing is written, to stdout or to a file
    path = tmp_path / "lf.csv"
    for argv in (["local-factors", "--k", "8", "--prime-cutoff", "100000"],
                 ["local-factors", "--k", "8", "--prime-cutoff", "100000",
                  "--exclude-primes", "99991", "--out", str(path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("invalid arguments: --k or a bound is too large")
    assert not path.exists()
