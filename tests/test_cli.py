import json

import pytest

from semicubic.cli import build_parser, config_from_args, main, run
from semicubic.counting import CountReport


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
    rep = CountReport.from_json_dict(blob)
    assert rep.n_mobius == blob["n_mobius"]
    assert rep.request.k == 1


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


def test_capacity_exit_code(capsys):
    code, _ = _run(capsys, ["count", "--k", "1", "--bound", "200",
                            "--method", "oracle"])
    assert code == 3


def _assert_usage_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, argv
    assert err.strip() and "Traceback" not in err, (argv, err)


BAD_BOUNDS = [
    ["predict", "--bounds", "a"],
    ["predict", "--bounds", "0"],
    ["predict", "--bounds", "-2"],
    ["predict", "--bounds", "10,10"],
    ["compare", "--bounds", "1"],
    ["compare", "--bounds", "20,a"],
    ["table", "--bounds", "1"],
    ["table", "--bounds", "5,20,5"],
    ["count", "--bound", "0"],
]


def test_usage_exit_codes(capsys):
    code, _ = _run(capsys, ["compare", "--k", "1"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--k", "1"])  # missing --bound
    assert exc.value.code == 2
    for argv in BAD_BOUNDS:
        _assert_usage_error(capsys, argv)
    # B = 1 is a valid prediction bound (the main terms are 0 there)
    code, out = _run(capsys, ["predict", "--prime-cutoff", "200", "--bounds", "1"])
    assert code == 0
    assert json.loads(out)["predictions"][0]["n_main"] == 0


def test_bad_prime_set_is_usage_error(capsys):
    for primes in ("4", "x", "2,x", "2,,3"):
        _assert_usage_error(capsys, ["count", "--k", "1", "--bound", "5",
                                     "--exclude-primes", primes])


def test_count_k2_exact_route(capsys):
    code, out = _run(capsys, ["count", "--k", "2", "--bound", "4",
                              "--method", "both"])
    assert code == 0
    blob = json.loads(out)
    assert blob["request"]["r_source"] == "exact_bruteforce"
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
                              "--prime-cutoff", "500", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "B,tuples,points,n_main,ratio_tuples,ratio_points"
    assert len(lines) == 3
    b20 = lines[1].split(",")
    assert int(b20[1]) == 2 * int(b20[2])
    assert 0.2 < float(b20[4]) < 5.0


def test_table_csv(capsys):
    code, out = _run(capsys, ["table", "--k", "1", "--bounds", "10,20",
                              "--prime-cutoff", "500"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("B,tuples,points,n_main")
    assert len(lines) == 3


def test_verify_suites(capsys):
    code, out = _run(capsys, ["verify", "--suite", "routes"])
    assert code == 0
    assert "ok - routes" in out
    code, out = _run(capsys, ["verify", "--suite", "euler"])
    assert code == 0
    assert "ok - euler" in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = _run(capsys, ["count", "--k", "1", "--bound", "10",
                              "--out", str(path)])
    assert code == 0 and out == ""
    blob = json.loads(path.read_text())
    assert blob["schema"] == "v1"


def test_config_from_args_round_trip():
    args = build_parser().parse_args(
        ["compare", "--k", "2", "--bounds", "5,10", "--exclude-primes", "2",
         "--format", "csv"]
    )
    cfg = config_from_args(args)
    assert cfg.command == "compare"
    assert cfg.k == 2
    assert cfg.bounds == [5, 10]
    assert 2 in cfg.exclude_primes
    assert cfg.output_format == "csv"
    assert run(cfg) == 0
