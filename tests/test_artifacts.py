"""Pinned digests of integer-only CLI artifacts.

The count JSON and the integer columns of the table CSV carry no floats,
so their bytes are platform-independent; any refactor of the counting
routes must leave them unchanged.  The digests were recorded before the
weight branches and the n loops of the counting module were merged.
"""

import contextlib
import functools
import hashlib
import io

import pytest

from semicubic import counting
from semicubic.cli import main

SETS = ("", "2", "2,3", "5,7")

COUNT_B97 = {
    ("auto", ""): "5e751558fd2eef089b683d8c840bacfd59b71e6b9c2109a5c40e5a1efdb7565f",
    ("auto", "2"): "d21d87f3f0ffd22a71a0f709aa4bfafa495444ff841879c5c18c15c0d0d4d441",
    ("auto", "2,3"): "b58f7c46230a6bf6d5ba79192cd085c355f62625432e559ea9f440197fe62f9d",
    ("auto", "5,7"): "c7a7acfa1d9533e83710aa599ffeb5171e5511e377b0634425a7f70cb1ed239f",
    ("exact", ""): "6f298d1d206d866f316d13fdace9c52306d6e8a66c3630427251e5eeae2484ef",
    ("exact", "2"): "aa2969c87d46d9ad4973dccd3f4e74ee0aa5a724743bfba4ca4cd988b08a3e70",
    ("exact", "2,3"): "798eb27ce7b160b7e3266f497c9b1e5d0f82cc79104663195e3f41bd1b8aa530",
    ("exact", "5,7"): "15fb9b39da62ac601795a08ec2945c279a89cf033b6b79ffb373c0032caf5c31",
    ("jacobi", ""): "5e751558fd2eef089b683d8c840bacfd59b71e6b9c2109a5c40e5a1efdb7565f",
    ("jacobi", "2"): "d21d87f3f0ffd22a71a0f709aa4bfafa495444ff841879c5c18c15c0d0d4d441",
    ("jacobi", "2,3"): "b58f7c46230a6bf6d5ba79192cd085c355f62625432e559ea9f440197fe62f9d",
    ("jacobi", "5,7"): "c7a7acfa1d9533e83710aa599ffeb5171e5511e377b0634425a7f70cb1ed239f",
    ("rstar", ""): "f357cee3aaaaa161ac7163ab7bb14a2364c4b44997fd6d024acf277eb5dbb357",
    ("rstar", "2"): "e706193c645bb4ac07fc8023ce7caadfd88257e8c60b162487933d3c65331826",
    ("rstar", "2,3"): "485e264c24b77a42511d7efb7739f64d7292d8e2f18b63a0943451bec2bcfa5d",
    ("rstar", "5,7"): "484fa35e9fade82e45df03653502638fbd7631c68e9b29ff7550af3c53c0ebee",
}

# B,tuples,s_sum,t_sum of `table --bounds 50,99,300`; auto is the k = 1
# divisor-sum weight, rstar the model without the factor 8
TABLE_INT_COLUMNS = {
    ("auto", ""): "bfd0557b87982441b61a41191efc3de3bb31d98c6ff5af7cc43ec1edd7117a2a",
    ("auto", "2"): "71bfc22b6b3b43a126ca674c36a03b4c758504bbef7f6993ab484775300ab0e6",
    ("auto", "2,3"): "c6f45cd26d4701ff91cb6e95844a3452751d2f68046bddd5556281b196644b04",
    ("auto", "5,7"): "a40d5c9fb039423910a31e9fe7dec5003f766c210b7efc43f1446742536accf3",
    ("rstar", ""): "43224692d3e2fcc15587b524124bcc515367d420b199c3ac50086733218634a7",
    ("rstar", "2"): "4ae5e8da132c335ee47315c1ceff8a4d6e89a2f7cfc4ebf7f11a45e77a510729",
    ("rstar", "2,3"): "23e82690ac0f0c933304eb878516122109ac6ff338286be3a8635162a9eb0a67",
    ("rstar", "5,7"): "f8546c33a85513a8a352446e42ad2c9bd7ae1880189ca48c557cda2ba0736dcf",
}


def _stdout(argv, s):
    if s:
        argv = argv + ["--exclude-primes", s]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("s", SETS)
def test_count_json_digests(s, monkeypatch):
    # the oracle is pure, and the same for every r-source: run it once per set
    monkeypatch.setattr(counting, "n_oracle", functools.lru_cache(counting.n_oracle))
    for source in ("auto", "exact", "jacobi", "rstar"):
        out = _stdout(["count", "--k", "1", "--bound", "97", "--method", "both",
                       "--with-st", "--r-source", source], s)
        assert _sha(out) == COUNT_B97[source, s], (source, s, out)


@pytest.mark.parametrize("s", SETS)
def test_table_integer_column_digests(s):
    for source in ("auto", "rstar"):
        out = _stdout(["table", "--k", "1", "--bounds", "50,99,300",
                       "--prime-cutoff", "100", "--r-source", source], s)
        rows = [line.split(",") for line in out.strip().split("\n")]
        cols = [rows[0].index(c) for c in ("B", "tuples", "s_sum", "t_sum")]
        text = "\n".join(",".join(r[i] for i in cols) for r in rows) + "\n"
        assert _sha(text) == TABLE_INT_COLUMNS[source, s], (source, s, text)
