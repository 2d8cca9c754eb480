"""Pinned digests of integer-only CLI artifacts.

The count JSON and the integer columns of the table CSV carry no floats,
so their bytes are platform-independent; any refactor of the counting
routes must leave them unchanged.  The CLI digests were recorded before the
weight branches and the n loops of the counting module were merged; the
mid-size library digests before counting moved to the cofactor side; the
k = 2 table digests with the brute-force r_8 table (`--r-source exact`),
before `auto` took the scaled model at k = 2; the k = 3 table digests
before the r_12 table was built by theta powering instead of 12 rounds of
convolution.
"""

import contextlib
import functools
import hashlib
import io
from fractions import Fraction

import pytest

from semicubic import counting
from semicubic.arith import PrimeSet
from semicubic.cli import main
from semicubic.counting import (
    CountRequest,
    RSource,
    count_report,
    n_star_by_divisor,
    s_sum,
    t_sum,
)

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
# divisor-sum weight, rstar the model without the factor 8 (table refuses
# rstar, so its text is rebuilt from count_report)
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

# the same columns of `table --k 2 --bounds 50,99`, asserted with auto
TABLE_K2_INT_COLUMNS = {
    "": "a3c723326a147ed68311eef862575ffccf3aec10ba0252d88f4c79e4e0ad8981",
    "2": "0dc19c3700f3bccb3266638d255d90756c1e3d0c368aaf946ea5680fdfa40962",
    "2,3": "855f6a63fff63f3a5cbaee0cc642408d6454da41d295448e8cdb439cf32789d7",
    "5,7": "cc60a40ad7370db9cbdac754cd42c167420b53aa101e83b22f5a8d012935e3e4",
}

# the same columns of `table --k 3 --bounds 60,120`: auto is the r_12 table
TABLE_K3_INT_COLUMNS = {
    "": "cc60bc6a82b05399209cbbd3febf5594cea9319ef98ab1693aa4a146f9b10358",
    "2": "f19e2f5193964a22435ddcdcf1cac824bd2fe7ed245d7924ab58fb0d55b74df4",
    "2,3": "735a25982967a260ae242fe59b409df805e50c1ee28d0c65c17659fee2d1d391",
    "5,7": "773c377c3610d2178bea1c487c6cae592a4745cc8bbaa4142d95f3a0bd186275",
}

# sha256 of repr((sorted(n_star_by_divisor(B).items()), s_sum(B, B^2), t_sum(B)))
MID_SIZE = {
    (1, Fraction(2000), "", "rstar_model"): "c6c0953ccc7e6e4417dacc2a7a64cbd3f28836c8c26df7eca816af0d7cd8d169",
    (1, Fraction(2000), "2", "rstar_model"): "eca50cd84c6585536603807cbf350db1d77984efa5c223f2aeb263f3a2e2584c",
    (1, Fraction(2000), "2,3", "rstar_model"): "62d03e93fee5ae911784395f7e79634bae9597fa938dac7edd8b2cacf590a07a",
    (1, Fraction(2000), "5,7", "rstar_model"): "ecb2ebbe3c71970ee7f4a585d76bc5a68d4b17049977ee5bd9da1b3782d6604a",
    (1, Fraction(4001, 2), "", "rstar_model"): "943461f0c39a46d946f42be0ef5ac153fb4b493b6d7f5041dccd61957da1b59f",
    (1, Fraction(4001, 2), "2", "rstar_model"): "fd5b911e09e5f463cdd97c730be3bac57e9d7531224cacc4ccafd466d9e63e8c",
    (1, Fraction(4001, 2), "2,3", "rstar_model"): "55ab315b5ea0e392aaddf62496440780e7400d9ab5bd7806a6fd43eb23e90c72",
    (1, Fraction(4001, 2), "5,7", "rstar_model"): "22c61d7f159217e3313b0c3921eaefda546e7f791a4d1bfca3dca930eee60215",
    (2, Fraction(60), "", "exact_bruteforce"): "7564cb15bc48f8fdd4e3877a36f5483c01391b4b75a06e39ef6f93a991ba5c55",
    (2, Fraction(60), "", "rstar_model"): "ee12b62cf17a6cd6b56cf7c67509ccf74941687008e840f85f10ad1772f73776",
    (3, Fraction(25), "", "exact_bruteforce"): "849b595b841e9e870a8f79af3be5bc4c6b4e1d3e03314077117347f05b101402",
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


def _table_int_columns(k, bounds, source, s):
    out = _stdout(["table", "--k", str(k), "--bounds", bounds, "--r-source", source], s)
    rows = [line.split(",") for line in out.strip().split("\n")]
    cols = [rows[0].index(c) for c in ("B", "tuples", "s_sum", "t_sum")]
    return "\n".join(",".join(r[i] for i in cols) for r in rows) + "\n"


def _rstar_int_columns(bounds, s):
    """The text _table_int_columns gave for --r-source rstar, from count_report."""
    s_set = PrimeSet.parse(s)
    rows = [count_report(CountRequest(k=1, bound=b, s_set=s_set, r_source=RSource.RSTAR),
                         with_st=True) for b in bounds]
    return "B,tuples,s_sum,t_sum\n" + "".join(
        f"{b},{r['tuples']},{r['s_value']},{r['t_value']}\n" for b, r in zip(bounds, rows))


@pytest.mark.parametrize("s", SETS)
def test_table_integer_column_digests(s):
    text = _table_int_columns(1, "50,99,300", "auto", s)
    assert _sha(text) == TABLE_INT_COLUMNS["auto", s], (s, text)
    text = _rstar_int_columns((50, 99, 300), s)
    assert _sha(text) == TABLE_INT_COLUMNS["rstar", s], (s, text)
    text = _table_int_columns(2, "50,99", "auto", s)
    assert _sha(text) == TABLE_K2_INT_COLUMNS[s], (s, text)
    text = _table_int_columns(3, "60,120", "auto", s)
    assert _sha(text) == TABLE_K3_INT_COLUMNS[s], (s, text)


@pytest.mark.parametrize("key", MID_SIZE, ids=lambda key: "-".join(map(str, key)))
def test_mid_size_library_digests(key):
    k, b, s, source = key
    s_set = PrimeSet.parse(s) if s else PrimeSet.empty()
    req = CountRequest(k=k, bound=b, s_set=s_set, r_source=RSource(source))
    blob = repr((sorted(n_star_by_divisor(b, req).items()), s_sum(b, b * b, req), t_sum(b, req)))
    assert _sha(blob) == MID_SIZE[key], key
