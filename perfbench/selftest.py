"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

* the same seed gives the same argv, and every argv the seeds generate has
  a pinned reference;
* traced and untraced workers print byte-identical outputs;
* the checker is live: an off-by-one count, a G outside its own tail
  estimate and `verify` exiting 1 each count as a failed op.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import Checker, count_key, local_factors_key, parse_argv, row_key  # noqa: E402
from run import Rep, Tally, spawn  # noqa: E402
from workloads import WORKLOADS, ops_for  # noqa: E402

with open(os.path.join(HERE, "refs.json")) as _fh:
    REFS = json.load(_fh)

# crosscheck's ops at one seed, plus a cold predict: covers every layer
SAMPLE_OPS = ops_for("crosscheck", 0) + [ops_for("constants", 0)[1]]


def check_seeded_argv():
    for workload in WORKLOADS:
        assert ops_for(workload, 7) == ops_for(workload, 7), workload
        assert len({json.dumps(ops_for(workload, s)) for s in range(10)}) > 1, workload


def check_reference_coverage():
    checker = Checker(REFS)
    for workload in WORKLOADS:
        for seed in range(300):
            for argv in ops_for(workload, seed):
                op = parse_argv(argv)
                cmd = op["cmd"]
                if cmd == "count":
                    assert count_key(op) in REFS["count"], argv
                if cmd in ("table", "compare"):
                    for b in op["bounds"]:
                        assert row_key(cmd, op["k"], b, op["S"]) in REFS[cmd], argv
                if cmd in ("predict", "table", "compare"):
                    checker.g_ref(op["k"], op["S"])
                if cmd == "local-factors":
                    key = local_factors_key(op["k"], op["cutoff"], op["S"])
                    assert key in REFS["local_factors"], argv


def fake_rep(records: list) -> Rep:
    lines = [json.dumps(r) for r in records] + [json.dumps({"ready_ns": 0})]
    proc = subprocess.CompletedProcess([], 0, "\n".join(lines) + "\n", "")
    return Rep(0, proc, [r["argv"] for r in records], 0.0)


def check_traced_outputs_identical_and_checker_live():
    plain = spawn({"ops": SAMPLE_OPS, "trace": False})
    traced = spawn({"ops": SAMPLE_OPS, "trace": True})
    assert plain.complete and traced.complete, (plain.stderr, traced.stderr)
    assert [r["out"] for r in plain.records] == [r["out"] for r in traced.records]
    assert traced.final["trace"]["nodes"], "the traced worker recorded no spans"

    tally = Tally(Checker(REFS))
    tally.judge(plain)
    assert tally.failed == 0, tally.reasons
    by_cmd = {r["argv"][0]: r for r in plain.records}

    def must_fail(record, what):
        before = tally.failed
        tally.judge(fake_rep([record]))
        assert tally.failed == before + 1, f"checker missed: {what}"

    count = next(r for r in plain.records if r["argv"][0] == "count")
    d = json.loads(count["out"])
    d["n_mobius"] += 1
    must_fail(dict(count, out=json.dumps(d)), "off-by-one count")

    predict = by_cmd["predict"]
    d = json.loads(predict["out"])
    d["euler_product"] *= 1 + 2 * d["euler_product_tail_estimate"]
    must_fail(dict(predict, out=json.dumps(d)), "G outside its tail estimate")

    must_fail(dict(by_cmd["verify"], rc=1), "verify exiting 1")
    assert tally.attempted == len(SAMPLE_OPS) + 3


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("check_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
