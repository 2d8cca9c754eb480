"""semicubic benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload count-k1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it imports the program from src/.  Load
model: a closed loop with one client.  Each rep is a fresh Python process
(worker.py) that runs the workload's ops in sequence through
semicubic.cli.main, so the module caches start cold as they do for each CLI
invocation.  Reps repeat while another would end nearer the --seconds
deadline than stopping does.  Every op's output is checked against
refs.json (check.py); error_rate is failed ops over attempted ops.

--trace 0 reports the end-to-end metrics, medians over the reps:
  wall_norm_s  the ops' wall time in one rep, rescaled by the machine speed
               the rep's probes measured (calibrate.rescale): seconds on the
               reference machine
  setup_s      spawn until the first op can start (interpreter + import),
               rescaled by the probe run right after it, over several
               set-up-only spawns and every rep
  peak_rss_mb  the rep process's peak resident memory
  g_rel_err    max over the rep's Euler products of |G - G_ref| / G_ref
It also prints the raw times wall_s and setup_raw_s and the probe speed.
--trace 1 alternates untraced and traced reps and reports the per-layer
metrics of tracer.py (medians over the traced reps), the per-op wall time
cli.<command>_s, cli.cpu_s from the untraced reps, and trace.overhead_s,
traced minus untraced wall_norm_s.  The traced reps' spans are written to
perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The lines before it give, per metric, the median, the largest value and the
sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

from calibrate import rescale  # noqa: E402
from check import CheckFailed, Checker  # noqa: E402
from tracer import layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS, ops_for  # noqa: E402

SETUP_SPAWNS = 7          # set-up-only spawns measured per run, besides the reps
REP_TIMEOUT_S = 60        # a set-up spawn slower than this is killed
RUN_BUDGET_S = 160        # no rep starts once it could end past this; a rep
                          # still running 10 s past it is killed, its ops fail
END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "g_rel_err": "ratio"}
RAW_UNITS = {"wall_s": "s", "setup_raw_s": "s", "probe_units_per_s": "1/s"}  # printed only


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Rep:
    """One worker process: its ops' records and its final line."""

    def __init__(self, spawn_ns: int, proc: subprocess.CompletedProcess | None,
                 ops: list, elapsed_s: float):
        self.elapsed_s = elapsed_s
        self.records, self.final = [], None
        if proc is not None and proc.returncode == 0:
            try:
                lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
            except ValueError:  # a stray write to the worker's stdout
                lines = []
            if lines and "ready_ns" in lines[-1]:
                self.final = lines.pop()
                self.records = lines
        self.stderr = proc.stderr if proc is not None else "timed out"
        self.ops = ops
        self.setup_raw_s = ((self.final["ready_ns"] - spawn_ns) / 1e9
                            if self.final is not None else None)

    @property
    def complete(self) -> bool:
        return self.final is not None and len(self.records) == len(self.ops)

    @property
    def wall_s(self) -> float:
        return sum(r["wall_s"] for r in self.records)

    @property
    def speed(self) -> float:
        """Probe units per second over the rep's probes."""
        probes = self.final["probes"]
        return sum(u for u, _ in probes) / sum(s for _, s in probes)

    @property
    def wall_norm_s(self) -> float:
        return rescale(self.wall_s, self.speed)

    @property
    def setup_s(self) -> float:
        """Set-up time rescaled by the probe run right after it."""
        units, seconds = self.final["probes"][0]
        return rescale(self.setup_raw_s, units / seconds)


def spawn(job: dict, timeout: float = REP_TIMEOUT_S) -> Rep:
    # .pyc files are written on the first spawn, as a default Python install
    # does, so set-up does not include compiling the sources
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    spawn_ns = _now_ns()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    return Rep(spawn_ns, proc, job.get("ops", []), time.perf_counter() - start)


class Tally:
    """Checks each rep's ops and counts attempts and failures."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = self.failed = 0
        self.reasons: list = []

    def judge(self, rep: Rep) -> list:
        """Check every op of the rep; return the Euler-product errors."""
        errs = []
        self.attempted += len(rep.ops)
        if not rep.complete:
            self.failed += len(rep.ops) - len(rep.records)
            self.reasons.append(f"rep did not finish: {rep.stderr.strip()[-300:]}")
        for rec in rep.records:
            try:
                if rec["error"]:
                    raise CheckFailed(rec["error"])
                errs += self.checker.check(rec["argv"], rec["rc"], rec["out"])
            except Exception as exc:  # any malformed output is a failed op
                self.failed += 1
                self.reasons.append(f"{' '.join(rec['argv'])}: {type(exc).__name__} {exc}")
        return errs

    def mismatch(self, what: str):
        self.failed += 1
        self.reasons.append(what)


def summary(name: str, values: list, unit: str) -> str:
    return (f"{name:36s} median {statistics.median(values):.6g} {unit}  "
            f"max {max(values):.6g}  n={len(values)}")


def _timeout(t_start: float) -> float:
    """A rep may run until the run's time budget is spent."""
    return max(1.0, RUN_BUDGET_S + 10 - (time.perf_counter() - t_start))


def _another(deadline: float, last_s: float, t_start: float) -> bool:
    """Start another rep if it would end nearer the deadline than stopping
    now does, and within the run's time budget."""
    now = time.perf_counter()
    return now + last_s / 2 < deadline and now - t_start + last_s < RUN_BUDGET_S


def run_untraced(ops: list, seconds: float, tally: Tally, t_start: float) -> dict:
    spawn({"setup_only": True})  # writes the .pyc files; not measured
    setup_reps = [spawn({"setup_only": True}) for _ in range(SETUP_SPAWNS)]
    samples = {"wall_s": [], "wall_norm_s": [], "peak_rss_mb": [], "g_rel_err": [],
               "probe_units_per_s": []}
    deadline = time.perf_counter() + seconds
    while True:
        rep = spawn({"ops": ops, "trace": False}, _timeout(t_start))
        errs = tally.judge(rep)
        if rep.complete:
            setup_reps.append(rep)
            samples["wall_s"].append(rep.wall_s)
            samples["wall_norm_s"].append(rep.wall_norm_s)
            samples["probe_units_per_s"].append(rep.speed)
            samples["peak_rss_mb"].append(rep.final["maxrss_kb"] / 1024)
            if errs:
                samples["g_rel_err"].append(float(max(errs)))
        if not _another(deadline, rep.elapsed_s, t_start):
            break
    done = [rep for rep in setup_reps if rep.final is not None]
    samples["setup_s"] = [rep.setup_s for rep in done]
    samples["setup_raw_s"] = [rep.setup_raw_s for rep in done]
    return samples


def run_traced(ops: list, seconds: float, tally: Tally, t_start: float, label: str) -> dict:
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        pair = [spawn({"ops": ops, "trace": trace}, _timeout(t_start))
                for trace in (False, True)]
        for rep in pair:
            tally.judge(rep)
        if all(rep.complete for rep in pair):
            if [r["out"] for r in pair[0].records] != [r["out"] for r in pair[1].records]:
                tally.mismatch("traced and untraced outputs differ")
            plain.append(pair[0])
            traced.append(pair[1])
        if not _another(deadline, sum(r.elapsed_s for r in pair), t_start):
            break
    if not traced:
        return {}
    samples: dict = {}
    for rep in traced:
        per_rep = layer_metrics(rep.final["trace"])
        for rec in rep.records:
            key = f"cli.{rec['argv'][0].replace('-', '_')}_s"
            per_rep[key] = per_rep.get(key, 0.0) + rec["wall_s"]
        for key, value in per_rep.items():
            samples.setdefault(key, []).append(value)
    for cmd in ("count", "table", "predict", "local_factors", "verify", "compare"):
        samples.setdefault(f"cli.{cmd}_s", [0.0] * len(traced))
    samples["cli.cpu_s"] = [rep.final["cpu_s"] for rep in plain]
    overhead = (statistics.median(r.wall_norm_s for r in traced)
                - statistics.median(r.wall_norm_s for r in plain))
    samples["trace.overhead_s"] = [overhead]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{label}.json"), "w") as fh:
        json.dump({"ops": ops, "reps": [rep.final["trace"] for rep in traced]}, fh)
    by_name: dict = {}
    for node in traced[-1].final["trace"]["nodes"]:
        self_s, calls = by_name.get(node["name"], (0.0, 0))
        by_name[node["name"]] = (self_s + node["self_s"], calls + node["calls"])
    print("self time by callable (last traced rep):")
    for name, (self_s, calls) in sorted(by_name.items(), key=lambda kv: -kv[1][0])[:12]:
        print(f"  {self_s:9.4f} s  {calls:9d} calls  {name}")
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "semicubic", "cli.py")):
        print(f"error: no semicubic sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "refs.json")) as fh:
        tally = Tally(Checker(json.load(fh)))
    ops = ops_for(args.workload, args.seed)
    for op in ops:
        print("op:", " ".join(op))

    if args.trace:
        samples = run_traced(ops, args.seconds, tally, t_start,
                             f"{args.workload}-seed{args.seed}")
        units = {key: unit_of(key) for key in samples}
    else:
        samples = run_untraced(ops, args.seconds, tally, t_start)
        units = END_TO_END_UNITS
    missing = [key for key in units if not samples.get(key)]
    if missing or not samples:
        print(f"error: no successful rep produced {', '.join(missing)}", file=sys.stderr)
        for reason in tally.reasons[:20]:
            print("  " + reason, file=sys.stderr)
        return 1

    for key in sorted(samples):
        print(summary(key, samples[key], {**RAW_UNITS, **units}[key]))
    print(f"{'error_rate':36s} {tally.failed}/{tally.attempted} ops failed")
    for reason in tally.reasons[:20]:
        print("FAILED " + reason)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": statistics.median(samples[key]), "unit": units[key]}
                    for key in sorted(units)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
