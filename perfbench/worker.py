"""One rep of a workload, in a fresh interpreter as each CLI invocation is.

Reads a job from stdin: {"ops": [argv, ...], "trace": bool, "setup_only":
bool}.  Imports semicubic from the checkout's src/ and takes the ready time
on CLOCK_MONOTONIC (shared by all processes) before anything else, so the
parent can measure set-up from spawn to the first op.  Then runs the
machine-speed probe (calibrate.py), and, unless only set-up is measured,
runs the ops in sequence through semicubic.cli.main with stdout captured,
probing again after each op.  Writes one JSON line per op, then a final line
with the ready time, the probes, peak RSS, CPU time and, when tracing, the
span record.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from semicubic import cli  # noqa: E402

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    import resource

    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    import contextlib
    import io
    import json
    import resource

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"semicubic was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    from calibrate import PROBE_MIN_S, probe, probe_seconds

    job = json.loads(sys.stdin.read())
    out = sys.stdout
    probes = [probe(PROBE_MIN_S)]  # also rescales this process's set-up time
    final = {"ready_ns": READY_NS, "probes": probes}
    if job.get("setup_only"):
        out.write(json.dumps(final) + "\n")
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("semicubic")

    cpu_s = 0.0
    for argv in job["ops"]:
        buf = io.StringIO()
        error = None
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("op." + argv[0], cli.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crashing op is recorded as failed, not fatal
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu_s += _cpu_s() - cpu0
        out.write(json.dumps({"argv": argv, "rc": rc, "wall_s": wall,
                              "out": buf.getvalue(), "error": error}) + "\n")
        out.flush()
        probes.append(probe(probe_seconds(wall)))
    final["cpu_s"] = cpu_s
    final["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        final["trace"] = tracer.record()
    out.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
