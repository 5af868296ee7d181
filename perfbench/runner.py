"""Runs flab CLI jobs inside one interpreter, one at a time.

    python3 perfbench/runner.py [--trace FILE]

The first stdout line reports where flab was imported from and the start-up
time: from the parent's ``PERFBENCH_SPAWN`` clock reading (CLOCK_MONOTONIC,
shared by parent and child) until ``flab.cli`` is imported.  Then each stdin
line holds one job, ``{"id": ..., "argv": [...]}``, answered by one stdout
line with the exit code, captured stdout and stderr, the job's wall time and
the process's peak resident memory so far.  With ``--trace`` the layer
tracer is installed after start-up and its spans are written to FILE when
stdin closes.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import flab  # noqa: E402
import flab.cli  # noqa: E402

T_FLAB = time.perf_counter()


def vm_hwm_kb() -> int:
    """Peak resident memory of this process so far."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv) -> int:
    trace_path = argv[1] if len(argv) == 2 and argv[0] == "--trace" else None
    if argv and trace_path is None:
        print("usage: runner.py [--trace FILE]", file=sys.stderr)
        return 2
    spawn = float(os.environ.get("PERFBENCH_SPAWN", T_START))
    proto = sys.stdout
    tracer = None
    if trace_path:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    proto.write(json.dumps({"flab": os.path.abspath(flab.__file__),
                            "startup_s": T_FLAB - spawn}) + "\n")
    proto.flush()
    for line in sys.stdin:
        job = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        # start every job from a collected heap, so its time does not depend
        # on the garbage of the job before it, which the seed's order decides
        gc.collect()
        if tracer:
            tracer.begin_job(job["id"])
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = flab.cli.main(job["argv"])
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_job()
        proto.write(json.dumps({"code": code, "out": out.getvalue(),
                                "err": err.getvalue(), "s": elapsed,
                                "hwm_kb": vm_hwm_kb()}) + "\n")
        proto.flush()
    if tracer:
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
