"""flab benchmark: the search, scan and polycert workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flab checkout; flab is imported from its ``src/``.
Every workload is closed loop with one client: one job at a time, each
started when the previous one has finished.

* ``search`` runs the 29-instance exact extremal table through
  ``flab.cli.main`` in one long-lived interpreter, as a sweep script would.
* ``scan`` and ``polycert`` run each job in a fresh interpreter, as a user
  of the ``flab`` command does.

Set-up (fresh import of flab, seeded input generation, a warm-up job) is
repeated SETUPS times and timed.  Then one whole pass over the job list
runs, and jobs are repeated while one is expected to end within
``--seconds`` of the pass's start.  Job times are scaled to a host of fixed
speed (see CAL_REF_S): ``pass_s`` sums each job's median scaled time and
``job_iqm_s`` is the interquartile mean of those medians.  Every output is
checked; a wrong exit code or output counts as a failed job.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics: one untraced pass, then one
pass with the layer tracer installed in the job processes, then the gf
microbench.  Per-job samples, the environment and the spans are written
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUPS = 5
JOB_TIMEOUT_S = 150
# A flab command-line invocation that also reports the process's own peak
# resident memory on its last stderr line.  VmHWM is read because ru_maxrss
# of a child started by vfork also counts the parent's memory.
LAUNCH = """import sys
from flab.cli import main
code = main()
with open("/proc/self/status") as fh:
    print(*[ln for ln in fh if ln.startswith("VmHWM")], end="",
          file=sys.stderr)
sys.exit(code)
"""

# Host-speed calibration.  The host's speed drifts by a fifth or more in
# phases lasting seconds to a minute, and the drift moves every job's wall
# time alike.  A fixed pure-Python loop of CAL_ROUNDS rounds is timed once
# at the start and again after each set-up and each job.  Each timed step is
# scaled by CAL_REF_S over the mean of the two loop times around it: its time
# on a host where the loop takes CAL_REF_S, about its median time on the
# 2-vCPU VM the benchmark was written on.  A change to flab moves the step
# times, not the loop.
CAL_ROUNDS = 60_000
CAL_REF_S = 0.012
# Repeats of jobs shorter than BURST_BELOW_S run BURST times in a row.
BURST_BELOW_S = 0.05
BURST = 5

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "job_iqm_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ns") or "_ns." in name:
        return "ns"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("bytes_parsed"):
        return "bytes"
    return "count"


def child_env(**extra) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update(extra)
    return env


# ---------------------------------------------------------------------------
# job execution


class Runner:
    """A runner.py child serving jobs over its stdin and stdout."""

    def __init__(self, trace_path: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "runner.py")]
        if trace_path:
            cmd += ["--trace", trace_path]
        spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(PERFBENCH_SPAWN=repr(spawn)), cwd=ROOT)
        hello = json.loads(self.proc.stdout.readline())
        self.flab_path = hello["flab"]
        self.startup_s = hello["startup_s"]

    def run(self, job_id, argv) -> dict:
        self.proc.stdin.write(json.dumps({"id": job_id, "argv": argv}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("job runner exited unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_fresh(argv) -> dict:
    """One job in a fresh interpreter; wall time includes its start-up."""
    t0 = time.perf_counter()
    try:
        r = subprocess.run([sys.executable, "-c", LAUNCH] + argv,
                           capture_output=True, text=True, env=child_env(),
                           cwd=ROOT, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"code": -1, "out": "", "err": "timeout",
                "s": time.perf_counter() - t0, "hwm_kb": 0}
    s = time.perf_counter() - t0
    err, _, last = r.stderr.rpartition("VmHWM:")
    hwm_kb = int(last.split()[0]) if last.strip() else 0
    return {"code": r.returncode, "out": r.stdout, "err": err, "s": s,
            "hwm_kb": hwm_kb}


def calibrate() -> float:
    """Wall time of the calibration loop, in seconds."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CAL_ROUNDS):
        acc = (acc + i * i) % 65521
        table[i & 255] = (i, acc)
    return time.perf_counter() - t0


class HostClock:
    """Runs jobs and scales their wall times to a host of fixed speed."""

    def __init__(self):
        calibrate()  # the first loop in a process runs cold
        self.last = calibrate()

    def scale(self, seconds) -> tuple[float, float]:
        """Time the loop after a step that took ``seconds``; returns the
        mean loop time around the step and the step's scaled time."""
        before, self.last = self.last, calibrate()
        cal = (before + self.last) / 2
        return cal, seconds * CAL_REF_S / cal

    def run(self, i, job, runner, reps=1) -> list[dict]:
        """Run job i reps times in a row; each result holds the wall time
        ``s``, the mean loop time around the whole run ``cal_s`` and the
        scaled time ``scaled_s``."""
        runs = [runner.run(i, job.argv) if runner else run_fresh(job.argv)
                for _ in range(reps)]
        cal, _ = self.scale(0.0)
        return [dict(r, id=job.id, err=r["err"][-500:], cal_s=cal,
                     scaled_s=r["s"] * CAL_REF_S / cal) for r in runs]


def run_pass(jobs, runner, clock=None):
    """Run every job once; returns (wall seconds, per-job results)."""
    clock = clock or HostClock()
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        results += clock.run(i, job, runner)
    return time.perf_counter() - t0, results


def run_repeats(jobs, runner, first, deadline, clock):
    """Repeat jobs while one is expected to end by the deadline, taking
    each job's time in the first pass, ``first``, as its expected time.
    The next job is one repeated the fewest times so far, the shortest of
    those.  A job expected to take under BURST_BELOW_S runs BURST times in
    a row, so the short jobs, among which the median job lies, get enough
    samples for a steady median.  Returns one job per result and the
    results."""
    expected = {r["id"]: r["s"] for r in first}
    reps = {job.id: BURST if expected[job.id] < BURST_BELOW_S else 1
            for job in jobs}
    visits = {job.id: 0 for job in jobs}
    done, results = [], []
    while True:
        left = deadline - time.perf_counter()
        fits = [(i, job) for i, job in enumerate(jobs)
                if expected[job.id] * reps[job.id] <= left]
        if not fits:
            return done, results
        i, job = min(fits, key=lambda ij: (visits[ij[1].id],
                                           expected[ij[1].id]))
        runs = clock.run(i, job, runner, reps[job.id])
        visits[job.id] += 1
        done += [job] * len(runs)
        results += runs


def run_traced_pass(workload, jobs):
    """Run every job once with the tracer; returns wall, results, spans,
    gf counts and the start-up time of each traced process."""
    tdir = os.path.join(WORK, "trace")
    os.makedirs(tdir, exist_ok=True)
    results, spans, gf_counts, startups = [], [], {}, []
    batches = [list(enumerate(jobs))] if workload == "search" else \
        [[(i, job)] for i, job in enumerate(jobs)]
    t0 = time.perf_counter()
    for batch in batches:
        path = os.path.join(tdir, f"spans-{batch[0][0]}.json")
        runner = Runner(trace_path=path)
        try:
            for i, job in batch:
                r = runner.run(i, job.argv)
                results.append(dict(r, id=job.id, err=r["err"][-500:]))
        finally:
            runner.close()
        startups.append(runner.startup_s)
        with open(path) as fh:
            dump = json.load(fh)
        offset = len(spans)
        for s in dump["spans"]:
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
            spans.append(s)
        gf_counts.update(dump["gf_counts"])
    wall = time.perf_counter() - t0
    return wall, results, spans, gf_counts, startups


# ---------------------------------------------------------------------------
# set-up


def fresh_import_flab():
    for name in [m for m in sys.modules
                 if m == "flab" or m.startswith("flab.")]:
        del sys.modules[name]
    return importlib.import_module("flab")


def setup(workload, seed):
    """Import flab, write the seeded inputs and warm up; returns the jobs,
    the search runner (None for fresh-interpreter workloads) and the path
    flab was imported from by the job processes."""
    fresh_import_flab()
    jobs = workloads.write_inputs(workloads.build_jobs(workload, seed),
                                  os.path.join(WORK, "inputs", workload))
    if workload == "search":
        runner = Runner()
        runner.run(-1, next(j for j in jobs if j.id == "K(2,2,1,2)").argv)
        return jobs, runner, runner.flab_path
    r = subprocess.run([sys.executable, "-c",
                        "import flab, flab.cli; print(flab.__file__)"],
                       capture_output=True, text=True, env=child_env(),
                       cwd=ROOT, timeout=JOB_TIMEOUT_S, check=True)
    return jobs, None, os.path.abspath(r.stdout.strip())


# ---------------------------------------------------------------------------
# checks


def load_digests(workload):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {})


def check_pass(results, jobs, frozen, first_outputs):
    """Set each result's "error" (None when right); returns the number of
    failed jobs."""
    failed = 0
    for res, job in zip(results, jobs):
        why = workloads.check_output(job, res["code"], res["out"])
        if why is None and frozen:
            want = frozen.get(job.id)
            if want != workloads.digest(res["out"]):
                why = "stdout digest differs from the frozen one"
        if why is None:
            prev = first_outputs.setdefault(job.id, res["out"])
            if prev != res["out"]:
                why = "stdout differs from the previous pass"
        res["error"] = why
        failed += why is not None
    return failed


# ---------------------------------------------------------------------------
# environment


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(flab_path) -> dict:
    return {"python": sys.version, "executable": sys.executable,
            "cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "git_commit": git_commit(), "flab_imported_from": flab_path}


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def measure(args, frozen, first_outputs):
    """Set up SETUPS times, run one whole untraced pass and, without
    ``--trace``, repeat jobs until ``--seconds`` have passed since the pass
    began.  Returns the jobs, the set-up times, the summed wall time of the
    pass's jobs (without the calibration loops between them), the results
    of every job run and the path flab was imported from."""
    runner = None
    setups, repeats = [], []
    clock = HostClock()
    try:
        for _ in range(SETUPS):
            if runner is not None:
                runner.close()
            t0 = time.perf_counter()
            jobs, runner, flab_path = setup(args.workload, args.seed)
            setups.append(clock.scale(time.perf_counter() - t0)[1])
        deadline = time.perf_counter() + args.seconds
        _, first = run_pass(jobs, runner, clock)
        check_pass(first, jobs, frozen, first_outputs)
        if not args.trace:
            done, repeats = run_repeats(jobs, runner, first, deadline,
                                        clock)
            check_pass(repeats, done, frozen, first_outputs)
    finally:
        if runner is not None:
            runner.close()
    return (jobs, setups, sum(r["s"] for r in first), first + repeats,
            flab_path)


def job_medians(results, key) -> dict:
    """Each job's median of r[key] over its samples, keyed by job id."""
    samples = {}
    for r in results:
        samples.setdefault(r["id"], []).append(r[key])
    return {k: statistics.median(v) for k, v in samples.items()}


def interquartile_mean(values) -> float:
    """Mean of the middle half of values.  Unlike the median it does not
    jump from one job's time to the next when the job times around the
    middle are far apart."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(setups, results, failed, attempted) -> dict:
    scaled = job_medians(results, "scaled_s").values()
    return {
        "setup_s": statistics.median(setups),
        "pass_s": sum(scaled),
        "job_iqm_s": interquartile_mean(scaled),
        "peak_rss_mb": max(r["hwm_kb"] for r in results) / 1024,
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(args, jobs, frozen, first_outputs, untraced_s, record):
    """One traced pass and the gf microbench; returns the per-layer values
    and the traced job results."""
    import tracer
    wall, traced, spans, gf_counts, startups = run_traced_pass(
        args.workload, jobs)
    check_pass(traced, jobs, frozen, first_outputs)
    bench = subprocess.run(
        [sys.executable, os.path.join(HERE, "microbench.py"),
         str(args.seed)], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=JOB_TIMEOUT_S, check=True)
    micro = json.loads(bench.stdout)
    want = load_digests("microbench").get(str(args.seed))
    if want and want != micro["checksum"]:
        micro["errors"].append("checksum differs from the frozen one")
    traced.append({"id": "gf-microbench", "code": 0, "s": 0.0,
                   "error": "; ".join(micro["errors"]) or None})
    values = dict(micro["metrics"])
    values.update(tracer.layer_metrics(spans, gf_counts))
    values["cli.startup_s"] = statistics.median(startups)
    values["trace.overhead_s"] = wall - untraced_s
    record.update(traced_pass_s=wall, microbench=micro)
    path = os.path.join(WORK, "results",
                        f"{args.workload}-seed{args.seed}-spans.json")
    with open(path, "w") as fh:
        json.dump({"spans": spans, "gf_counts": gf_counts}, fh)
    return values, traced


def brief(results) -> list[dict]:
    keys = ("id", "code", "s", "cal_s", "scaled_s", "error")
    return [{k: r[k] for k in keys if k in r} for r in results]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flab", "cli.py")):
        print(f"error: no flab sources under {SRC}; run from the root of "
              "a flab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    frozen = load_digests(args.workload) \
        if args.seed == workloads.DIGEST_SEED else {}
    first_outputs: dict[str, str] = {}
    jobs, setups, first_s, results, flab_path = measure(
        args, frozen, first_outputs)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(flab_path),
              "setup_scaled_samples_s": setups,
              "first_pass_job_s": first_s,
              "job_samples": len(results),
              "calibration": {"rounds": CAL_ROUNDS, "ref_s": CAL_REF_S},
              "job_median_s": job_medians(results, "s"),
              "job_median_scaled_s": job_medians(results, "scaled_s"),
              "jobs": brief(results)}
    env_ok = os.path.dirname(flab_path) == os.path.join(SRC, "flab")
    if not env_ok:
        print(f"error: flab was imported from {flab_path}, not {SRC}",
              file=sys.stderr)
    if args.trace:
        values, traced = per_layer(args, jobs, frozen, first_outputs,
                                   first_s, record)
        record["traced_jobs"] = brief(traced)
        results += traced
    failed = sum(r["error"] is not None for r in results)
    attempted = len(results)
    if not args.trace:
        values = end_to_end(setups, results, failed, attempted)
    metrics = {k: {"value": v, "unit": (per_layer_unit(k) if args.trace
                                        else END_TO_END_UNITS[k])}
               for k, v in values.items()}
    record.update(attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, metrics=metrics)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for r in results:
        if r["error"]:
            print(f"FAILED {r['id']}: {r['error']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} frac "
          f"({failed} of {attempted} jobs)")
    if not args.trace:
        wall = job_medians(results, "s").values()
        print(f"unscaled: pass = {sum(wall):.6g} s, job p50 = "
              f"{statistics.median(wall):.6g} s, "
              f"loop p50 = {statistics.median(r['cal_s'] for r in results):.6g}"
              f" s against CAL_REF_S = {CAL_REF_S} s")
    print(json.dumps({"correct": failed == 0 and env_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
