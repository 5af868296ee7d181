"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench        # or: python3 -m unittest discover perfbench

Run from the root of the flab checkout.  Tiny slices of each workload go
through the same pass, check and trace code as a full run.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "search": {"K(2,2,1,1)", "K(2,2,1,2)", "K(2,3,1,2)", "K(3,2,1,2)",
               "K(4,2,1,2)"},
    "scan": {"verify-q31-n2-k1-m1", "verify-q5-n3-k1-m5",
             "entropy-q7-n3-bound-k1", "incidence-q5-n3-count",
             "incidence-q5-n3-haemers"},
    "polycert": {"interp-q5-n2-d10", "fullrank-q5-n2-d6",
                 "audit-q5-n2-power"},
}
SEED = workloads.DIGEST_SEED
# the report field of each workload's first tiny job that gets corrupted
TAMPER = {"search": "exact", "scan": "size", "polycert": "degree"}


def tiny_jobs(workload):
    run.fresh_import_flab()
    jobs = [j for j in workloads.build_jobs(workload, SEED)
            if j.id in TINY[workload]]
    return workloads.write_inputs(
        jobs, os.path.join(run.WORK, "smoke", workload))


def run_tiny_pass(workload, jobs):
    runner = run.Runner() if workload == "search" else None
    try:
        return run.run_pass(jobs, runner)[1]
    finally:
        if runner is not None:
            runner.close()


def frozen_k_from_tests():
    """FROZEN_K dicts of the repository's own tests, keyed (q, n, k, m)."""
    out = {}
    for name in ("test_furstenberg.py", "test_acceptance.py"):
        with open(os.path.join(REPO, "tests", name)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and node.targets[0].id == "FROZEN_K"):
                out.update(ast.literal_eval(node.value))
    return out


class SearchTableTest(unittest.TestCase):
    def test_table_lists_every_instance(self):
        want = {(p, e, n, k, m) for p, e in ((2, 1), (3, 1), (2, 2))
                for n in range(2, 5) if (p ** e) ** n <= 16
                for k in range(1, n) for m in range(1, (p ** e) ** k + 1)}
        self.assertEqual(set(workloads.SEARCH_TABLE), want)
        self.assertEqual(len(want), 29)

    def test_table_agrees_with_frozen_k_in_tests(self):
        frozen = frozen_k_from_tests()
        self.assertTrue(frozen)
        for (q, n, k, m), K in frozen.items():
            self.assertEqual(workloads.SEARCH_TABLE[(q, 1, n, k, m)], K)

    def test_table_agrees_with_planar_kakeya_minima(self):
        for p, e in ((2, 1), (3, 1), (2, 2)):
            q = p ** e
            self.assertEqual(workloads.SEARCH_TABLE[(p, e, 2, 1, q)],
                             workloads.planar_kakeya_min(q))
        self.assertEqual([workloads.planar_kakeya_min(q) for q in (2, 3, 4)],
                         [3, 7, 10])


class TinyWorkloadTest(unittest.TestCase):
    def test_tiny_workloads_pass_their_checks(self):
        for workload in workloads.WORKLOADS:
            jobs = tiny_jobs(workload)
            self.assertEqual(len(jobs), len(TINY[workload]))
            results = run_tiny_pass(workload, jobs)
            frozen = {} if workload == "search" else \
                run.load_digests(workload)
            failed = run.check_pass(results, jobs, frozen, {})
            self.assertEqual(failed, 0, [r["error"] for r in results])

    def test_injected_wrong_output_counts_as_failed(self):
        for workload in workloads.WORKLOADS:
            jobs = tiny_jobs(workload)
            results = run_tiny_pass(workload, jobs)
            doc = json.loads(results[0]["out"])
            doc[TAMPER[workload]] += 1
            results[0]["out"] = json.dumps(doc)
            results[1]["code"] = 1
            failed = run.check_pass(results, jobs, {}, {})
            self.assertEqual(failed, 2, workload)

    def test_output_change_between_passes_counts_as_failed(self):
        jobs = tiny_jobs("scan")
        first = {}
        results = run_tiny_pass("scan", jobs)
        self.assertEqual(run.check_pass(results, jobs, {}, first),
                         0)
        results[0]["out"] = results[0]["out"].replace("\n", " \n", 1)
        self.assertEqual(run.check_pass(results, jobs, {}, first),
                         1)


class RepeatScheduleTest(unittest.TestCase):
    def test_short_jobs_repeat_in_bursts_and_late_jobs_do_not_start(self):
        class InstantRunner:
            def __init__(self):
                self.ran = []

            def run(self, job_id, argv):
                self.ran.append(argv[0])
                return {"code": 0, "out": "", "err": "", "s": 0.0,
                        "hwm_kb": 0}

        jobs = [workloads.Job(name, [name], {}) for name in "abc"]
        first = [{"id": "a", "s": 0.001}, {"id": "b", "s": 0.2},
                 {"id": "c", "s": 60.0}]
        runner = InstantRunner()
        done, results = run.run_repeats(jobs, runner, first,
                                        time.perf_counter() + 0.5,
                                        run.HostClock())
        # short jobs first, in bursts; then each job again in turn
        self.assertEqual(runner.ran[:7], ["a"] * run.BURST + ["b", "a"])
        self.assertNotIn("c", runner.ran)
        self.assertGreater(runner.ran.count("b"), 1)
        self.assertEqual(runner.ran.count("a") % run.BURST, 0)
        self.assertEqual([j.id for j in done], runner.ran)
        self.assertEqual(len(results), len(done))
        self.assertTrue(all(r["scaled_s"] == 0.0 and r["cal_s"] > 0
                            for r in results))


class TraceTest(unittest.TestCase):
    def test_traced_counts_repeat_exactly(self):
        for workload in workloads.WORKLOADS:
            jobs = tiny_jobs(workload)
            seen = []
            for _ in range(2):
                _, results, spans, gf_counts, _ = run.run_traced_pass(
                    workload, jobs)
                self.assertTrue(all(r["code"] == 0 for r in results))
                metrics = tracer.layer_metrics(spans, gf_counts)
                seen.append({k: v for k, v in metrics.items()
                             if not k.endswith("_s")})
            self.assertEqual(seen[0], seen[1], workload)
            self.assertGreater(seen[0]["gf.mul.calls"], 0)

    def test_benchmark_json_names_every_reported_metric(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        reported = set(tracer.layer_metrics([], {}))
        reported |= {"cli.startup_s", "trace.overhead_s",
                     "gf.build_s.q256", "gf.build_s.q512"}
        import microbench
        reported |= {f"gf.{op}_ns.{key}" for key, op, _ in microbench.STREAMS}
        self.assertEqual(set(layer), reported)
        for name, unit in layer.items():
            self.assertEqual(unit, run.per_layer_unit(name), name)


class BareDirectoryTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = os.path.join(run.WORK, "smoke", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "scan", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, capture_output=True,
                           text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn("correct", r.stdout)


if __name__ == "__main__":
    unittest.main()
