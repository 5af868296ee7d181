"""Regenerate digests.json: the frozen stdout digests of the default seed.

    python3 perfbench/freeze_digests.py

Run from the root of a flab checkout whose outputs are known to be right.
Every job must first pass its semantic check; the digest of its stdout and
the microbench checksum for the default seed are then written next to this
file.  run.py compares against them whenever --seed is the default seed.
"""

import json
import os
import subprocess
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    seed = workloads.DIGEST_SEED
    frozen = {}
    for workload in ("scan", "polycert"):
        run.fresh_import_flab()
        jobs = workloads.write_inputs(
            workloads.build_jobs(workload, seed),
            os.path.join(run.WORK, "inputs", workload))
        frozen[workload] = {}
        for job in jobs:
            r = run.run_fresh(job.argv)
            why = workloads.check_output(job, r["code"], r["out"])
            if why:
                print(f"{job.id}: {why} {r['err']}", file=sys.stderr)
                return 1
            frozen[workload][job.id] = workloads.digest(r["out"])
    bench = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "microbench.py"), str(seed)],
        capture_output=True, text=True, env=run.child_env(), check=True)
    micro = json.loads(bench.stdout)
    if micro["errors"]:
        print(micro["errors"], file=sys.stderr)
        return 1
    frozen["microbench"] = {str(seed): micro["checksum"]}
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
