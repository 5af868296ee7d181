"""gf microbench: per-operation cost of field arithmetic and field build time.

    python3 perfbench/microbench.py SEED

Runs in a fresh interpreter, so field_build cannot be served from a cache
left by earlier work.  Seeded operand streams go through add, mul and inv
on a prime field, a tabled F_{2^8} and an untabled F_{2^10} (q > 512, above
the table limit).  Each stream is timed REPEATS times and the median cost
per operation is reported.  Results are checked against independent
references (integer arithmetic mod p, carry-less multiplication mod the
field's modulus, XOR for characteristic-2 addition, a * a^-1 = 1), and the
checksum of every stream must match across repeats.  Prints one JSON object.
"""

import hashlib
import json
import random
import statistics
import sys
import time

from flab.gf import field_build

REPEATS = 5
PRIME = 251
STREAMS = (
    # (field key, op, operand pairs)
    ("prime", "add", 20000), ("prime", "mul", 20000),
    ("tabled", "add", 5000), ("tabled", "mul", 20000),
    ("tabled", "inv", 20000),
    ("untabled", "add", 5000), ("untabled", "mul", 1000),
    ("untabled", "inv", 60),
)


def timed_build(p, e):
    t0 = time.perf_counter()
    F = field_build(p, e)
    return F, time.perf_counter() - t0


def gf2_mul(a, b, F):
    """Carry-less product of a and b reduced by F's modulus (p = 2)."""
    mod = sum(c << i for i, c in enumerate(F.modulus)) | (1 << F.e)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> F.e & 1:
            a ^= mod
    return r


def reference(F, op, a, b):
    if F.e == 1:
        return (a + b) % F.p if op == "add" else a * b % F.p
    return a ^ b if op == "add" else gf2_mul(a, b, F)


def run(seed: int) -> dict:
    rng = random.Random(f"microbench:{seed}")
    tabled, build_q256 = timed_build(2, 8)
    _, build_q512 = timed_build(2, 9)
    fields = {"prime": field_build(PRIME, 1), "tabled": tabled,
              "untabled": field_build(2, 10)}
    metrics = {"gf.build_s.q256": build_q256, "gf.build_s.q512": build_q512}
    errors = []
    checksums = {}
    for key, op, count in STREAMS:
        F = fields[key]
        low = 1 if op == "inv" else 0
        a = [rng.randrange(low, F.q) for _ in range(count)]
        b = [rng.randrange(F.q) for _ in range(count)]
        fn = getattr(F, op)
        costs = []
        sums = set()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            if op == "inv":
                out = [fn(x) for x in a]
            else:
                out = [fn(x, y) for x, y in zip(a, b)]
            costs.append((time.perf_counter() - t0) / count * 1e9)
            sums.add(hashlib.sha256(repr(out).encode()).hexdigest()[:16])
        if len(sums) != 1:
            errors.append(f"{key} {op}: checksum differs between repeats")
        checksums[f"{key}.{op}"] = sums.pop()
        if op == "inv":
            bad = sum(F.mul(x, y) != 1 for x, y in zip(a, out))
        else:
            bad = sum(reference(F, op, x, y) != z
                      for x, y, z in zip(a, b, out))
        if bad:
            errors.append(f"{key} {op}: {bad} results differ from reference")
        metrics[f"gf.{op}_ns.{key}"] = statistics.median(costs)
    checksum = hashlib.sha256(json.dumps(checksums, sort_keys=True)
                              .encode()).hexdigest()[:16]
    return {"metrics": metrics, "checksum": checksum, "errors": errors}


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]))))
