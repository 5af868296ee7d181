"""Workloads of the flab benchmark: job lists, seeded inputs, output checks.

A job is one `flab` CLI invocation.  Every workload is a fixed list of jobs
whose inputs are drawn from a ``random.Random`` seeded with the workload name
and ``--seed``, so one seed always gives byte-identical input files.  Each job
carries what its output must satisfy; ``check_output`` returns ``None`` when
the output is right and a one-line reason otherwise.

The generators use flab's own field arithmetic, enumeration order and file
serializers to build inputs; the program under test only ever sees the files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("search", "scan", "polycert")

# Seed whose stdout digests are frozen in digests.json.  Any other seed is
# checked by semantic rules only.
DIGEST_SEED = 1

# K(q, n, k, m) for every instance with q in {2, 3, 4}, q^n <= 16, 1 <= k < n
# and 1 <= m <= q^k, as (p, e, n, k, m) -> K.  Frozen from the exhaustive
# search; test_perfbench.py cross-checks it against FROZEN_K in tests/ and
# against the planar Kakeya minima of Blokhuis and Mazzocca.
SEARCH_TABLE = {
    (2, 1, 2, 1, 1): 1, (2, 1, 2, 1, 2): 3,
    (2, 1, 3, 1, 1): 1, (2, 1, 3, 1, 2): 5,
    (2, 1, 3, 2, 1): 1, (2, 1, 3, 2, 2): 3, (2, 1, 3, 2, 3): 5,
    (2, 1, 3, 2, 4): 7,
    (2, 1, 4, 1, 1): 1, (2, 1, 4, 1, 2): 6,
    (2, 1, 4, 2, 1): 1, (2, 1, 4, 2, 2): 5, (2, 1, 4, 2, 3): 9,
    (2, 1, 4, 2, 4): 13,
    (2, 1, 4, 3, 1): 1, (2, 1, 4, 3, 2): 3, (2, 1, 4, 3, 3): 5,
    (2, 1, 4, 3, 4): 6, (2, 1, 4, 3, 5): 9, (2, 1, 4, 3, 6): 10,
    (2, 1, 4, 3, 7): 13, (2, 1, 4, 3, 8): 15,
    (3, 1, 2, 1, 1): 1, (3, 1, 2, 1, 2): 4, (3, 1, 2, 1, 3): 7,
    (2, 2, 2, 1, 1): 1, (2, 2, 2, 1, 2): 4, (2, 2, 2, 1, 3): 7,
    (2, 2, 2, 1, 4): 10,
}


def planar_kakeya_min(q: int) -> int:
    """K(q,2,1,q): q(q+1)/2 for even q, q(q+1)/2 + (q-1)/2 for odd q."""
    return q * (q + 1) // 2 + (0 if q % 2 == 0 else (q - 1) // 2)


@dataclass
class Job:
    id: str
    argv: list[str]
    expect: dict
    files: dict[str, str] = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def build_jobs(workload: str, seed: int) -> list[Job]:
    _FIELDS.clear()
    if workload == "search":
        return search_jobs(seed)
    if workload == "scan":
        return scan_jobs(seed)
    if workload == "polycert":
        return polycert_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(jobs: list[Job], workdir: str) -> list[Job]:
    """Write every job's input files under workdir; "@name" in argv becomes
    the path of file name."""
    os.makedirs(workdir, exist_ok=True)
    files = {}
    for job in jobs:
        files.update(job.files)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    return [Job(job.id, [os.path.join(workdir, a[1:]) if a.startswith("@")
                         else a for a in job.argv], job.expect)
            for job in jobs]


# ---------------------------------------------------------------------------
# search: the exact extremal table, in one long-lived process


def search_jobs(seed: int) -> list[Job]:
    jobs = []
    for (p, e, n, k, m), K in SEARCH_TABLE.items():
        argv = ["search", "--p", str(p), "--e", str(e), "--n", str(n),
                "--k", str(k), "--m", str(m), "--format", "json"]
        jobs.append(Job(f"K({p ** e},{n},{k},{m})", argv,
                        {"kind": "search", "p": p, "e": e, "n": n, "k": k,
                         "m": m, "K": K}))
    # the seed only decides the order the sweep visits the instances
    _rng("search", seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# helpers shared by the scan and polycert generators


def _point_str(F, p) -> str:
    return " | ".join(" ".join(str(d) for d in F.coeffs(a)) for a in p)


def _rand_point(rng, F, n):
    return tuple(rng.randrange(F.q) for _ in range(n))


def _rand_points(rng, F, n, count, avoid=()):
    pts = set(avoid)
    start = len(pts)
    while len(pts) < start + count:
        pts.add(_rand_point(rng, F, n))
    return pts - set(avoid)


def _coset_points(F, base, basis, coeff_vectors):
    out = []
    for cs in coeff_vectors:
        p = list(base)
        for c, row in zip(cs, basis):
            if c:
                p = [F.add(x, F.mul(c, y)) for x, y in zip(p, row)]
        out.append(tuple(p))
    return out


# ---------------------------------------------------------------------------
# scan: one-shot CLI jobs over sparse inputs, each in a fresh interpreter

# (p, e, n, k, m, covered directions, random points).  m = 1 sets verify over
# every direction.  For m > 1 the set holds m points in one coset of each of
# the first `covered` directions in enumeration order plus sparse random
# points, so verification fails partway, at a direction past the covered ones.
VERIFY_SPECS = (
    (31, 1, 2, 1, 1, 0, 200),
    (31, 1, 2, 1, 10, 6, 20),
    (5, 1, 3, 1, 5, 6, 4),
    (5, 1, 3, 2, 1, 0, 60),
    (5, 1, 4, 1, 5, 20, 10),
    (5, 1, 4, 2, 1, 0, 50),
    (2, 6, 2, 1, 1, 0, 150),
    (2, 6, 2, 1, 10, 12, 20),
    (2, 8, 2, 1, 1, 0, 60),
    (2, 8, 2, 1, 10, 32, 30),
    (2, 3, 3, 1, 8, 12, 10),
    (2, 3, 3, 2, 1, 0, 40),
    (2, 3, 3, 2, 40, 4, 10),
    (3, 2, 3, 1, 1, 0, 60),
    (3, 2, 3, 2, 1, 0, 100),
    (2, 10, 2, 1, 1, 0, 12),
    (2, 10, 2, 1, 6, 40, 10),
    (3, 7, 2, 1, 1, 0, 4),
)

# (p, e, n, check, k, support size, max weight)
ENTROPY_SPECS = (
    (3, 1, 5, "bound", 1, 40, 9),
    (3, 1, 5, "recursion", 2, 60, 9),
    (2, 2, 4, "bound", 2, 80, 9),
    (2, 2, 4, "recursion", 1, 40, 9),
    (7, 1, 3, "bound", 1, 100, 9),
    (7, 1, 3, "recursion", 2, 100, 9),
)

# (p, e, n, points, flat rank for count/haemers, flats, poor l, becks k,
#  subflats (k, l))
INCIDENCE_SPECS = (
    (2, 1, 6, 10, 2, 200, 1, 2, (5, 4)),
    (3, 1, 4, 15, 1, 200, 1, 2, (2, 1)),
    (5, 1, 3, 15, 1, 200, 1, 2, (2, 1)),
)


_FIELDS: dict = {}


def _field(p, e):
    """field_build(p, e), built once per generator run: building F_256
    alone takes half a second."""
    from flab.gf import field_build
    if (p, e) not in _FIELDS:
        _FIELDS[(p, e)] = field_build(p, e)
    return _FIELDS[(p, e)]


def _verify_job(rng, spec):
    from flab import formats
    from flab.geometry import PointSet, enumerate_subspaces, qbinomial
    p, e, n, k, m, covered, extra = spec
    F = _field(p, e)
    pts = set()
    covered_dirs = []
    if covered:
        for D in enumerate_subspaces(F, n, k):
            if len(covered_dirs) == covered:
                break
            coeffs = _rand_points(rng, F, k, m)
            pts.update(_coset_points(F, _rand_point(rng, F, n), D.basis,
                                     sorted(coeffs)))
            covered_dirs.append(" , ".join(_point_str(F, r)
                                           for r in D.basis))
    pts |= _rand_points(rng, F, n, extra, avoid=pts)
    S = PointSet.of(F, n, pts)
    name = f"verify-q{F.q}-n{n}-k{k}-m{m}"
    expect = {"kind": "verify", "size": len(S), "m": m,
              "directions": qbinomial(n, k, F.q),
              "covered": covered_dirs, "ok": m == 1}
    return Job(name, ["verify", "--points", "@" + name + ".pts", "--k",
                      str(k), "--m", str(m), "--format", "json"],
               expect, {name + ".pts": formats.serialize_pointset(S)})


def _entropy_job(rng, spec):
    from flab import formats
    from flab.entropy import RationalDistribution
    p, e, n, check, k, support, wmax = spec
    F = _field(p, e)
    weights = {x: rng.randint(1, wmax)
               for x in _rand_points(rng, F, n, support)}
    dist = RationalDistribution.of(F, n, weights)
    name = f"entropy-q{F.q}-n{n}-{check}-k{k}"
    expect = {"kind": "entropy", "check": check, "total": dist.total,
              "max_weight": max(weights.values())}
    return Job(name, ["entropy", "--dist", "@" + name + ".dist", "--k",
                      str(k), "--check", check, "--format", "json"],
               expect, {name + ".dist": formats.serialize_distribution(dist)})


def _random_flat(rng, F, n, rank):
    from flab.geometry import Flat, Subspace
    while True:
        D = Subspace.from_vectors(F, n, [_rand_point(rng, F, n)
                                         for _ in range(rank)])
        if D.k == rank:
            return Flat.through(F, D, _rand_point(rng, F, n))


def _incidence_jobs(rng, spec):
    from flab import formats
    from flab.geometry import Flat, PointSet, enumerate_subspaces, flat_points
    from flab.incidence import FlatFamily
    p, e, n, npts, rank, nflats, poor_l, becks_k, (sub_k, sub_l) = spec
    F = _field(p, e)
    S = PointSet.of(F, n, _rand_points(rng, F, n, npts))
    flats = set()
    while len(flats) < nflats:
        flats.add(_random_flat(rng, F, n, rank))
    L = FlatFamily.of(F, n, flats)
    # incidences recounted by expanding each flat's points, a second
    # algorithm next to the CLI's coset-membership test
    incidences = sum(len(S.points.intersection(flat_points(F, f)))
                     for f in L.flats)
    family = FlatFamily.of(F, n, [
        Flat.through(F, D, _rand_point(rng, F, n))
        for D in enumerate_subspaces(F, n, sub_k)])
    tag = f"q{F.q}-n{n}"
    files = {f"inc-{tag}.pts": formats.serialize_pointset(S),
             f"inc-{tag}.flats": formats.serialize_flat_family(L),
             f"inc-{tag}.family": formats.serialize_flat_family(family)}
    base = ["incidence", "--points", f"@inc-{tag}.pts", "--format", "json"]
    flats_arg = ["--flats", f"@inc-{tag}.flats"]

    def job(check, extra, expect):
        return Job(f"incidence-{tag}-{check}", base + ["--check", check]
                   + extra, dict(expect, kind="incidence", check=check),
                   files)
    return [
        job("count", flats_arg, {"incidences": incidences}),
        job("haemers", flats_arg, {"incidences": incidences}),
        job("poor", ["--l", str(poor_l)], {}),
        job("becks", ["--k", str(becks_k)], {}),
        job("subflats", ["--flats", f"@inc-{tag}.family", "--l",
                         str(sub_l)], {}),
    ]


def scan_jobs(seed: int) -> list[Job]:
    rng = _rng("scan", seed)
    jobs = [_verify_job(rng, s) for s in VERIFY_SPECS]
    jobs += [_entropy_job(rng, s) for s in ENTROPY_SPECS]
    for s in INCIDENCE_SPECS:
        jobs += _incidence_jobs(rng, s)
    return jobs


# ---------------------------------------------------------------------------
# polycert: interpolation and multiplicity audits, each in a fresh interpreter

# (p, e, n, target points, multiplicity); the degree is the smallest one
# that meets the dimension-count hypothesis, so a polynomial is found
TARGET_SPECS = (
    (5, 1, 2, 20, 2),
    (7, 1, 3, 40, 2),
    (3, 2, 2, 28, 2),
    (11, 1, 2, 60, 2),
    (13, 1, 2, 60, 2),
)

# (p, e, n, degree, multiplicity): full-rank systems.  The sum of target
# multiplicities exceeds degree * q^(n-1), so by Schwartz-Zippel no nonzero
# polynomial of that degree vanishes on the targets: `found: false`.
FULL_RANK_SPECS = (
    (5, 1, 2, 6, 2),
    (7, 1, 3, 4, 2),
    (3, 2, 2, 7, 2),
    (11, 1, 2, 10, 2),
    (13, 1, 2, 10, 2),
)

# (p, e, n, degree, terms) for random audit polynomials; each field also
# audits (x_i^q - x_i)^POWER, which has multiplicity POWER at every point
AUDIT_SPECS = (
    (5, 1, 2, 10, 60),
    (7, 1, 3, 8, 60),
    (3, 2, 2, 12, 60),
    (11, 1, 2, 14, 60),
    (13, 1, 2, 14, 60),
)
POWER = 4


def _targets_file(F, n, targets):
    from flab import formats
    return formats.serialize_targets(F, n, targets)


def _polycert_base(F, n):
    return ["polycert", "--p", str(F.p), "--e", str(F.e), "--n", str(n),
            "--format", "json"]


def _target_job(rng, spec):
    from flab.polymethod import vanishing_hypothesis_holds
    p, e, n, npts, mult = spec
    F = _field(p, e)
    targets = {x: mult for x in _rand_points(rng, F, n, npts)}
    d = 0
    while not vanishing_hypothesis_holds(targets, n, d):
        d += 1
    name = f"interp-q{F.q}-n{n}-d{d}"
    return Job(name, _polycert_base(F, n) + [
        "--targets", "@" + name + ".targets", "--degree", str(d)],
        {"kind": "interp", "found": True, "degree": d},
        {name + ".targets": _targets_file(F, n, targets)})


def _full_rank_job(rng, spec):
    p, e, n, d, mult = spec
    F = _field(p, e)
    npts = d * F.q ** (n - 1) // mult + 1
    targets = {x: mult for x in _rand_points(rng, F, n, npts)}
    name = f"fullrank-q{F.q}-n{n}-d{d}"
    return Job(name, _polycert_base(F, n) + [
        "--targets", "@" + name + ".targets", "--degree", str(d)],
        {"kind": "interp", "found": False, "degree": d},
        {name + ".targets": _targets_file(F, n, targets)})


def _random_poly(rng, F, n, degree, terms):
    from flab.polymethod import Polynomial
    out = {}
    top = [0] * n
    left = degree
    for j in range(n - 1):
        top[j] = rng.randint(0, left)
        left -= top[j]
    top[n - 1] = left
    out[tuple(top)] = rng.randrange(1, F.q)
    while len(out) < terms:
        e = [rng.randint(0, degree) for _ in range(n)]
        if sum(e) <= degree:
            out[tuple(e)] = rng.randrange(1, F.q)
    return Polynomial.make(F, n, out)


def _audit_job(F, n, P, name, expect):
    from flab import formats
    return Job(name, _polycert_base(F, n) + ["--poly", "@" + name + ".poly"],
               dict(expect, kind="audit", degree=P.degree,
                    terms=len(P.terms)),
               {name + ".poly": formats.serialize_polynomial(P)})


def _field_poly_power(F, n, var, power):
    """(x_var^q - x_var)^power: multiplicity `power` at every point."""
    from flab.polymethod import Polynomial, poly_mul
    e_q = tuple(F.q if j == var else 0 for j in range(n))
    e_1 = tuple(1 if j == var else 0 for j in range(n))
    P = Polynomial.make(F, n, {e_q: 1, e_1: F.neg(1)})
    Q = P
    for _ in range(power - 1):
        Q = poly_mul(Q, P)
    return Q


def polycert_jobs(seed: int) -> list[Job]:
    rng = _rng("polycert", seed)
    jobs = [_target_job(rng, s) for s in TARGET_SPECS]
    jobs += [_full_rank_job(rng, s) for s in FULL_RANK_SPECS]
    for p, e, n, degree, terms in AUDIT_SPECS:
        F = _field(p, e)
        P = _random_poly(rng, F, n, degree, terms)
        jobs.append(_audit_job(F, n, P, f"audit-q{F.q}-n{n}-d{degree}", {}))
        var = rng.randrange(n)
        Q = _field_poly_power(F, n, var, POWER)
        jobs.append(_audit_job(F, n, Q, f"audit-q{F.q}-n{n}-power",
                               {"mult_sum": POWER * F.q ** n}))
    return jobs


# ---------------------------------------------------------------------------
# output checks


def check_output(job: Job, code: int, out: str) -> str | None:
    """None when the job's exit code and stdout are right, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    kind = job.expect["kind"]
    try:
        return _CHECKS[kind](job.expect, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def _check_search(x, doc):
    from flab.furstenberg import (FurstenbergInstance, bound_table,
                                  is_furstenberg)
    from flab.geometry import PointSet
    F = _field(x["p"], x["e"])
    n, k, m, K = x["n"], x["k"], x["m"], x["K"]
    if [doc["q"], doc["n"], doc["k"], doc["m"]] != [F.q, n, k, m]:
        return "report names another instance"
    if doc["exact"] != K:
        return f"exact {doc['exact']} != frozen {K}"
    pts = [tuple(_element(F, c) for c in w.split("|"))
           for w in doc["witness"]]
    S = PointSet.of(F, n, pts)
    if len(S) != K:
        return f"witness has {len(S)} points, not {K}"
    if not is_furstenberg(S, k, m)[0]:
        return "witness does not verify"
    inst = FurstenbergInstance(field=F, n=n, k=k, m=m)
    for row in bound_table(inst).lower_rows():
        if not row.satisfied_by(K):
            return f"K violates lower bound {row.source}"
    if K > m * F.q ** (n - k):
        return "K exceeds the trivial construction"
    return None


def _element(F, token):
    digits = [int(t) for t in token.split()]
    return sum(d * F.p ** i for i, d in enumerate(digits))


def _check_verify(x, doc):
    if doc["size"] != x["size"]:
        return f"size {doc['size']} != {x['size']}"
    if x["ok"]:
        if doc["ok"] is not True:
            return "an m = 1 set failed to verify"
        wit = doc["witnesses"]
        if len(wit) != x["directions"]:
            return f"{len(wit)} witnesses for {x['directions']} directions"
        if any(w["count"] < x["m"] for w in wit):
            return "a witness holds fewer than m points"
        return None
    if doc["ok"] is not False:
        return "a set built to fail verified"
    if doc["failing_direction"] in x["covered"]:
        return "reported failure at a covered direction"
    return None


def _check_entropy(x, doc):
    if doc["total"] != x["total"] or doc["max_weight"] != x["max_weight"]:
        return "total or max weight differs from the input"
    if x["check"] == "bound":
        if doc["ok"] is not True or doc["margin"] != doc["rhs"] - doc["lhs"]:
            return "entropic bound reported violated"
    elif not (doc["direct_ok"] is True and doc["composed_ok"] is True):
        return "recursion reported a violated bound"
    return None


def _check_incidence(x, doc):
    check = x["check"]
    if check in ("count", "haemers") and doc["incidences"] != x["incidences"]:
        return f"incidences {doc['incidences']} != {x['incidences']}"
    if check == "haemers" and doc["ok"] is not True:
        return "Haemers bound reported violated"
    if check == "poor":
        if doc["ok"] != (doc["poor_flats"] <= Fraction(doc["bound"])):
            return "poor census verdict disagrees with its numbers"
    if check == "becks":
        if doc["ok"] != (doc["rich_flats"] > Fraction(doc["bound"])):
            return "becks census verdict disagrees with its numbers"
    if check == "subflats":
        if doc["ok"] is not True or doc["contained"] < Fraction(doc["bound"]):
            return "contained subflats below the lower bound"
    return None


def _check_interp(x, doc):
    if doc["found"] is not x["found"]:
        return f"found {doc['found']}, expected {x['found']}"
    if x["found"]:
        if doc["verified"] is not True:
            return "found polynomial does not verify"
        if doc["degree"] > x["degree"]:
            return "found polynomial exceeds the degree limit"
    elif doc["rank"] != doc["unknowns"]:
        return "no solution but the system is not full rank"
    return None


def _check_audit(x, doc):
    if doc["degree"] != x["degree"] or doc["terms"] != x["terms"]:
        return "degree or term count differs from the input"
    if doc["ok"] is not True or doc["mult_sum"] > doc["bound"]:
        return "Schwartz-Zippel multiplicity bound reported violated"
    if "mult_sum" in x and doc["mult_sum"] != x["mult_sum"]:
        return f"mult_sum {doc['mult_sum']} != {x['mult_sum']}"
    return None


_CHECKS = {
    "search": _check_search,
    "verify": _check_verify,
    "entropy": _check_entropy,
    "incidence": _check_incidence,
    "interp": _check_interp,
    "audit": _check_audit,
}
