"""Naive references that only the tests call: what belongs here computes,
point by point or term by term, what flab computes fast, so a test can
compare the two without sharing code.

- The per-point coset reduction, the affine span and flat membership,
  against the column ops (geometry._column_op) that coset_histogram and
  the direction walk (geometry._walk) make, the one coset reduction of
  the program.
- The rank-k RREF bases built whole, one itertools.product over the free
  entries per pivot set, against the walk's odometer.
- Polynomial evaluation and Hasse derivatives, term by term, against the
  Hasse columns of polymethod's kernel (polymethod._Block).
- Textbook Gauss-Jordan elimination, one field call per entry, against
  geometry.rref.
- The incidence reports, from flat_points, enumerate_flats and set
  membership only; for subflats, the K factor from its closed form.
- The search report and the search's completion step, from per-direction
  coset bitmasks built by the per-point reduction: sets walked in
  itertools.combinations order, and the pruned walk with its test taken
  coset by coset, against furstenberg._first_completion.
- The polycert --poly audit report, from Hasse derivatives taken term by
  term and evaluated at every point, the orders of each weight listed by
  filtering all exponent tuples.
- The polycert --targets report, its rows built entry by entry from
  hasse_coefficient and each point's powers, solved by Gauss-Jordan and
  verified through hasse_derivative and evaluate.
- The entropy --check bound and recursion reports, each kernel's heaviest
  coset found by reducing every point of the support.
- JSON rendering: a walk that turns Fractions into "num/den", tuples into
  lists and keys into str before json.dumps, against the one-pass
  json.dumps hook of cli.emit_report.
- The thm_pure_incidence, full_flat_lower and full_flat_construction
  bound rows in Fraction arithmetic, against bound_table's plain ints.
- The CLI through argparse's two-pass parse_args, against cli.main's one
  pass through the subcommand's own parser.  Run as a script, this module
  compares the two on PARSE_CORPUS with no test runner:
  ``PYTHONPATH=src python tests/reference.py``.

A name that anything outside the tests imports stays in src/flab, even
when only tests check it: poly_mul and gf.coeffs, which the benchmark
workloads call, the serializers and Flat.through.  So do the paper's
claims that the acceptance suite checks (lift_construction,
heavy_flats_lower_bound, ab_constants and the like).
"""

import contextlib
import io
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from flab.cli import build_parser, check_printable, emit_report
from flab.errors import FlabError
from flab.furstenberg import bound_table
from flab.geometry import (Flat, Subspace, all_points, enumerate_flats,
                           enumerate_subspaces, flat_points, qbinomial)
from flab.polymethod import Polynomial


def reduce_mod_subspace(F, v, sub: Subspace) -> tuple:
    """Canonical coset representative of v modulo sub (pivot coords zeroed):
    each RREF row (1 at its pivot, 0 at the others) subtracted w[piv] times."""
    w = tuple(v)
    for row, piv in zip(sub.basis, sub.pivots()):
        c = w[piv]
        if c:
            w = tuple(F.sub(x, F.mul(c, y)) if y else x for x, y in zip(w, row))
    return w


def rref_bases(F, n: int, k: int) -> list:
    """Every rank-k subspace of F_q^n, each basis built whole: per pivot set
    in itertools.combinations order, its free entries (right of the row's
    pivot, off the pivot columns) in itertools.product order."""
    out = []
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                if j not in pivots]
        for vals in itertools.product(F.elements(), repeat=len(free)):
            rows = [[int(j == p) for j in range(n)] for p in pivots]
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            out.append(Subspace(n, k, tuple(map(tuple, rows))))
    return out


def subspace_contains(F, sub: Subspace, v) -> bool:
    return not any(reduce_mod_subspace(F, v, sub))


def flat_contains(F, flat: Flat, p) -> bool:
    return reduce_mod_subspace(F, p, flat.direction) == flat.shift


def span(F, points) -> Flat:
    """Affine span: the smallest flat containing the given points."""
    pts = sorted(tuple(p) for p in points)
    if not pts:
        raise FlabError("span of the empty set")
    p0 = pts[0]
    diffs = [[F.sub(a, b) for a, b in zip(p, p0)] for p in pts[1:]]
    direction = Subspace.from_vectors(F, len(p0), diffs)
    return Flat(direction, reduce_mod_subspace(F, p0, direction))


def evaluate(P: Polynomial, point) -> int:
    F = P.field
    acc = 0
    for e, c in P.terms.items():
        for x, k in zip(point, e):
            c = F.mul(c, F.pow(x, k))
        acc = F.add(acc, c)
    return acc


def hasse_coefficient(a, i, p: int) -> int:
    """binom(a, i) = prod_j binom(a_j, i_j) mod p, the coefficient of x^{a-i}
    in the i-th Hasse derivative of x^a; 0 unless a >= i entrywise."""
    return math.prod(math.comb(aj, ij) for aj, ij in zip(a, i)) % p


def hasse_derivative(P: Polynomial, i) -> Polynomial:
    """The i-th Hasse derivative: x^a contributes binom(a,i) x^{a-i}."""
    F = P.field
    out: dict = {}
    for a, c in P.terms.items():
        scalar = F.from_int(hasse_coefficient(a, i, F.p))
        e = tuple(aj - ij for aj, ij in zip(a, i))
        out[e] = F.add(out.get(e, 0), F.mul(c, scalar))
    return Polynomial.make(F, P.n, out)


def gauss_jordan(F, rows):
    """Textbook Gauss-Jordan over all columns of every row, one field call
    per entry: the elimination rref used before its row kernel."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = F.inv(mat[rank][col])
        if inv != 1:
            mat[rank] = [F.mul(inv, x) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [F.sub(x, F.mul(c, y))
                          for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank]), rank


def _orders(n: int, w: int) -> list:
    """The exponent tuples of weight w, lexicographic, by filtering all
    tuples with entries up to w."""
    return [i for i in itertools.product(range(w + 1), repeat=n)
            if sum(i) == w]


def incidence_report(S, check: str, flats, r: int, delta: Fraction) -> dict:
    """The report of incidence --check count or haemers (of the distinct
    flats), poor (--l r) or becks (--k r), from each flat's points."""
    F, n, q = S.field, S.n, S.field.q

    def hits(f):
        return sum(p in S.points for p in flat_points(F, f))

    I = sum(map(hits, flats))
    if check == "count":
        return {"incidences": I}
    if check == "haemers":
        k, s = (flats[0].direction.k if flats else 0), len(S) * len(flats)
        radicand = q ** k * qbinomial(n - 1, k, q) * s
        root = math.isqrt(radicand)
        rhs = Fraction(s, q ** (n - k)) + root + (root * root < radicand)
        return {"incidences": I, "rhs": rhs, "radicand": radicand,
                "ok": I <= rhs}
    if check == "poor":
        counts = [hits(f) for f in enumerate_flats(F, n, r)]
        share = len(S) * Fraction(q ** r, q ** n)
        threshold = delta * share + 1
        poor = sum(c < threshold for c in counts)
        bound = len(counts) / (1 + share * (1 - delta) ** 2)
        return {"poor_flats": poor, "bound": bound, "ok": poor <= bound,
                "threshold": threshold}
    best: dict = {}
    for f in enumerate_flats(F, n, r):
        best[f.direction] = max(best.get(f.direction, 0), hits(f))
    m = min(best.values())
    threshold = delta * m / q + 1
    rich = [hits(f) >= threshold for f in enumerate_flats(F, n, r - 1)]
    bound = Fraction(len(rich), 2 ** (n + 2 - r))
    return {"rich_flats": sum(rich), "bound": bound, "ok": sum(rich) > bound,
            "m": m, "hypothesis_met": m >= 2 ** (n + 3 - r) * q
            / (1 - delta) ** 2}


def subflats_report(F, n: int, flats, l: int) -> dict:
    """The report of incidence --check subflats --l l for one k-flat per
    rank-k direction of F_q^n: the l-flats whose points all lie among one
    family flat's points, against K binom(n, l)_q.  For k = l + 1 and
    n = l + 2, K = K(q, 2, 1, q), the planar Kakeya minimum (Blokhuis and
    Mazzocca, 2008), which the exact search reaches for q^2 within its
    limit; for k = n, K = q^(n-l), the whole (n-l)-space."""
    q, k = F.q, flats[0].direction.k
    if k == n:
        k_factor = q ** (n - l)
    elif (k, n) == (l + 1, l + 2):
        k_factor = q * (q + 1) // 2 + (q % 2) * (q - 1) // 2
    else:
        raise ValueError(f"no closed-form K factor for n={n}, k={k}, l={l}")
    members = [set(flat_points(F, f)) for f in flats]
    contained = sum(any(set(flat_points(F, g)) <= s for s in members)
                    for g in enumerate_flats(F, n, l))
    bound = Fraction(k_factor * qbinomial(n, l, q))
    return {"contained": contained, "bound": bound, "ok": contained >= bound,
            "k_factor": k_factor}


def coset_tables(F, n: int, k: int) -> list:
    """Per rank-k direction, the tuple of its cosets as bitmasks over F_q^n,
    bit i for the i-th point in lex order, by reducing every point."""
    bits = {p: 1 << i for i, p in enumerate(all_points(F, n))}
    return [tuple(_cosets(F, bits, d).values())
            for d in enumerate_subspaces(F, n, k)]


def first_completion(tables, N: int, m: int, mask: int, i: int,
                     r: int) -> int:
    """The first mask | R that meets m points of some coset of every
    direction, R walked over the r-sets of points of index at least i and
    not in mask in itertools.combinations order; 0 if there is none."""
    free = [j for j in range(i, N) if not mask >> j & 1]
    for combo in itertools.combinations(free, r):
        s = mask | sum(1 << j for j in combo)
        if all(any((s & c).bit_count() >= m for c in cosets)
               for cosets in tables):
            return s
    return 0


def pruned_walk(tables, N: int, m: int, mask: int, i: int,
                r: int) -> tuple:
    """(set, nodes) of the lex-order walk of furstenberg._first_completion
    from one entry point, its node test taken coset by coset: a node
    (mask, i, r) passes when every direction has a coset c with
    |open & c| >= m and |mask & c| >= m - r, open = mask | {i..N-1}."""
    nodes = 0

    def walk(mask, i, r):
        nonlocal nodes
        while N - i >= r:
            if mask >> i & 1:
                i += 1
                continue
            nodes += 1
            open_ = mask | ((1 << N) - 1) >> i << i
            if not all(any((open_ & c).bit_count() >= m
                           and (mask & c).bit_count() >= m - r
                           for c in cosets) for cosets in tables):
                return 0
            if not r:
                return mask
            hit = walk(mask | 1 << i, i + 1, r - 1)
            if hit:
                return hit
            i += 1
        return 0

    return walk(mask, i, r), nodes


def search_report(instance) -> dict:
    """The report of search --format json at q^n <= 16, the witness as
    points: K is the first size, from the bound table's lower bound up, at
    which the combinations walk over sets that hold the origin finds one,
    and the witness is the first set it finds."""
    F, n, k, m = instance
    pts = all_points(F, n)
    tables = coset_tables(F, n, k)
    lower = bound_table(instance, printable=False).best_integer_lower()
    for size in range(lower, m * F.q ** (n - k) + 1):
        mask = first_completion(tables, len(pts), m, 1, 1, size - 1)
        if mask:
            return {"q": F.q, "n": n, "k": k, "m": m, "exact": size,
                    "lower": lower, "upper": size,
                    "witness": [p for i, p in enumerate(pts)
                                if mask >> i & 1]}
    raise AssertionError("no witness")


def polycert_report(P: Polynomial) -> dict:
    """The report of polycert --poly: the multiplicity at a of nonzero P is
    the least weight w with some D^i P, i of weight w, nonzero at a, summed
    over all of F_q^n, against the bound deg(P) q^(n-1)."""
    F, n = P.field, P.n
    d = max(sum(e) for e in P.terms)
    orders = [_orders(n, w) for w in range(d + 1)]
    derivatives = {i: hasse_derivative(P, i) for by_w in orders for i in by_w}

    def mult(a):
        return next(w for w, by_w in enumerate(orders)
                    if any(evaluate(derivatives[i], a) for i in by_w))

    total = sum(map(mult, itertools.product(F.elements(), repeat=n)))
    bound = d * F.q ** (n - 1)
    return {"degree": d, "terms": len(P.terms), "mult_sum": total,
            "bound": bound, "ok": total <= bound}


def interpolation_report(F, n: int, targets: dict, d: int) -> dict:
    """The report of polycert --targets --degree d, with the polynomial
    itself in place of its serialization.  One row per target x in sorted
    order, weight w < N_x and order i of weight w, over the monomials a of
    degree <= d in graded lex order: binom(a, i) mod p times x^(a-i), from
    x's powers; zero rows dropped.  The interpolant is the kernel vector
    with its first free coefficient 1 and each pivot coefficient minus that
    column's entry in the pivot's row; it verifies when every D^i P of
    weight below N_x evaluates to 0 at x."""
    monos = [a for w in range(d + 1) for a in _orders(n, w)]
    rows = []
    for x in sorted(targets):
        powers = [[F.pow(xj, k) for k in range(d + 1)] for xj in x]
        for w in range(targets[x]):
            for i in _orders(n, w):
                row = []
                for a in monos:
                    v = F.from_int(hasse_coefficient(a, i, F.p))
                    for pw, aj, ij in zip(powers, a, i):
                        v = F.mul(v, pw[aj - ij]) if v else 0
                    row.append(v)
                if any(row):
                    rows.append(row)
    reduced, rank = gauss_jordan(F, rows)
    pivots = [next(j for j, v in enumerate(r) if v) for r in reduced]
    free = [j for j in range(len(monos)) if j not in pivots]
    if not free:
        return {"found": False, "equations": len(rows),
                "unknowns": len(monos), "rank": rank}
    terms = {monos[j]: F.neg(r[free[0]]) for r, j in zip(reduced, pivots)}
    P = Polynomial.make(F, n, {**terms, monos[free[0]]: 1})
    verified = all(evaluate(hasse_derivative(P, i), x) == 0
                   for x, N in targets.items()
                   for w in range(N) for i in _orders(n, w))
    return {"found": True, "degree": P.degree, "verified": verified,
            "polynomial": P}


def _cosets(F, weights: dict, kernel: Subspace) -> dict:
    """Summed weight per coset of kernel, keyed by reduced point."""
    out: dict = {}
    for x, w in weights.items():
        shift = reduce_mod_subspace(F, x, kernel)
        out[shift] = out.get(shift, 0) + w
    return out


def _lightest_kernel(F, n: int, weights: dict, k: int):
    """(kernel, heaviest coset weight) of the first rank-k kernel in walk
    order whose heaviest coset is lightest."""
    best = None
    for kernel in enumerate_subspaces(F, n, k):
        g = max(_cosets(F, weights, kernel).values())
        if best is None or g < best[1]:
            best = kernel, g
    return best


def entropy_report(dist, check: str, k: int) -> dict:
    """The report of entropy --check bound or recursion --k k.  A mode of
    weight g passes when g^n q^(nk) <= f^(n-k) T^k (2q-1)^(nk), f the
    largest weight and T the total: H(image) >= (n-k)/n H - k log_q(2-1/q)
    with the logs cleared.  The chain takes k best rank-1 kernels in turn,
    each time keeping the free coordinates of the reduced points."""
    F, n, q, weights = dist.field, dist.n, dist.field.q, dict(dist.weights)
    total, f = sum(weights.values()), max(weights.values())
    report = {"n": n, "q": q, "total": total, "max_weight": f,
              "entropy": f"H = log_q({total}/{f})", "k": k}

    def sides(g):
        return g ** n * q ** (n * k), \
            f ** (n - k) * total ** k * (2 * q - 1) ** (n * k)

    _, direct = _lightest_kernel(F, n, weights, k)
    if check == "bound":
        lhs, rhs = sides(direct)
        report.update({"ok": lhs <= rhs, "lhs": lhs, "rhs": rhs,
                       "margin": rhs - lhs})
        return report
    cur, dim = weights, n
    for _ in range(k):
        kernel, _ = _lightest_kernel(F, dim, cur, 1)
        pivot, = kernel.pivots()
        cur = {shift[:pivot] + shift[pivot + 1:]: w
               for shift, w in _cosets(F, cur, kernel).items()}
        dim -= 1
    composed = max(cur.values())
    (c_lhs, c_rhs), (d_lhs, d_rhs) = sides(composed), sides(direct)
    report.update({"composed_max_weight": composed,
                   "direct_max_weight": direct,
                   "composed_le_direct": composed >= direct,
                   "composed_ok": c_lhs <= c_rhs, "direct_ok": d_lhs <= d_rhs})
    return report


def _jsonable(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


def json_report(report: dict) -> str:
    """A report as --format json prints it, rendered from the walked copy."""
    return json.dumps(_jsonable(report), indent=2) + "\n"


def fraction_bound_rows(q: int, n: int, k: int, m: int) -> dict:
    """source -> (rhs_num, rhs_den, rad) of the three bound rows whose
    numbers bound_table builds from plain ints, here by Fraction
    arithmetic."""
    base = m * q ** (n - k)
    A = (Fraction(1) - Fraction(q ** n, q ** (2 * k))) * base
    v = Fraction(q ** (k + 1), q ** k + q - 1) ** n
    u = (Fraction(1) - Fraction(q - 3, 2 * q ** k)) ** (n // (k + 1)) * q ** n
    return {"thm_pure_incidence": (A.numerator, A.denominator,
                                   Fraction(q ** (n - k), m) * base * base),
            "full_flat_lower": (v.numerator, v.denominator, 0),
            "full_flat_construction": (u.numerator, u.denominator, 0)}


def parse_args_main(argv) -> int:
    """cli.main with argparse's whole parse_args, top-level pass included,
    then the same handler, check and render."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "selftest":
            from flab.selftest import run_selftest
            return 0 if run_selftest(sys.stdout) else 1
        report = args.fn(args)
        check_printable(report)
        text = emit_report(report, args.format)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (FlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def run_cli(main, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), argparse's help wrapped
    at 80 columns whatever the terminal."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return code, out.getvalue(), err.getvalue()


_SEARCH = ["search", "--p", "2", "--n", "4", "--k", "3", "--m", "1"]
_BOUNDS = ["bounds", "--p", "3", "--n", "4", "--k", "2", "--m", "5"]
_POLYCERT = ["polycert", "--p", "2", "--n", "2"]

# usage, help and error argvs, and a few valid ones: cli.main must give the
# bytes and exit code of parse_args_main on each
PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["-x"], ["nope"], ["nope", "-h"],
    ["--help", "search"], ["--", "search"],
    *([c, "-h"] for c in ["bounds", "verify", "search", "entropy",
                          "polycert", "incidence", "selftest"]),
    ["search"], _SEARCH[:-2], _SEARCH[:-1],
    ["search", "--p", "x", *_SEARCH[3:]],
    _BOUNDS + ["--format", "xml"], _BOUNDS + ["--form", "json"],
    _BOUNDS + ["--format", "json"], _BOUNDS + ["--epsilon", "1/10"],
    _SEARCH + ["--bogus"], _SEARCH + ["extra"], _SEARCH + ["extra", "-y"],
    _SEARCH + ["--format", "json"], ["search", "--p=2", *_SEARCH[3:]],
    ["search", "--", *_SEARCH[1:]], _SEARCH + ["--"], _SEARCH + ["--", "x"],
    _SEARCH + ["--p", "3"], _SEARCH + ["--m", "2", "--m", "1"],
    _POLYCERT + ["--poly", "a", "--targets", "b"], _POLYCERT,
    ["selftest", "--x"], ["selftest", "x"], ["search", "-h", "--bogus"],
    _SEARCH + ["-h"], _SEARCH + ["--budget", "x"],
    ["verify", "--points", "no-such-file", "--k", "1", "--m", "1"],
]


if __name__ == "__main__":
    from flab.cli import main
    differ = [argv for argv in PARSE_CORPUS
              if run_cli(main, argv) != run_cli(parse_args_main, argv)]
    for argv in differ:
        print("differs:", argv)
    print(f"{len(PARSE_CORPUS)} argvs, {len(differ)} differ")
    sys.exit(1 if differ else 0)
