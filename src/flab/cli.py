"""Batch command-line front end.

Subcommands: verify, search, bounds, entropy, polycert, incidence, selftest.
Each handler imports the one algorithm module it runs and returns its report
dict; ``main`` renders it once and writes it to ``--output`` or stdout.
The parser is built once per process for each ``FLAB_BUDGET`` value, so a
sweep that calls ``main`` many times pays for building argparse once.  An
argv that starts with a subcommand's name is parsed by that subcommand's
parser alone, in one pass: argparse's top-level pass would only hand it on.
Output is deterministic byte-for-byte for identical inputs and flags.
JSON renders in one direct recursive pass, to the bytes of
``json.dumps(report, indent=2)`` with a Fraction printed as "num/den".  A
Fraction is found by its denominator, not its class, so a command that
makes none (polycert) never loads ``fractions``.
Exit codes: 0 success; 2 for a FlabError (BudgetExceeded and
check_printable's refusals included), an OSError or a flag argparse
rejects; 1 for anything else (a bug) or a failed selftest.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys

from . import formats
from .errors import FlabError
from .geometry import CAP_BITS, DEFAULT_BUDGET, DIGIT_CAP
from .gf import field_build

_DIGIT_LIMIT = 10 ** DIGIT_CAP


def _ratio(v) -> str:
    """A Fraction as "num/den"."""
    return f"{v.numerator}/{v.denominator}"


_quote = json.encoder.encode_basestring_ascii


def _json(v, indent: str) -> str:
    """v as json.dumps(v, indent=2, default=_ratio) spells it at the given
    indent, in one direct pass: with an indent, json.dumps runs its
    pure-Python generator encoder."""
    if isinstance(v, str):
        return _quote(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = indent + "  "
    if isinstance(v, dict):
        # a key that is not a str is spelt as json spells the value, quoted
        items = [_quote(k if isinstance(k, str) else json.dumps(k)) + ": "
                 + _json(x, inner) for k, x in v.items()]
        ends = "{}"
    elif isinstance(v, (list, tuple)):
        items, ends = [_json(x, inner) for x in v], "[]"
    elif hasattr(v, "denominator"):
        return _quote(_ratio(v))
    else:
        return json.dumps(v)    # a float; reports hold none
    if not items:
        return ends
    sep = ",\n" + inner
    return f"{ends[0]}\n{inner}{sep.join(items)}\n{indent}{ends[1]}"


def _jsonable(v):
    """The value with Fractions as "num/den", tuples as lists and dict keys
    as str, for the text and CSV renderers."""
    if hasattr(v, "denominator") and not isinstance(v, int):
        return _ratio(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


def _too_long(v) -> bool:
    """Whether v holds an int, or a Fraction part, past DIGIT_CAP digits."""
    if isinstance(v, str):
        return False
    if isinstance(v, int):
        return v.bit_length() >= CAP_BITS and abs(v) >= _DIGIT_LIMIT
    if isinstance(v, (list, tuple, dict)):
        return any(map(_too_long, v.values() if isinstance(v, dict) else v))
    return v is not None and _too_long((v.numerator, v.denominator))


def check_printable(report: dict) -> None:
    """The one decision whether a report prints: FlabError naming the first
    top-level key whose value holds a number past DIGIT_CAP digits, found
    by comparing numbers, so Python's own limit on printing never decides."""
    for key, v in report.items():
        if _too_long(v):
            raise FlabError(f"{key} has a number of more than {DIGIT_CAP} "
                            "digits")


def _is_table(v) -> bool:
    """A nonempty list of dicts: the one shape text and CSV render as rows."""
    return isinstance(v, list) and bool(v) and isinstance(v[0], dict)


def emit_report(report: dict, fmt: str) -> str:
    """Render a report dict; CSV renders its one table (list of dicts)."""
    if fmt == "json":
        return _json(report, "") + "\n"
    if fmt == "csv":
        import csv
        tables = [v for v in report.values() if _is_table(v)]
        if len(tables) != 1:
            raise FlabError("this report has no tabular form")
        rows = tables[0]
        cols = list(rows[0].keys())
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([str(_jsonable(r[c])) for c in cols] for r in rows)
        return buf.getvalue()
    if fmt == "text":
        out = []
        for k, v in report.items():
            if _is_table(v):
                out.append(f"{k}:")
                for r in v:
                    out.append("  " + "  ".join(f"{a}={_jsonable(b)}"
                                                for a, b in r.items()))
            else:
                out.append(f"{k} = {_jsonable(v)}")
        return "\n".join(out) + "\n"
    raise FlabError(f"unknown format {fmt!r}")


# a trailing decimal exponent, which Fraction() expands into a power of ten:
# a flag of a dozen characters could otherwise spell ten million digits
_EXPONENT = r"[eE][-+]?(\d[\d_]*)\s*\Z"


def _fraction(text: str, flag: str):
    """The exact rational a flag spells, or a user error.  A number of more
    than DIGIT_CAP digits, or an exponent past DIGIT_CAP in magnitude, is
    refused before Fraction() reads the flag, whether or not the rest of the
    flag is one Fraction() reads."""
    digits = formats._digits_past_cap(text)
    if digits:
        raise FlabError(f"{flag} must be an exact rational of at most "
                        f"{DIGIT_CAP} digits per number, got a number of "
                        f"{digits} digits")
    exponent = re.search(_EXPONENT, text)
    if exponent and int(exponent[1].replace("_", "")) > DIGIT_CAP:
        raise FlabError(f"{flag} must be an exact rational with an exponent "
                        f"of at most {DIGIT_CAP} in magnitude")
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FlabError(f"{flag} must be an exact rational, got {text!r}") \
            from None


class _Given(argparse.Action):
    """Store the value and note the option as given on the command line.

    The parser is shared by every ``main`` call in a process, so this
    replaces the frozenset default ``given`` rather than mutating it: a
    parse leaves the parser as it found it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def _mode(args, context: str, needs=(), reads=()) -> None:
    """Reject, as a user error, a run of a mode that lacks an option it
    needs or is given one it does not read."""
    missing = [f"--{a}" for a in needs if getattr(args, a) is None]
    if missing:
        raise FlabError(f"{context} needs {' '.join(missing)}")
    unread = sorted(f"--{a}" for a in args.given - {*needs, *reads})
    if unread:
        raise FlabError(f"{context} does not read {' '.join(unread)}")


# ---------------------------------------------------------------------------
# subcommands: each returns its report dict


def _cmd_bounds(args) -> dict:
    from .furstenberg import FurstenbergInstance, bound_table
    F = field_build(args.p, args.e)
    inst = FurstenbergInstance(field=F, n=args.n, k=args.k, m=args.m)
    eps = _fraction(args.epsilon, "--epsilon") if args.epsilon else None
    rows = [{
        "source": r.source,
        "kind": r.kind,
        "rhs_numerator": r.rhs_num,
        "rhs_denominator": r.rhs_den,
        "value": r.value(),
        "exponent_note": r.exponent_note,
        "applicable": r.applicable,
    } for r in bound_table(inst, epsilon=eps).rows]
    return {"q": F.q, "n": args.n, "k": args.k, "m": args.m, "rows": rows}


def _cmd_verify(args) -> dict:
    from .furstenberg import is_furstenberg
    with open(args.points) as fh:
        S = formats.parse_pointset(fh.read())
    ok, payload = is_furstenberg(S, args.k, args.m, budget=args.budget)
    coord = formats._coord_strs(S.field)    # freed before the report prints
    if not ok:
        return {"ok": False, "size": len(S),
                "failing_direction": " , ".join(
                    formats._point_str(coord, r) for r in payload.basis)}
    wit = []
    for d in sorted(payload.assignment, key=lambda d: d.basis):
        flat = formats.serialize_flat(S.field, payload.assignment[d], coord)
        wit.append({"direction": flat.split(";")[0].strip(), "flat": flat,
                    "count": payload.coverage[d]})
    return {"ok": True, "size": len(S), "witnesses": wit}


def _cmd_search(args) -> dict:
    from .furstenberg import FurstenbergInstance, search_extremal
    F = field_build(args.p, args.e)
    inst = FurstenbergInstance(field=F, n=args.n, k=args.k, m=args.m)
    res = search_extremal(inst, budget=args.budget)
    report = {
        "q": F.q, "n": args.n, "k": args.k, "m": args.m,
        "exact": res.exact, "lower": res.lower, "upper": res.upper,
    }
    if res.witness is not None:
        coord = formats._coord_strs(F)
        report["witness"] = [formats._point_str(coord, p)
                             for p in res.witness.sorted()]
    return report


def _cmd_entropy(args) -> dict:
    from .entropy import check_entropic_bound, check_recursion, min_entropy
    with open(args.dist) as fh:
        dist = formats.parse_distribution(fh.read())
    ev = min_entropy(dist)
    report = {"n": dist.n, "q": dist.field.q, "total": dist.total,
              "max_weight": ev.max_weight}
    check_printable(report)     # before the entropy line spells them
    report["entropy"] = f"H = log_q({ev.total}/{ev.max_weight})"
    if args.check == "none":
        _mode(args, "entropy --check none")
    elif args.check == "bound":
        r = check_entropic_bound(dist, args.k, budget=args.budget)
        report.update({"k": args.k, "ok": r.ok, "lhs": r.lhs, "rhs": r.rhs,
                       "margin": r.margin})
    elif args.check == "recursion":
        r = check_recursion(dist, args.k, budget=args.budget)
        report.update({
            "k": args.k,
            "composed_max_weight": r.composed.max_weight,
            "direct_max_weight": r.direct.max_weight,
            "composed_le_direct": r.composed_le_direct,
            "composed_ok": r.composed_ok, "direct_ok": r.direct_ok,
        })
    return report


def _cmd_polycert(args) -> dict:
    from .polymethod import (find_vanishing_poly, NoSolutionCertificate,
                             sz_mult_audit, vanishes_to)
    F = field_build(args.p, args.e)
    if args.poly:
        _mode(args, "polycert --poly", reads=["budget"])
        with open(args.poly) as fh:
            P = formats.parse_polynomial(F, args.n, fh.read())
        audit = sz_mult_audit(P, list(F.elements()), budget=args.budget)
        return {"degree": P.degree, "terms": len(P.terms),
                "mult_sum": audit.sum, "bound": audit.bound, "ok": audit.ok}
    _mode(args, "polycert --targets", ["degree"], ["budget"])
    with open(args.targets) as fh:
        TF, n, targets = formats.parse_targets(fh.read())
    if TF != F or n != args.n:
        raise FlabError("targets file field/dimension mismatch")
    result = find_vanishing_poly(F, n, targets, args.degree,
                                 budget=args.budget)
    if isinstance(result, NoSolutionCertificate):
        return {"found": False, "equations": result.equations,
                "unknowns": result.unknowns, "rank": result.rank}
    return {"found": True, "degree": result.degree,
            "verified": vanishes_to(result, targets),
            "polynomial": formats.serialize_polynomial(result).rstrip("\n")}


def _cmd_incidence(args) -> dict:
    from .incidence import (contained_subflats, count_incidences,
                            haemers_check, kakeya_becks_census,
                            poor_flat_census)
    if args.points is not None:     # subflats reads no points
        with open(args.points) as fh:
            S = formats.parse_pointset(fh.read())
    context = f"incidence --check {args.check}"
    if args.check in ("count", "haemers"):
        _mode(args, context, ["points", "flats"])
        with open(args.flats) as fh:
            L = formats.parse_flat_family(fh.read())
        if args.check == "count":
            return {"incidences": count_incidences(S, L)}
        r = haemers_check(S, L)
        return {"incidences": r.incidences, "rhs": r.rhs,
                "radicand": r.radicand, "ok": r.ok}
    if args.check == "poor":
        _mode(args, context, ["points", "l"], ["delta", "budget"])
        r = poor_flat_census(S, args.l, _fraction(args.delta, "--delta"),
                             budget=args.budget)
        return {"poor_flats": r.incidences, "bound": r.rhs, "ok": r.ok,
                "threshold": r.extra["threshold"]}
    if args.check == "becks":
        _mode(args, context, ["points", "k"], ["delta", "budget"])
        r = kakeya_becks_census(S, args.k, _fraction(args.delta, "--delta"),
                                budget=args.budget)
        return {"rich_flats": r.incidences, "bound": r.rhs, "ok": r.ok,
                "m": r.extra["m"], "hypothesis_met": r.extra["hypothesis_met"]}
    _mode(args, context, ["flats", "l"], ["budget"])
    with open(args.flats) as fh:
        L = formats.parse_flat_family(fh.read())
    r = contained_subflats(L, args.l, budget=args.budget)
    return {"contained": r.incidences, "bound": r.rhs, "ok": r.ok,
            "k_factor": r.extra["k_factor"]}


def build_parser() -> argparse.ArgumentParser:
    """The parser for the current FLAB_BUDGET, built the first time that
    value is seen in this process."""
    return _parser(os.environ.get("FLAB_BUDGET", str(DEFAULT_BUDGET)))[0]


# the parser and its map of subcommand name to parser: they depend only on
# the FLAB_BUDGET string, and a process sees few values
@functools.lru_cache(maxsize=8)
def _parser(budget: str) -> tuple[argparse.ArgumentParser, dict]:
    ap = argparse.ArgumentParser(prog="flab",
                                 description="Exact finite-geometry lab: "
                                 "Furstenberg sets, entropy, incidences.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, fn, field=True, budgeted=True):
        """A subcommand with the report flags, plus --budget and the field
        flags when its handler reads them."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="text")
        p.add_argument("--output", "-o", default=None)
        if budgeted:
            def count(text: str) -> int:
                """--budget's type: a usage error naming --budget for a
                malformed int, in argparse's words for type=int, or for a
                negative one."""
                try:
                    value = int(text)
                except ValueError:
                    p.error(f"argument --budget: invalid int value: {text!r}")
                if value < 0:
                    p.error(f"argument --budget: must be at least 0, "
                            f"got {value}")
                return value

            # a string default goes through the type at parse time, so a
            # malformed or negative FLAB_BUDGET is a usage error too
            p.add_argument("--budget", type=count, default=budget,
                           action=_Given)
        if field:
            p.add_argument("--p", type=int, required=True)
            p.add_argument("--e", type=int, default=1)
        p.set_defaults(fn=fn, given=frozenset())
        return p

    p = command("bounds", "evaluate every bound formula", _cmd_bounds,
                budgeted=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", default=None,
                   help="exact rational, e.g. 1/10")

    p = command("verify", "verify the Furstenberg property", _cmd_verify,
                field=False)
    p.add_argument("--points", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("search", "exact extremal search K(q,n,k,m)", _cmd_search)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("entropy", "min-entropy projections and checks",
                _cmd_entropy, field=False)
    p.add_argument("--dist", required=True)
    p.add_argument("--k", type=int, default=1, action=_Given)
    p.add_argument("--check", choices=["bound", "recursion", "none"],
                   default="bound")

    p = command("polycert", "polynomial certificates and audits",
                _cmd_polycert)
    p.add_argument("--n", type=int, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--poly", default=None)
    source.add_argument("--targets", default=None)
    p.add_argument("--degree", type=int, default=None, action=_Given)

    p = command("incidence", "incidence counts and censuses", _cmd_incidence,
                field=False)
    p.add_argument("--points", default=None)
    p.add_argument("--flats", default=None, action=_Given)
    p.add_argument("--check", required=True,
                   choices=["count", "haemers", "poor", "becks", "subflats"])
    p.add_argument("--k", type=int, default=None, action=_Given)
    p.add_argument("--l", type=int, default=None, action=_Given)
    p.add_argument("--delta", default="1/2", action=_Given)

    sub.add_parser("selftest", help="run the invariant battery")
    return ap, sub.choices


def main(argv=None) -> int:
    ap, commands = _parser(os.environ.get("FLAB_BUDGET", str(DEFAULT_BUDGET)))
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in commands:
            # the top-level pass would hand the rest to this parser and
            # refuse its leftovers in these words: skip that pass
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
        else:
            args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "selftest":
            # the battery streams its lines as it goes
            from .selftest import run_selftest
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


if __name__ == "__main__":
    raise SystemExit(main())
