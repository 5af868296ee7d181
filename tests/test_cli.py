import argparse
import ast
import csv
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flab import cli, formats
from flab.cli import build_parser, emit_report, main
from flab.errors import FlabError
from flab.geometry import PointSet, all_points
from flab.gf import field_build
from flab.polymethod import Polynomial
from reference import PARSE_CORPUS, parse_args_main, run_cli


@pytest.fixture
def three_point_file(tmp_path):
    F2 = field_build(2, 1)
    S = PointSet.of(F2, 2, [(0, 0), (1, 0), (0, 1)])
    path = tmp_path / "s.pts"
    path.write_text(formats.serialize_pointset(S))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_json_contains_main_row(capsys):
    code, out, _ = run(capsys, ["bounds", "--p", "5", "--n", "4",
                                "--k", "2", "--m", "25",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    row = next(r for r in doc["rows"]
               if r["source"] == "thm_general_recursive")
    assert row["value"] == "625/16"
    assert row["applicable"] is True
    div = next(r for r in doc["rows"] if r["source"] == "thm_divisible")
    assert div["value"] == "625/4"


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, ["bounds", "--p", "2", "--n", "2",
                                "--k", "1", "--m", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("source,kind,rhs_numerator")
    assert any("trivial_pigeonhole" in ln for ln in lines[1:])


def test_verify_three_point_set(capsys, three_point_file):
    code, out, _ = run(capsys, ["verify", "--points", three_point_file,
                                "--k", "1", "--m", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["size"] == 3
    assert len(doc["witnesses"]) == 3
    assert all(w["count"] == 2 for w in doc["witnesses"])


def test_verify_failure_reports_direction(capsys, tmp_path):
    F2 = field_build(2, 1)
    S = PointSet.of(F2, 2, [(0, 0)])
    path = tmp_path / "one.pts"
    path.write_text(formats.serialize_pointset(S))
    code, out, _ = run(capsys, ["verify", "--points", str(path),
                                "--k", "1", "--m", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failing_direction"]


@pytest.fixture
def cube_file(tmp_path):
    F2 = field_build(2, 1)
    path = tmp_path / "cube.pts"
    path.write_text(formats.serialize_pointset(
        PointSet.of(F2, 3, all_points(F2, 3))))
    return str(path)


def test_verify_csv_rank_2_reads_back(capsys, cube_file):
    # a rank-2 direction serializes as "1 | 0 | 0 , 0 | 1 | 0", which
    # holds a comma, so the field must be quoted
    code, out, _ = run(capsys, ["verify", "--points", cube_file,
                                "--k", "2", "--m", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["direction", "flat", "count"]
    assert len(rows) == 1 + 7
    assert all(len(r) == 3 for r in rows)
    assert rows[1][0].count(",") == 1 and rows[1][2] == "4"


def test_verify_csv_rank_1_is_unquoted(capsys, three_point_file):
    code, out, _ = run(capsys, ["verify", "--points", three_point_file,
                                "--k", "1", "--m", "2", "--format", "csv"])
    assert code == 0
    assert out == ("direction,flat,count\n"
                   "0 | 1,0 | 1 ; 0 | 0,2\n"
                   "1 | 0,1 | 0 ; 0 | 0,2\n"
                   "1 | 1,1 | 1 ; 0 | 1,2\n")


@pytest.mark.parametrize("k", [0, 4])
def test_becks_k_outside_1_to_n_exit_2(capsys, cube_file, k):
    code, out, err = run(capsys, ["incidence", "--points", cube_file,
                                  "--check", "becks", "--k", str(k)])
    assert code == 2, err
    assert out == "" and err == f"error: k = {k} outside [1, 3]\n"


def test_search_exact_small(capsys):
    code, out, _ = run(capsys, ["search", "--p", "2", "--n", "2",
                                "--k", "1", "--m", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == 3 and len(doc["witness"]) == 3


def test_entropy_bound_check(capsys, tmp_path):
    F2 = field_build(2, 1)
    from flab.entropy import RationalDistribution
    d = RationalDistribution.uniform_on(
        F2, 2, [(0, 0), (1, 0), (0, 1)])
    path = tmp_path / "d.dist"
    path.write_text(formats.serialize_distribution(d))
    code, out, _ = run(capsys, ["entropy", "--dist", str(path),
                                "--k", "1", "--check", "bound",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["lhs"] == 16 and doc["rhs"] == 27
    # the three weight-1 points give max weight 1 before any projection
    assert doc["entropy"] == "H = log_q(3/1)"


def test_polycert_targets(capsys, tmp_path):
    F2 = field_build(2, 1)
    targets = {p: 1 for p in all_points(F2, 2)}
    path = tmp_path / "t.targets"
    path.write_text(formats.serialize_targets(F2, 2, targets))
    code, out, _ = run(capsys, ["polycert", "--p", "2", "--n", "2",
                                "--targets", str(path), "--degree", "2",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True and doc["verified"] is True


def test_polycert_rejects_a_negative_multiplicity(capsys, tmp_path):
    # the same line that entropy refuses as a weight; 0 stays vacuous
    path = tmp_path / "t.targets"
    path.write_text("5 1 2\n1 | 2 | -3\n0 | 0 | 1\n")
    polycert = ["polycert", "--p", "5", "--n", "2", "--degree", "2",
                "--targets", str(path)]
    code, out, err = run(capsys, polycert)
    assert code == 2 and out == ""
    assert err == "error: multiplicity -3 < 0 at point (1, 2)\n"
    code, _, err = run(capsys, ["entropy", "--dist", str(path)])
    assert code == 2 and "weights must be positive" in err
    path.write_text("5 1 2\n1 | 2 | 0\n0 | 0 | 1\n")
    code, out, _ = run(capsys, polycert + ["--format", "json"])
    assert code == 0 and json.loads(out)["verified"] is True


def test_polycert_rejects_a_negative_degree(capsys, tmp_path):
    path = tmp_path / "t.targets"
    path.write_text("5 1 2\n1 | 2 | 1\n")
    polycert = ["polycert", "--p", "5", "--n", "2", "--targets", str(path),
                "--format", "json", "--degree"]
    for d in ("-1", "-3"):
        code, out, err = run(capsys, polycert + [d])
        assert code == 2 and out == ""
        assert err == f"error: degree {d} < 0\n"
    code, out, _ = run(capsys, polycert + ["0"])
    assert code == 0 and json.loads(out)["found"] is False


def test_polycert_audit(capsys, tmp_path):
    F3 = field_build(3, 1)
    P = Polynomial.make(F3, 2, {(1, 1): 1})
    path = tmp_path / "p.poly"
    path.write_text(formats.serialize_polynomial(P))
    code, out, _ = run(capsys, ["polycert", "--p", "3", "--n", "2",
                                "--poly", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mult_sum"] == 6 and doc["bound"] == 6 and doc["ok"] is True


def test_incidence_haemers(capsys, three_point_file, tmp_path):
    F2 = field_build(2, 1)
    from flab.geometry import enumerate_flats
    from flab.incidence import FlatFamily
    fam = FlatFamily.of(F2, 2, enumerate_flats(F2, 2, 1))
    fpath = tmp_path / "l.flats"
    fpath.write_text(formats.serialize_flat_family(fam))
    code, out, _ = run(capsys, ["incidence", "--points", three_point_file,
                                "--flats", str(fpath), "--check", "haemers",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    # each of the 3 points lies on 3 of the 6 lines
    assert doc["ok"] is True and doc["incidences"] == 9


def test_incidence_haemers_on_a_family_of_n_flats(capsys, tmp_path):
    # binom(n-1, n)_q = 0, so the bound is |S||L| with no square root
    points, flats = tmp_path / "s.pts", tmp_path / "l.flats"
    points.write_text("2 1 2\n0 | 0\n1 | 1\n")
    flats.write_text("2 1 2\n 1 | 0 , 0 | 1 ; 0 | 0\n")
    code, out, err = run(capsys, ["incidence", "--points", str(points),
                                  "--flats", str(flats), "--check",
                                  "haemers"])
    assert code == 0, err
    assert out == "incidences = 2\nrhs = 2/1\nradicand = 0\nok = True\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--m", "1", "--k", "5"], "k = 5 outside [0, 2]"),
    (["verify", "--m", "1", "--k", "-1"], "k = -1 outside [0, 2]"),
    (["verify", "--m", "1", "--k", "1000000000"],
     "k = 1000000000 outside [0, 2]"),
    (["verify", "--m", "1", "--k", "2", "--budget", "3"],
     "4 basis entries exceed budget 3"),
    (["incidence", "--check", "becks", "--k", "2", "--budget", "3"],
     "4 basis entries exceed budget 3"),
], ids=["verify-k-5", "verify-k--1", "verify-k-1e9", "verify-rank-n",
        "becks-rank-n"])
def test_direction_scan_refusals(capsys, tmp_path, argv, message):
    # one flat of rank n = 2 fits budget 3, its 4 basis entries do not
    path = tmp_path / "s.pts"
    path.write_text("2 1 2\n0 | 0\n1 | 1\n")
    code, out, err = run(capsys, argv + ["--points", str(path)])
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_search_charges_its_scan_before_the_bound_table(capsys):
    code, out, err = run(capsys, ["search", "--p", "2", "--n", "4", "--k",
                                  "1", "--m", "2", "--budget", "5"])
    assert code == 2 and out == ""
    assert err == "error: 120 flats exceed budget 5\n"


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


@pytest.mark.parametrize("flag, value", [
    ("--format", "json"), ("--output", "@x"), ("--budget", "10")])
def test_selftest_takes_no_report_flags(capsys, tmp_path, flag, value):
    # the battery streams to stdout, so an output file would stay unwritten
    target = tmp_path / "x"
    code, out, err = run(capsys, ["selftest", flag,
                                  str(target) if value == "@x" else value])
    assert code == 2 and out == "" and flag in err
    assert not target.exists()


def test_bounds_takes_no_budget(capsys):
    code, _, err = run(capsys, ["bounds", "--p", "2", "--n", "2", "--k", "1",
                                "--m", "2", "--budget", "10"])
    assert code == 2 and "--budget" in err


def _args_read(fn: ast.FunctionDef) -> set[str]:
    return {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "args"}


SUBPARSERS = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_every_flag_is_read(command):
    # a flag that neither the handler nor main reads is a flag the user
    # can set to no effect
    funcs = {f.name: f for f in ast.parse(Path(cli.__file__).read_text()).body
             if isinstance(f, ast.FunctionDef)}
    parser = SUBPARSERS[command]
    read = _args_read(funcs["main"])
    if parser.get_default("fn") is not None:
        read |= _args_read(funcs[parser.get_default("fn").__name__])
    dests = {a.dest for a in parser._actions} - {"help"}
    assert dests <= read, f"{command} never reads {sorted(dests - read)}"
    assert "command" in read


def _search_argv(budget_flag=()):
    # q^n = 32 is past the exact limit: search charges the 32-point
    # trivial construction against the budget
    return ["search", "--p", "2", "--n", "5", "--k", "1", "--m", "2",
            *budget_flag]


def test_flab_budget_sets_the_default(capsys, monkeypatch):
    monkeypatch.setenv("FLAB_BUDGET", "10")
    code, _, err = run(capsys, _search_argv())
    assert code == 2 and "budget 10" in err
    code, out, _ = run(capsys, _search_argv(["--budget", "100"]))
    assert code == 0 and "upper = 32" in out


def test_malformed_flab_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FLAB_BUDGET", "abc")
    code, out, err = run(capsys, _search_argv())
    assert code == 2 and out == ""
    assert "argument --budget: invalid int value: 'abc'" in err
    assert "internal error" not in err
    # a command without --budget never reads it
    code, out, _ = run(capsys, ["bounds", "--p", "2", "--n", "2", "--k", "1",
                                "--m", "2"])
    assert code == 0 and "trivial_pigeonhole" in out


@pytest.mark.parametrize("command", [
    ["search", "--p", "2", "--n", "2", "--k", "1", "--m", "1"],
    ["verify", "--points", "absent.pts", "--k", "1", "--m", "1"],
    ["entropy", "--dist", "absent.dist", "--check", "none"],
    ["polycert", "--p", "2", "--n", "1", "--poly", "absent.poly"],
    ["incidence", "--check", "count", "--points", "a", "--flats", "b"]],
    ids=lambda argv: argv[0])
def test_negative_budget_is_a_usage_error(capsys, monkeypatch, command):
    # refused by the parser, before any file is read or work is charged,
    # from the flag and from FLAB_BUDGET alike
    for budget in ("-1", "-10", " -7 "):
        code, out, err = run(capsys, command + ["--budget", budget])
        assert code == 2 and out == ""
        assert err.endswith(f"error: argument --budget: must be at least 0, "
                            f"got {int(budget)}\n")
    # 0 passes the parser: whatever refuses it is the command's own check
    assert run(capsys, command + ["--budget", "0"])[2].startswith("error: ")
    monkeypatch.setenv("FLAB_BUDGET", "-5")
    code, out, err = run(capsys, command)
    assert code == 2 and out == ""
    assert err.endswith("argument --budget: must be at least 0, got -5\n")


def test_build_parser_is_shared_per_flab_budget(monkeypatch):
    monkeypatch.setenv("FLAB_BUDGET", "10")
    ten = build_parser()
    assert build_parser() is ten
    monkeypatch.setenv("FLAB_BUDGET", "11")
    eleven = build_parser()
    assert eleven is not ten
    assert eleven.parse_args(_search_argv()).budget == 11
    monkeypatch.setenv("FLAB_BUDGET", "10")
    assert build_parser() is ten
    assert ten.parse_args(_search_argv()).budget == 10


@pytest.mark.parametrize("flag", [["--k", "2"], ["--budget", "5"]],
                         ids=["k", "budget"])
def test_a_parse_leaves_the_shared_parser_as_it_found_it(capsys, tmp_path,
                                                        flag):
    # a flag given to one call must not count as given to the next
    path = tmp_path / "d.dist"
    path.write_text("2 1 2\n0 | 0 | 1\n")
    argv = ["entropy", "--dist", str(path), "--check", "none"]
    code, out, err = run(capsys, argv + flag)
    assert code == 2 and out == ""
    assert f"does not read {flag[0]}" in err
    code, out, err = run(capsys, argv)
    assert code == 0 and err == "" and "max_weight = 1" in out


def test_polycert_sources_do_not_carry_between_parses():
    ap = build_parser()
    field = ["polycert", "--p", "2", "--n", "2"]
    for _ in range(2):
        args = ap.parse_args(field + ["--poly", "p.poly"])
        assert (args.poly, args.targets, args.given) == \
            ("p.poly", None, frozenset())
        args = ap.parse_args(field + ["--targets", "t", "--degree", "1"])
        assert (args.poly, args.targets, args.given) == \
            (None, "t", {"degree"})


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_one_pass_parse_prints_what_parse_args_prints(argv):
    # argparse's wording differs between Python versions, so the check is
    # against argparse itself, not against frozen text
    assert run_cli(main, argv) == run_cli(parse_args_main, argv)


# every option string but --output, so no draw writes a file, and junk
ARG_TOKENS = sorted({s for p in SUBPARSERS.values()
                     for s in p._option_string_actions} - {"-o", "--output"})
ARG_TOKENS += ["1", "2", "3", "-1", "x", "1/2", "json", "csv", "bound",
               "none", "count", "--", "-", "", "--bogus", "-x", "--p=2",
               "--form", "--he", "--che=none"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SUBPARSERS) + ["nope", "-h", "--", "-x"]),
       st.lists(st.sampled_from(ARG_TOKENS), max_size=10))
def test_one_pass_parse_on_drawn_argvs(command, tokens):
    argv = [command, *tokens]
    assert run_cli(main, argv) == run_cli(parse_args_main, argv)


def test_a_search_argv_skips_the_top_level_pass(capsys, monkeypatch):
    ap = build_parser()
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = ap.parse_known_args
    monkeypatch.setattr(ap, "parse_known_args", spy)
    code, out, _ = run(capsys, ["search", "--p", "2", "--n", "4", "--k", "3",
                                "--m", "1", "--format", "json"])
    assert code == 0 and json.loads(out)["exact"] == 1
    assert calls == []


@pytest.mark.parametrize("argv, text", [
    (["--degree", "100000", "--targets"], "5 1 2\n0 | 0 | 1\n"),
    (["--poly"], "1 : 100000 0\n"),
], ids=["interpolation", "audit"])
def test_polycert_charges_the_default_budget(capsys, tmp_path, monkeypatch,
                                             argv, text):
    # degree 10^5 in two variables has C(100002, 2) ~ 5e9 monomials: the
    # charge must refuse it before a single row or point is built
    monkeypatch.delenv("FLAB_BUDGET", raising=False)
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run(capsys, ["polycert", "--p", "5", "--n", "2",
                                  *argv, str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceed budget 10000000" in err


@pytest.mark.parametrize("argv, text", [
    (["verify", "--k", "1", "--m", "1", "--points"], "2 1 20000\n"),
    (["incidence", "--check", "poor", "--l", "1", "--points"],
     "2 1 20000\n"),
    (["verify", "--k", "1", "--m", "1", "--points"], "2 1 1000000000\n"),
    (["verify", "--k", "1000000000", "--m", "1", "--points"],
     "2 1 1000000000\n"),
    (["search", "--p", "2", "--n", "20000", "--k", "1", "--m", "1"], None),
    (["search", "--p", "2", "--n", "20000", "--k", "19999", "--m", "1"],
     None),
    (["polycert", "--p", "5", "--n", "5000", "--degree", "1", "--targets"],
     "5 1 5000\n"),
    (["polycert", "--p", "5", "--n", "3", "--degree", "400", "--budget",
      "100", "--targets"], "5 1 3\n"),
], ids=["verify-n-20000", "poor-n-20000", "verify-n-1e9",
        "verify-rank-n-1e9",
        "search-construction", "search-bound-table",
        "interpolation-no-equations", "interpolation-no-equations-budget"])
def test_huge_work_is_refused_before_it_is_counted_in_full(
        capsys, tmp_path, monkeypatch, argv, text):
    # counts past 4300 digits print as 2^b, and the flats of F_2^(10^9)
    # are refused on bit length alone
    monkeypatch.delenv("FLAB_BUDGET", raising=False)
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = argv + [str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceed budget" in err


def test_verify_rank_1200_direction(capsys, tmp_path):
    # the one rank-n direction takes n^2 steps to build, not n^3
    path = tmp_path / "bare"
    path.write_text("2 1 1200\n")
    code, out, err = run(capsys, ["verify", "--points", str(path),
                                  "--k", "1200", "--m", "1"])
    assert code == 0, err
    identity = " , ".join(" | ".join(str(int(i == j)) for j in range(1200))
                          for i in range(1200))
    assert out == f"ok = False\nsize = 0\nfailing_direction = {identity}\n"


@pytest.mark.parametrize("p, n, code", [(2, 15000, 2), (3, 9100, 2),
                                        (2, 14000, 0)])
def test_haemers_refuses_terms_past_the_digit_cap(capsys, tmp_path, p, n, code):
    # one point and one rank-0 flat give rhs = 1/q^n + 1: 2^15000 is refused
    # on bit length, 3^9100 (4342 digits) once built, 2^14000 prints
    origin = " | ".join(["0"] * n)
    points, flats = tmp_path / "s.pts", tmp_path / "l.flats"
    points.write_text(f"{p} 1 {n}\n{origin}\n")
    flats.write_text(f"{p} 1 {n}\n ; {origin}\n")
    got, out, err = run(capsys, ["incidence", "--points", str(points),
                                 "--flats", str(flats), "--check", "haemers"])
    assert got == code, err
    if code == 2:
        assert out == "" and err.startswith("error:") \
            and "more than 4300 digits" in err
    else:
        assert out.startswith("incidences = 1\nrhs = ")


def test_search_bound_table_of_a_million_bits_fits_the_budget(capsys):
    code, out, err = run(capsys, ["search", "--p", "2", "--n", "1000",
                                  "--k", "999", "--m", "1", "--format",
                                  "json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["upper"] == 2 and len(doc["witness"]) == 2


def test_interpolation_in_1500_variables(capsys, tmp_path):
    # the monomial enumeration is iterative, not 1500 generators deep
    path = tmp_path / "t.targets"
    path.write_text("5 1 1500\n" + " | ".join(["1"] * 1500) + " | 1\n")
    code, out, err = run(capsys, ["polycert", "--p", "5", "--n", "1500",
                                  "--degree", "1", "--format", "json",
                                  "--targets", str(path)])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["found"] and doc["verified"] and doc["degree"] == 1


def test_exit_code_validation_error(capsys, tmp_path):
    code, _, err = run(capsys, ["verify", "--points",
                                str(tmp_path / "missing.pts"),
                                "--k", "1", "--m", "2"])
    assert code == 2
    assert "error" in err


def test_exit_code_bad_arguments(capsys):
    code, _, _ = run(capsys, ["bounds", "--p", "2"])
    assert code == 2


def test_exit_code_bad_instance(capsys):
    code, _, err = run(capsys, ["bounds", "--p", "2", "--n", "2",
                                "--k", "2", "--m", "1"])
    assert code == 2


def test_bounds_huge_instance_is_exact(capsys):
    # m^n = 251^200 overflows a float; the row values need exact roots
    code, out, err = run(capsys, ["bounds", "--p", "251", "--n", "200",
                                  "--k", "1", "--m", "251"])
    assert code == 0, err
    assert "source=thm_general_recursive" in out


def test_bounds_pure_incidence_value_subtracts_the_root(capsys):
    def value(argv):
        code, out, err = run(capsys, ["bounds", "--format", "json"] + argv)
        assert code == 0, err
        return next(r["value"] for r in json.loads(out)["rows"]
                    if r["source"] == "thm_pure_incidence")
    # 48 - sqrt(1024) = 16; 3 - sqrt(24) is irrational
    assert value(["--p", "2", "--e", "2", "--n", "3", "--k", "2",
                  "--m", "16"]) == "16/1"
    assert value(["--p", "2", "--n", "3", "--k", "2", "--m", "3"]) is None
    # a negative rational part: -4 - sqrt(64) = -12
    assert value(["--p", "2", "--n", "3", "--k", "1", "--m", "1"]) == "-12/1"


def test_bounds_value_is_read_off_the_reduced_fraction(capsys):
    # thm_divisible is (8/8)^(1/2) = 1 at q = 2, n = 3, k = 2, m = 2
    code, out, err = run(capsys, ["bounds", "--p", "2", "--n", "3", "--k",
                                  "2", "--m", "2", "--format", "json"])
    assert code == 0, err
    row = next(r for r in json.loads(out)["rows"]
               if r["source"] == "thm_divisible")
    assert (row["rhs_numerator"], row["rhs_denominator"]) == (8, 8)
    assert row["value"] == "1/1"


@pytest.mark.parametrize("n,k", [(5000, 2), (10 ** 9, 2),
                                 (10 ** 9, 10 ** 9 - 1), (4700, 2)],
                         ids=["n-5000", "n-1e9", "k-1e9", "n-4700"])
def test_bounds_past_the_digit_cap_exit_2(capsys, n, k):
    # a row number of more than 4300 digits cannot be printed
    code, out, err = run(capsys, ["bounds", "--p", "3", "--n", str(n),
                                  "--k", str(k), "--m", "5"])
    assert code == 2 and out == ""
    assert "4300 digits" in err


NINES = "9" * 4300      # the longest int a default Python parses
ORIGIN = " | ".join(["0"] * 9100)


@pytest.mark.parametrize("argv, files, key", [
    (["entropy", "--check", "bound", "--dist", "@d"],
     {"d": f"2 1 2\n0 | 0 | {NINES[:4000]}\n0 | 1 | 1\n"}, "lhs"),
    (["entropy", "--check", "none", "--dist", "@d"],
     {"d": f"2 1 2\n0 | 0 | {NINES}\n0 | 1 | {NINES}\n"}, "total"),
    (["incidence", "--check", "poor", "--l", "1", "--delta",
      "1/1" + "0" * 4000, "--points", "@s"],
     {"s": "2 1 2\n0 | 0\n0 | 1\n1 | 0\n"}, "bound"),
    (["bounds", "--p", "3", "--n", "4700", "--k", "2", "--m", "5"], {},
     "rows"),
    (["bounds", "--p", "3", "--n", "3", "--k", "2", "--m", "5",
      "--epsilon", f"1/{NINES}"], {}, "rows"),
    (["incidence", "--check", "haemers", "--points", "@s", "--flats", "@l"],
     {"s": f"3 1 9100\n{ORIGIN}\n", "l": f"3 1 9100\n ; {ORIGIN}\n"},
     "rhs"),
], ids=["entropy-bound", "entropy-total", "poor-bound", "bounds-rows",
        "bounds-epsilon-rows", "haemers-rhs"])
def test_digit_cap_refuses_a_report_before_it_prints(capsys, tmp_path, argv,
                                                     files, key):
    # each number read has at most 4300 digits, and the report holds one of
    # more: refused by comparing numbers, so the outcome is the same
    # whatever PYTHONINTMAXSTRDIGITS says (CI runs these under 0 too)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    for fmt in ("text", "json"):
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert (code, out) == (2, ""), err
        assert err == f"error: {key} has a number of more than 4300 digits\n"


LONG = "9" * 4400
TOO_LONG_INT = "expected an integer of at most 4300 digits, got 4400 digits"


@pytest.mark.parametrize("argv, files, message", [
    (["polycert", "--p", "3", "--n", "1", "--degree", "1", "--targets",
      "@t"], {"t": f"3 1 1\n0 | {LONG}\n"}, TOO_LONG_INT),
    (["entropy", "--check", "none", "--dist", "@d"],
     {"d": f"2 1 2\n0 | 0 | {LONG}\n0 | 1 | 1\n"}, TOO_LONG_INT),
    (["verify", "--points", "@s", "--k", "1", "--m", "1"],
     {"s": f"2 1 {LONG}\n"}, TOO_LONG_INT),
    (["incidence", "--check", "poor", "--l", "1", "--delta",
      "1/1" + "0" * 4400, "--points", "@s"],
     {"s": "2 1 2\n0 | 0\n0 | 1\n1 | 0\n"},
     "--delta must be an exact rational of at most 4300 digits per number, "
     "got a number of 4401 digits"),
    (["bounds", "--p", "3", "--n", "3", "--k", "2", "--m", "5",
      "--epsilon", f"0.{LONG}"], {},
     "--epsilon must be an exact rational of at most 4300 digits per "
     "number, got a number of 4400 digits"),
], ids=["polycert-multiplicity", "entropy-weight", "verify-header",
        "poor-delta", "bounds-epsilon"])
def test_digit_cap_refuses_a_long_token_before_reading_it(
        capsys, tmp_path, argv, files, message):
    # refused by counting digits before int() or Fraction() reads the
    # token, whatever PYTHONINTMAXSTRDIGITS says, and the token is not
    # echoed
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_digit_cap_counts_digits_not_underscores(capsys, tmp_path):
    # 10^4299 written with an underscore between digits is a token of 8599
    # characters and 4300 digits, which int() reads under any limit
    weight = "1" + "_0" * 4299
    (tmp_path / "d").write_text(f"2 1 2\n0 | 0 | {weight}\n0 | 1 | 1\n")
    code, out, err = run(capsys, ["entropy", "--check", "none", "--dist",
                                  str(tmp_path / "d")])
    assert code == 0, err
    assert out.startswith(f"n = 2\nq = 2\ntotal = 1{'0' * 4298}1\n")


POOR = ["incidence", "--check", "poor", "--l", "1", "--points", "@s"]
THREE_POINTS = "2 1 2\n0 | 0\n0 | 1\n1 | 0\n"
BOUNDS_EPSILON = ["bounds", "--p", "3", "--n", "3", "--k", "2", "--m", "5"]


@pytest.mark.parametrize("argv, flag", [
    (POOR, "--delta"), (BOUNDS_EPSILON, "--epsilon")])
@pytest.mark.parametrize("value", [
    "1e-4301", "1E+4301", "1e-10000000", " -.5e1_0000 ", "2.e-0000004301",
    "1/2e4301"])
def test_digit_cap_refuses_a_long_exponent_before_expanding_it(
        capsys, tmp_path, monkeypatch, argv, flag, value):
    # Fraction() would expand the exponent into a power of ten; it is
    # never called, so a flag it would refuse (1/2e4301) is refused alike
    import fractions

    def refused(*args):
        raise AssertionError("Fraction() called")

    monkeypatch.setattr(fractions, "Fraction", refused)
    (tmp_path / "s").write_text(THREE_POINTS)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, argv + [flag, value])
    assert (code, out, err) == (2, "", f"error: {flag} must be an exact "
                                "rational with an exponent of at most 4300 "
                                "in magnitude\n")


@pytest.mark.parametrize("argv, flag, key", [
    (POOR, "--delta", "bound"), (BOUNDS_EPSILON, "--epsilon", "rows")])
def test_digit_cap_reads_an_exponent_within_it_as_before(
        capsys, tmp_path, argv, flag, key):
    # an exponent of at most 4300 reads as the rational it spells; at 4300
    # the report's number is refused as the same number written out is, and
    # a flag Fraction() refuses keeps its message
    (tmp_path / "s").write_text(THREE_POINTS)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    for spelled, value in [("25E-2", "1/4"), ("0.15e+0", "3/20"),
                           ("1e-4299", "1/1" + "0" * 4299)]:
        assert run(capsys, argv + [flag, spelled]) == \
            run(capsys, argv + [flag, value]), spelled
    assert run(capsys, argv + [flag, "1e-4300"]) == \
        (2, "", f"error: {key} has a number of more than 4300 digits\n")
    assert run(capsys, argv + [flag, "1/2e5"]) == \
        (2, "", f"error: {flag} must be an exact rational, got '1/2e5'\n")


def test_search_charges_its_nodes(capsys):
    # K(2,4,2,4) = 13 visits 368 search nodes
    argv = ["search", "--p", "2", "--n", "4", "--k", "2", "--m", "4"]
    code, out, err = run(capsys, argv + ["--budget", "367"])
    assert code == 2 and out == ""
    assert "368 search nodes exceed budget 367" in err
    code, out, _ = run(capsys, argv + ["--budget", "368"])
    assert code == 0 and "exact = 13" in out


def test_search_trivial_construction_respects_budget(capsys):
    # q^n = 32 is past the exact limit, so search returns the 32-point
    # trivial construction, which a budget of 10 does not cover
    argv = ["search", "--p", "2", "--n", "5", "--k", "1", "--m", "2"]
    code, _, err = run(capsys, argv + ["--budget", "10"])
    assert code == 2
    assert "budget" in err
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "upper = 32" in out


def test_deterministic_bytes(capsys):
    argv = ["bounds", "--p", "3", "--n", "3", "--k", "1", "--m", "3",
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_output_file_flag(capsys, tmp_path, three_point_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--points", three_point_file,
                                "--k", "1", "--m", "2", "--format", "json",
                                "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["ok"] is True


def _bad_digit(inst, epsilon=None):
    raise ValueError("bad digit")


def test_a_bug_exits_1_as_an_internal_error(capsys, monkeypatch):
    # no input reaches F.inv(0), so a run that does has hit a bug: exit 1,
    # not the exit 2 of a refused input; the digit cap catches no
    # ValueError, so one raised in a handler is a bug too
    from flab import furstenberg
    for table, shown in (
            (lambda inst, epsilon=None: inst.field.inv(0),
             "ZeroDivisionError('inverse of 0')"),
            (_bad_digit, "ValueError('bad digit')")):
        monkeypatch.setattr(furstenberg, "bound_table", table)
        code, out, err = run(capsys, ["bounds", "--p", "5", "--n", "2",
                                      "--k", "1", "--m", "2"])
        assert (code, out) == (1, "")
        assert err == f"internal error: {shown}\n"


def test_emit_report_csv_requires_rows():
    with pytest.raises(FlabError, match="^this report has no tabular form$"):
        emit_report({"a": 1}, "csv")
    with pytest.raises(FlabError, match="^unknown format 'yaml'$"):
        emit_report({"a": 1}, "yaml")


def test_emit_report_text_fractions():
    from fractions import Fraction
    text = emit_report({"bound": Fraction(625, 16)}, "text")
    assert text == "bound = 625/16\n"


@pytest.mark.parametrize("argv", [
    ["incidence", "--points", "@s.pts", "--check", "poor"],
    ["incidence", "--points", "@s.pts", "--check", "becks"],
    ["incidence", "--points", "@s.pts", "--check", "count"],
    ["polycert", "--p", "2", "--n", "2", "--targets", "@t.targets"],
    ["polycert", "--p", "2", "--n", "2"],
    ["incidence", "--points", "@s.pts", "--flats", "@l.flats", "--check",
     "count", "--delta", "abc", "--k", "9", "--l", "9"],
    ["incidence", "--points", "@s.pts", "--flats", "@l.flats", "--check",
     "haemers", "--budget", "5"],
    ["incidence", "--points", "@s.pts", "--check", "poor", "--l", "1",
     "--k", "1"],
    ["polycert", "--p", "2", "--n", "2", "--poly", "@p.poly", "--degree",
     "7"],
    ["entropy", "--dist", "@d.dist", "--check", "none", "--k", "1"],
    ["incidence", "--flats", "@l.flats", "--check", "count"],
    ["incidence", "--flats", "@l.flats", "--check", "haemers"],
    ["incidence", "--check", "poor", "--l", "1"],
    ["incidence", "--check", "becks", "--k", "1"],
], ids=["poor-without-l", "becks-without-k", "count-without-flats",
        "targets-without-degree", "neither-poly-nor-targets",
        "count-with-census-options", "haemers-with-budget", "poor-with-k",
        "poly-with-degree", "entropy-none-with-k", "count-without-points",
        "haemers-without-points", "poor-without-points",
        "becks-without-points"])
def test_missing_required_option_is_a_user_error(capsys, tmp_path,
                                                 three_point_file, argv):
    # a mode rejects an option it needs and lacks, or is given and ignores
    F2 = field_build(2, 1)
    targets = tmp_path / "t.targets"
    targets.write_text(formats.serialize_targets(F2, 2, {(0, 0): 1}))
    (tmp_path / "l.flats").write_text("2 1 2\n0 | 1 ; 0 | 0\n")
    (tmp_path / "p.poly").write_text("1 : 1 0\n")
    (tmp_path / "d.dist").write_text("2 1 2\n0 | 0 | 1\n")
    files = {"@s.pts": three_point_file, "@t.targets": str(targets),
             **{f"@{n}": str(tmp_path / n)
                for n in ("l.flats", "p.poly", "d.dist")}}
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == 2, err
    assert out == "" and "internal error" not in err
    assert "--" in err


def test_subflats_reads_no_points(capsys, tmp_path):
    # F_2^2 is its own one 2-flat: it holds all 6 lines, and the K factor
    # of a family of n-flats is q^(n-l), the whole (n-l)-space
    path = tmp_path / "plane.flats"
    path.write_text("2 1 2\n1 | 0 , 0 | 1 ; 0 | 0\n")
    code, out, err = run(capsys, ["incidence", "--check", "subflats",
                                  "--l", "1", "--flats", str(path)])
    assert (code, err) == (0, "")
    assert out == "contained = 6\nbound = 6/1\nok = True\nk_factor = 2\n"
    code, _, err = run(capsys, ["incidence", "--check", "count",
                                "--flats", str(path)])
    assert (code, err) == (2, "error: incidence --check count needs "
                              "--points\n")


@pytest.mark.parametrize("argv, name, text", [
    (["verify", "--k", "1", "--m", "1", "--points"], "s.pts",
     "5 1 2\n7 | 1\n"),
    (["verify", "--k", "1", "--m", "1", "--points"], "s.pts",
     "5 1 2\n1 | x\n"),
    (["entropy", "--dist"], "d.dist", "2 1 2\n0 | 1 | 1.5\n"),
    (["polycert", "--p", "2", "--n", "2", "--degree", "1", "--targets"],
     "t.targets", "2 1 2\n0 | 1 | 1\n1\n"),
    (["polycert", "--p", "2", "--n", "2", "--degree", "1", "--targets"],
     "t.targets", "2 1 2\n0 | 1 | two\n"),
    (["verify", "--k", "1", "--m", "1", "--points"], "s.pts", "x 1 2\n"),
    (["verify", "--k", "1", "--m", "1", "--points"], "s.pts", ""),
    (["verify", "--k", "1", "--m", "1", "--points"], "s.pts", "2 2 2\n"),
    (["incidence", "--points", "@s.pts", "--check", "count", "--flats"],
     "f.flats", "2 1 2\n0 1 | 1 0\n"),
    (["polycert", "--p", "2", "--n", "2", "--poly"], "p.poly",
     "1 : x 0\n"),
    (["polycert", "--p", "2", "--n", "2", "--poly"], "p.poly",
     "1 : -1 0\n"),
    (["verify", "--k", "1", "--m", "1", "--points"], "s.pts",
     "2 1 2\n0 | 1\n0 | 1\n"),
    (["polycert", "--p", "2", "--n", "2", "--degree", "2", "--targets"],
     "t.targets", "2 1 2\n0 | 1 | 1\n0 | 1 | 2\n"),
    (["entropy", "--dist"], "d.dist", "2 1 2\n0 | 1 | 1\n0 | 1 | 3\n"),
    (["polycert", "--p", "2", "--n", "2", "--poly"], "p.poly",
     "1 : 1 0\n1 : 1 0\n"),
    (["polycert", "--p", "5", "--n", "-1", "--degree", "0", "--targets"],
     "t.targets", "5 1 -1\n"),
    (["polycert", "--p", "2", "--n", "0", "--poly"], "p.poly", "1 : \n"),
], ids=["digit-out-of-range", "non-integer-digit", "non-integer-weight",
        "short-targets-line", "non-integer-target-weight",
        "non-integer-header", "empty-file", "missing-modulus-line",
        "flat-without-semicolon", "non-integer-exponent",
        "negative-exponent", "duplicate-point", "duplicate-target",
        "duplicate-distribution-point", "duplicate-monomial",
        "negative-dimension", "polynomial-in-no-variables"])
def test_malformed_input_files_exit_2(capsys, tmp_path, three_point_file,
                                      argv, name, text):
    path = tmp_path / name
    path.write_text(text)
    argv = [three_point_file if a == "@s.pts" else a for a in argv]
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 2, err
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("check", [["count"], ["haemers"],
                                   ["subflats", "--l", "1"]],
                         ids=["count", "haemers", "subflats"])
@pytest.mark.parametrize("line", ["1 | 0 | 1 ; 0 | 1", "1 | 0 ; 0 | 0 | 1",
                                  " ; 0 | 1 | 1", "1 | 0 ; 1", "1 ; 0 | 1"],
                         ids=["long-row", "long-shift", "long-point",
                              "short-shift", "short-row"])
def test_flat_of_the_wrong_dimension_exits_2(capsys, tmp_path,
                                             three_point_file, check, line):
    # each direction row and the shift must have exactly n coordinates
    path = tmp_path / "l.flats"
    path.write_text(f"2 1 2\n{line}\n")
    code, out, err = run(capsys, ["incidence", "--points", three_point_file,
                                  "--flats", str(path), "--check", *check])
    assert (code, out) == (2, "")
    assert err == f"error: expected 2 coordinates per row and shift: {line!r}\n"


@pytest.mark.parametrize("argv", [
    ["incidence", "--points", "@s.pts", "--check", "poor", "--l", "1",
     "--delta", "abc"],
    ["bounds", "--p", "2", "--n", "2", "--k", "1", "--m", "2",
     "--epsilon", "zz"],
    ["bounds", "--p", "2", "--n", "2", "--k", "1", "--m", "2",
     "--epsilon", "1/0"],
    ["verify", "--points", "@s.pts", "--k", "1", "--m", "0"],
    ["bounds", "--p", str(10 ** 30 + 57), "--n", "2", "--k", "1",
     "--m", "2"],
    ["bounds", "--p", "2", "--e", str(10 ** 12), "--n", "2", "--k", "1",
     "--m", "2"],
], ids=["delta-not-rational", "epsilon-not-rational", "epsilon-over-zero",
        "m-below-1", "huge-p", "huge-e"])
def test_bad_numeric_flags_exit_2(capsys, three_point_file, argv):
    argv = [three_point_file if a == "@s.pts" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2, err
    assert out == "" and err.startswith("error:")
