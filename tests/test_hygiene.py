"""Source hygiene: every name a flab or test module imports is used in that
module; one function writes stdout and one raises BudgetExceeded; only
cli compares a number with 10^DIGIT_CAP, on the report; flab has
two exception classes and raises only those and a few builtins; a command
loads only the flab modules it runs, only a command that makes a Fraction
loads fractions, and no module loads dataclasses."""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flab

MODULES = sorted(p for d in (Path(flab.__file__).parent, Path(__file__).parent)
                 for p in d.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, and string annotations such as "Subspace"."""
    return {n.id if isinstance(n, ast.Name) else n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) or isinstance(n, ast.Constant)
            and isinstance(n.value, str) and n.value.isidentifier()}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


def _writes_stdout(node: ast.AST) -> bool:
    """The subtree names sys.stdout or prints without a file argument."""
    for n in ast.walk(node):
        if (isinstance(n, ast.Attribute) and n.attr == "stdout"
                and isinstance(n.value, ast.Name) and n.value.id == "sys"):
            return True
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "print"
                and not any(k.arg == "file" for k in n.keywords)):
            return True
    return False


def _definitions():
    """(module.name, node) of every top-level statement and class member
    in src/flab."""
    for path in Path(flab.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for m in members:
                yield f"{path.stem}.{getattr(m, 'name', '<module>')}", m


def test_only_cli_main_writes_stdout():
    # one writer keeps every report, and nothing else, on stdout
    writers = {name for name, m in _definitions() if _writes_stdout(m)}
    assert writers == {"cli.main"}


def _name(node: ast.AST | None) -> str | None:
    """The name a base class or raised exception spells, call or not."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _raises_budget_exceeded(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Raise) and _name(n.exc) == "BudgetExceeded"
               for n in ast.walk(node))


def test_only_geometry_charge_raises_budget_exceeded():
    # one check decides every budget refusal and formats its message
    raisers = [name for name, m in _definitions()
               if _raises_budget_exceeded(m)]
    assert raisers == ["geometry.charge"]


def test_only_scan_directions_runs_the_walk():
    # one entry point, so every direction walk is range-checked and charged
    callers = [name for name, m in _definitions() for n in ast.walk(m)
               if isinstance(n, ast.Call) and _name(n.func) == "_walk"]
    assert callers == ["geometry.scan_directions"]


def test_only_cli_builds_the_digit_limit():
    # whether a report prints is decided once, in cli, on the report: a
    # module below it refuses only on bit length, before building a number
    builders = [name for name, m in _definitions() for n in ast.walk(m)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                and _name(n.right) == "DIGIT_CAP"]
    assert builders == ["cli.<module>"]


def _src_nodes():
    """(module, node) of every AST node in src/flab."""
    for path in sorted(Path(flab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.stem, node


def test_errors_defines_exactly_the_two_refusals():
    # every refusal of outside input is a FlabError (exit 2); a budget
    # refusal is the one a caller can act on, by raising --budget
    classes = {node.name: [_name(b) for b in node.bases]
               for module, node in _src_nodes()
               if module == "errors" and isinstance(node, ast.ClassDef)}
    assert classes == {"FlabError": ["Exception"],
                       "BudgetExceeded": ["FlabError"]}


def _is_exception(name: str | None) -> bool:
    if name in ("FlabError", "BudgetExceeded"):
        return True
    cls = getattr(builtins, name or "", None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def test_no_other_module_defines_an_exception():
    found = [f"{module}.{node.name}" for module, node in _src_nodes()
             if module != "errors" and isinstance(node, ast.ClassDef)
             and any(_is_exception(_name(b)) for b in node.bases)]
    assert not found


# AssertionError guards the unreachable; SystemExit is the cli __main__ guard;
# ZeroDivisionError from inv(0) can only come from a bug, so exits 1
ALLOWED_RAISES = {"FlabError", "BudgetExceeded", "AssertionError",
                  "ZeroDivisionError", "SystemExit"}


def test_every_raise_names_an_allowed_exception():
    bad = [f"{module}:{node.lineno} raises {_name(node.exc)}"
           for module, node in _src_nodes()
           if isinstance(node, ast.Raise)
           and _name(node.exc) not in ALLOWED_RAISES]
    assert not bad


def test_no_module_imports_dataclasses():
    # records are NamedTuples: dataclasses costs a one-shot process ~40 ms
    for path in Path(flab.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        modules = {a.name for n in nodes if isinstance(n, ast.Import)
                   for a in n.names}
        modules |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
        assert "dataclasses" not in modules, path.name


# Runs `flab` with argv in a fresh interpreter; prints the exit code, then
# the flab modules (and fractions) loaded by `import flab.cli` and those the
# command added.
LOADS = """import contextlib, io, sys
def loaded():
    return {m for m in sys.modules if m.startswith("flab") or m == "fractions"}
import flab.cli
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = flab.cli.main(sys.argv[1:])
print(code)
print(*sorted(before))
print(*sorted(loaded() - before))
"""


def _loads(*argv) -> tuple[set[str], set[str]]:
    src = str(Path(flab.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", LOADS, *argv],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    code, cli, added = out.stdout.split("\n")[:3]
    assert code == "0", out.stderr
    return set(cli.split()), set(added.split())


INPUTS = {
    "s.pts": "2 1 2\n0 | 0\n1 | 0\n0 | 1\n",
    "d.dist": "2 1 2\n0 | 0 | 1\n1 | 0 | 2\n0 | 1 | 1\n",
    "l.flats": "2 1 2\n1 | 0 ; 0 | 0\n1 | 1 ; 0 | 1\n",
    "p.poly": "1 : 1 0\n2 : 0 2\n",
    "k.family": "2 1 3\n" + "".join(f"{d} ; 0 | 0 | 0\n" for d in [
        "0 | 1 | 0 , 0 | 0 | 1", "1 | 0 | 0 , 0 | 0 | 1",
        "1 | 0 | 0 , 0 | 1 | 0", "1 | 0 | 0 , 0 | 1 | 1",
        "1 | 0 | 1 , 0 | 1 | 0", "1 | 0 | 1 , 0 | 1 | 1",
        "1 | 1 | 0 , 0 | 0 | 1"]),
}
FIELD = ["--p", "2", "--n", "2", "--k", "1", "--m", "2"]


INCIDENCE = ["incidence", "--points", "@s.pts", "--flats", "@l.flats"]


# polycert, verify and incidence --check count make no Fraction, so they
# never load fractions (nor the decimal and numbers modules that fractions
# imports); of the incidence checks, only haemers (sqrt_up) and subflats
# (the exact search) load furstenberg
@pytest.mark.parametrize("argv, added", [
    (["verify", "--points", "@s.pts", "--k", "1", "--m", "2"],
     {"flab.furstenberg"}),
    (["search", *FIELD], {"flab.furstenberg", "fractions"}),
    (["bounds", *FIELD], {"flab.furstenberg", "fractions"}),
    (["entropy", "--dist", "@d.dist"], {"flab.entropy", "fractions"}),
    (["polycert", "--p", "3", "--n", "2", "--poly", "@p.poly"],
     {"flab.polymethod"}),
    ([*INCIDENCE, "--check", "count"], {"flab.incidence"}),
    ([*INCIDENCE, "--check", "haemers"],
     {"flab.incidence", "flab.furstenberg", "fractions"}),
    (["incidence", "--points", "@s.pts", "--check", "poor", "--l", "1"],
     {"flab.incidence", "fractions"}),
    (["incidence", "--points", "@s.pts", "--check", "becks", "--k", "1"],
     {"flab.incidence", "fractions"}),
    (["incidence", "--flats", "@k.family", "--check", "subflats", "--l",
      "1"], {"flab.incidence", "flab.furstenberg", "fractions"}),
], ids=["verify", "search", "bounds", "entropy", "polycert", "incidence",
        "incidence-haemers", "incidence-poor", "incidence-becks",
        "incidence-subflats"])
def test_each_command_loads_only_its_own_module(tmp_path, argv, added):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    cli, got = _loads(*argv)
    assert cli == {"flab", "flab.cli", "flab.errors", "flab.formats",
                   "flab.geometry", "flab.gf"}
    assert got == added
