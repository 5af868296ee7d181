"""Source hygiene: every name a flab or test module imports is used in that
module; one function writes stdout and one raises BudgetExceeded."""

import ast
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


def _raises_budget_exceeded(node: ast.AST) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            if isinstance(exc, ast.Name) and exc.id == "BudgetExceeded":
                return True
    return False


def test_only_geometry_charge_raises_budget_exceeded():
    # one check decides every budget refusal and formats its message
    raisers = [name for name, m in _definitions()
               if _raises_budget_exceeded(m)]
    assert raisers == ["geometry.charge"]
