"""Golden bytes: every invocation frozen in tests/golden/*.json gives the
same SHA-256 of stdout, SHA-256 of stderr and exit code, replayed in one
process through cli.main.

Each file maps an argv, its words joined by spaces, to
{"stdout": sha256, "stderr": sha256, "exit": code}.  search_bounds.json
holds the exact search instances in json and text, and the bounds of the
same instances in json, csv and text.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from flab import cli

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def digests(argv: list[str]) -> dict:
    """The SHA-256 of stdout and stderr and the exit code of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_outputs_replay(path, monkeypatch):
    monkeypatch.delenv("FLAB_BUDGET", raising=False)
    frozen = json.loads(path.read_text())
    changed = [argv for argv, want in frozen.items()
               if digests(argv.split()) != want]
    assert not changed, f"{len(changed)} of {len(frozen)} changed: {changed}"
