"""Golden bytes: every invocation frozen in tests/golden/*.json gives the
same SHA-256 of stdout, SHA-256 of stderr and exit code, replayed in one
process through cli.main.

Each file maps an argv, its words joined by spaces, to
{"stdout": sha256, "stderr": sha256, "exit": code}, run in tests/golden,
so a file named in an argv is read from there.  search_bounds.json holds
the exact search instances in json and text, and the bounds of the same
instances in json, csv and text.  subflats.json holds incidence --check
subflats on the *.family files: one k-flat per direction of F_2^3 to F_2^6,
F_3^3, F_3^4, F_4^3 and F_5^3 for k = n - 1, n - 2 (n >= 4) and n, each l
in [1, k - 1], in json and text; and its refusals of an l out of range, of
a family that is not one flat per direction, and of a bare header.  F_2^6
runs in json only and without k = n - 2, whose 651 4-flats would double the
replay's time of about 1 s.  scans.json holds the scan-driven commands on
the scans-* files over F_2, F_3, F_4 (n = 3), F_5 and F_9 (n = 2): verify
at every k in [0, n] and m = 1, 2 in json, text and csv, and k = n + 1;
verify --m 2 on sets that fail at several directions of one pivot set but
not at its first, so the walk order within a pivot set shows in the
report; entropy --check none, bound and recursion; incidence --check count,
haemers, poor and becks; the same walks over a bare header; and a short
point, a --poly file with a blank line, entropy --check recursion at
k = n and a field past 65536.  polycert.json holds polycert on the
polycert-* files over F_2, F_3, F_4, F_5 and F_9 at n = 1 to 3, in json
and text: a --poly audit, and --targets at degrees 0, 1, 3 and 6, found
and verified or not found; and its refusals of a negative multiplicity, a
negative degree, a targets field or dimension mismatch and the zero
polynomial, and a targets file with blank lines.  budgets.json holds two
runs per budget charge, at --budget work - 1, refused at that charge, and
at --budget work, past it: verify flats and basis entries (k = n); search
flats, bound-table bits, construction points and nodes (the counts
test_search_node_counts_are_budget_edges pins); entropy bound and
recursion flats; the poor and becks censuses' flats; subflat pairs; and
polycert interpolation entries and audit pairs.  refusals.json holds a
fixed sample of the CLI fuzz's refusals (test_cli_fuzz's invocations,
drawn once): one run per message shape, exit 2 with one line of stderr in
flab's own words, on the files under golden/refusals.  argparse's usage
errors are left out, as their wording changes between Python versions;
test_cli checks them against argparse's own parse_args instead.
The whole corpus also replays in reverse order in one process, so that
state one run leaves for the next, such as the exact search's vectors
kept per (field, n, k), cannot change a byte: budgets.json then runs on
the vectors search_bounds.json left.
scripts/refreeze_golden.py checks or rewrites these files.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from flab import cli

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def replay(argv: list[str]) -> tuple[dict, str, str]:
    """The SHA-256 of stdout and stderr and the exit code of one run, and
    its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return ({"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
             "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
             "exit": code}, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_outputs_replay(path, monkeypatch):
    monkeypatch.delenv("FLAB_BUDGET", raising=False)
    monkeypatch.chdir(path.parent)
    frozen = json.loads(path.read_text())
    changed = [argv for argv, want in frozen.items()
               if replay(argv.split())[0] != want]
    assert not changed, f"{len(changed)} of {len(frozen)} changed: {changed}"


def test_golden_corpus_replays_in_reverse_order(monkeypatch):
    monkeypatch.delenv("FLAB_BUDGET", raising=False)
    monkeypatch.chdir(GOLDEN[0].parent)
    runs = [run for path in reversed(GOLDEN)
            for run in reversed(json.loads(path.read_text()).items())]
    changed = [argv for argv, want in runs if replay(argv.split())[0] != want]
    assert not changed, f"{len(changed)} of {len(runs)} changed: {changed}"
