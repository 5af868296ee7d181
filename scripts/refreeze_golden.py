"""Check or rewrite the digests of the golden corpus, tests/golden/*.json.

Each file maps an argv, its words joined by spaces, to the SHA-256 of its
stdout, the SHA-256 of its stderr and its exit code.  Every argv is run
again in this process with tests/test_golden.py's replay (cli.main), from
tests/golden and with FLAB_BUDGET unset, as that test runs it.  For each
argv whose digests differ from the frozen ones it prints the old and new
exit code and the first line of the new stdout and stderr.

With no arguments it checks every file and exits 1 on any change.  Given
file names, it writes the new digests into those files (an argv mapped to
null is a new one) and checks the rest.

Usage:
    PYTHONPATH=src python3 scripts/refreeze_golden.py
    PYTHONPATH=src python3 scripts/refreeze_golden.py tests/golden/scans.json
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_golden import GOLDEN, replay  # noqa: E402


def refreeze(path: Path) -> tuple[dict, int]:
    """The file's argvs with their new digests, and how many changed."""
    frozen = json.loads(path.read_text())
    new, changed = {}, 0
    for argv, old in frozen.items():
        new[argv], out, err = replay(argv.split())
        if new[argv] != old:
            changed += 1
            out, err = (text.partition("\n")[0] for text in (out, err))
            print(f"{path.name}: {argv}\n"
                  f"  exit {old and old['exit']} -> {new[argv]['exit']}\n"
                  f"  stdout: {out}\n  stderr: {err}")
    return new, changed


def dump(digests: dict) -> str:
    """The corpus layout: one argv per line, in the given order."""
    lines = [f"  {json.dumps(argv)}: {json.dumps(d)}"
             for argv, d in digests.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(names: list[str]) -> int:
    rewrite = {Path(name).resolve() for name in names}
    unknown = rewrite - set(GOLDEN)
    if unknown:
        print(f"not a golden corpus file: {sorted(map(str, unknown))}",
              file=sys.stderr)
        return 2
    os.environ.pop("FLAB_BUDGET", None)
    unchanged = True
    for path in GOLDEN:
        os.chdir(path.parent)
        digests, changed = refreeze(path)
        if path in rewrite:
            path.write_text(dump(digests))
            print(f"{path.name}: {len(digests)} runs written, "
                  f"{changed} changed")
        else:
            unchanged &= not changed
            print(f"{path.name}: {len(digests)} runs, {changed} changed")
    return 0 if unchanged else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
