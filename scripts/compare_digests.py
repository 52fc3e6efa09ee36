#!/usr/bin/env python3
"""Check that every study output is byte-identical to a revision's.

    python3 scripts/compare_digests.py [REV]    # REV defaults to HEAD

Runs the working tree's `tests/test_pinned.py --digests` twice: on the
working tree's src/, then on REV's src/, checked out in a temporary git
worktree that is removed however the run ends.  Prints the diff of the two
listings and exits 1 if they differ, 0 if they match.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests(src: Path) -> list[str]:
    """The `sha256  run/file` lines of tests/test_pinned.py --digests with logac imported from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, str(ROOT / "tests" / "test_pinned.py"), "--digests"]
    return subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines(keepends=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="the revision whose src/ to compare against")
    rev = parser.parse_args().rev
    after = digests(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run(git + ["add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            before = digests(tree / "src")
        finally:
            subprocess.run(git + ["remove", "--force", str(tree)], check=True)
    diff = list(difflib.unified_diff(before, after, f"{rev}:src", "working tree:src"))
    sys.stdout.writelines(diff)
    print(f"{len(after)} digest lines: {'outputs differ' if diff else 'no difference'}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
