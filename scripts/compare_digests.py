#!/usr/bin/env python3
"""Check that every study output is byte-identical to a revision's.

    python3 scripts/compare_digests.py [REV]    # REV defaults to HEAD

Runs the working tree's `tests/test_pinned.py --digests` twice: on the
working tree's src/, then on REV's src/, unpacked by `git archive` into a
temporary directory that is removed however the run ends.  Prints the diff
of the two listings, then the verdict beside the line count of src/logac at
REV and in the working tree; exits 1 if the listings differ, 0 if they match.
"""

import argparse
import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests(src: Path) -> list[str]:
    """The `sha256  run/file` lines of tests/test_pinned.py --digests with logac imported from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, str(ROOT / "tests" / "test_pinned.py"), "--digests"]
    return subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines(keepends=True)


def package_lines(src: Path) -> int:
    """Lines of the package's modules, as `wc -l src/logac/*.py` totals them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "logac").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="the revision whose src/ to compare against")
    rev = parser.parse_args().rev
    after = digests(ROOT / "src")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True, stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        before = digests(Path(tmp) / "src")
        lines_before = package_lines(Path(tmp) / "src")
    diff = list(difflib.unified_diff(before, after, f"{rev}:src", "working tree:src"))
    sys.stdout.writelines(diff)
    verdict = "outputs differ" if diff else "no difference"
    lines_after = package_lines(ROOT / "src")
    lines = f"src/logac has {lines_before} lines at {rev}, {lines_after} in the working tree"
    print(f"{len(after)} digest lines: {verdict}; {lines}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
