"""The bit-identity check (scripts/output_digest.py) runs, prints a header
and one ``name sha256`` line per output, and prints what
``tests/output_digest.txt`` expects.

A change of any digested output fails here, with the name of every line
that differs.  The expected digests hold for one numpy and BLAS, which the
file's header names; under another pair the comparison fails and says how
to remake the file.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"
EXPECTED = ROOT / "tests" / "output_digest.txt"


@pytest.fixture(scope="module")
def digest_lines():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def _digests(lines):
    """``{name: sha256}`` of the lines after the header, in their order."""
    pairs = [line.split(" ") for line in lines[1:]]
    return dict(pairs)


def test_digest_prints_one_unique_name_and_sha256_per_line(digest_lines):
    assert re.fullmatch(r"# numpy \S+ blas \S+ \S+", digest_lines[0]), \
        f"not a header line: {digest_lines[0]!r}"
    names = []
    for line in digest_lines[1:]:
        match = re.fullmatch(r"(\S+) ([0-9a-f]{64})", line)
        assert match, f"not a 'name sha256' line: {line!r}"
        names.append(match.group(1))
    assert names
    assert len(set(names)) == len(names)


def test_digest_matches_the_committed_output(digest_lines):
    expected = EXPECTED.read_text().splitlines()
    if expected[0] != digest_lines[0]:
        pytest.fail(
            f"{EXPECTED.name} was made under {expected[0][2:]!r}, but this "
            f"run has {digest_lines[0][2:]!r}, whose digests can differ.  "
            f"Remake the file under this numpy and BLAS on the parent "
            f"commit, whose outputs the change under test must keep: in a "
            f"checkout of that commit run 'python scripts/output_digest.py "
            f"> tests/output_digest.txt', copy the file here, then run this "
            f"test again.")
    want, got = _digests(expected), _digests(digest_lines)
    differ = [name for name in want if got.get(name) != want[name]]
    differ += [name for name in got if name not in want]
    assert not differ, (
        f"{len(differ)} digest line(s) differ from {EXPECTED.name}: "
        + ", ".join(differ))
    assert list(got) == list(want), "digest lines are in another order"
