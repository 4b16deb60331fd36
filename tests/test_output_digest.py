"""The bit-identity check (scripts/output_digest.py) runs and prints one
``name sha256`` line per output.

A refactor that breaks the script would only show when someone diffs two
commits with it; this check makes it fail the unit suite instead.
"""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def test_digest_prints_one_unique_name_and_sha256_per_line():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines
    names = []
    for line in lines:
        match = re.fullmatch(r"(\S+) ([0-9a-f]{64})", line)
        assert match, f"not a 'name sha256' line: {line!r}"
        names.append(match.group(1))
    assert len(set(names)) == len(names)
