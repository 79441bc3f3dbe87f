"""The md5 of the CLI's --no-timestamp output, to show that a change leaves
every output bit as it was.

    python tests/byte_manifest.py                 # the src/ next to tests/
    python tests/byte_manifest.py SRC_A SRC_B     # two source trees compared

Each command runs in a fresh interpreter (python -m fbmsig.cli) with
OPENBLAS_NUM_THREADS=1, once with --format csv and once with --format json:
every `fbmsig ...` line of the README, and the level table of the 715
canonical six-letter words over {0..3} at three H.  A line of the manifest is
"md5 exit format command", the table's word list shortened to its name.  With
two source trees the script prints the lines that differ and exits 1 if any
do.  Standard library only; pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE_H = ("0.5513", "0.6711", "0.9423")


def canonical_words(length: int) -> list[str]:
    """Words over {0,1,2,3} whose nonzero letters first appear as 1, 2, 3."""
    out = []
    for word in itertools.product(range(4), repeat=length):
        seen = [x for i, x in enumerate(word) if x and x not in word[:i]]
        if seen == list(range(1, len(seen) + 1)):
            out.append(",".join(map(str, word)))
    return out


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every README command and of the six-letter table."""
    out = []
    for line in (ROOT / "README.md").read_text().splitlines():
        match = re.match(r"\s*fbmsig\s+(.*)$", line)
        if match:
            argv = shlex.split(match.group(1))
            out.append((" ".join(argv), argv))
    words = ";".join(canonical_words(6))
    for H in TABLE_H:
        out.append((f"expected-sig --H {H} --words <715 six-letter words>",
                    ["expected-sig", "--H", H, "--words", words]))
    return out


def manifest(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    lines = []
    for name, argv in commands():
        for fmt in ("csv", "json"):
            run = subprocess.run(
                [sys.executable, "-m", "fbmsig.cli", *argv, "--format", fmt,
                 "--no-timestamp"], env=env, capture_output=True, check=False)
            digest = hashlib.md5(run.stdout).hexdigest()
            lines.append(f"{digest} {run.returncode} {fmt} {name}")
    return lines


def main(argv: list[str]) -> int:
    sources = [Path(a).resolve() for a in argv] or [ROOT / "src"]
    if len(sources) == 1:
        print("\n".join(manifest(sources[0])))
        return 0
    if len(sources) != 2:
        print("usage: byte_manifest.py [SRC_A SRC_B]", file=sys.stderr)
        return 2
    a, b = (manifest(s) for s in sources)
    differ = [(x, y) for x, y in zip(a, b) if x != y]
    for x, y in differ:
        print(f"- {x}\n+ {y}")
    print(f"{len(a) - len(differ)} of {len(a)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
