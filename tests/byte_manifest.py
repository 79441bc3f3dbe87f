"""The md5 of the CLI's --no-timestamp output, to show that a change leaves
every output bit as it was.

    python tests/byte_manifest.py                 # the src/ next to tests/
    python tests/byte_manifest.py SRC_A SRC_B     # two source trees compared

Each command runs in a fresh interpreter (python -m fbmsig.cli) with
OPENBLAS_NUM_THREADS=1, once with --format csv and once with --format json:
every `fbmsig ...` line of the README, six `sde compare` runs (many paths
on 64 and 128 steps, a long grid, the zero problem on 64 steps and on a
long grid, and one at --gamma 0.2), `approx-sig` over the five grid words
at three H on grids of 1 to 2^18 cells, a `convergence` ladder to 65536 for
each four-letter grid word at H = 0.5001 and 0.9, `bounds` at H = 0.5001
(series arguments up to about 282, whose sums overflow to inf) and 0.75 on
T below and above 1 at three --gamma, each command and cubature action on
every default (no flag but --format and --no-timestamp), the level table
of the 715 canonical six-letter words over {0..3} at three H, and the 379
canonical pure eight-letter words over {1..4} with every letter an even
number of times at one H (the only line that reaches four-pair cores and
three-axis links).  A line of the manifest is "md5 exit format command",
each table's word list shortened to its name.
With two source trees the script prints the lines that differ, each with
the largest relative change of every numeric column that moved, and exits
1 if any do.  Standard library only; pytest does not collect it.
"""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE_H = ("0.5513", "0.6711", "0.9423")
EIGHT_LETTER_H = "0.6711"
SDE_RUNS = (
    "sde compare --H 0.75 --T 1 --paths 4096 --steps 64 --seed 7 --x0 0.3",
    "sde compare --H 0.6 --T 1.7 --paths 2048 --steps 128 --seed 8 --x0 -0.4",
    "sde compare --H 0.9 --T 0.5 --paths 20 --steps 1536 --seed 9 --x0 0.7",
    "sde compare --H 0.55 --T 2 --paths 4096 --steps 64 --seed 10 --x0 0.25 "
    "--problem zero",
    "sde compare --H 0.8 --T 1.3 --paths 20 --steps 1536 --seed 11 --x0 -0.6 "
    "--problem zero",
    "sde compare --H 0.7 --T 1.5 --paths 64 --steps 32 --seed 12 --x0 0.1 "
    "--M 2 --gamma 0.2",
)
BOUND_RUNS = tuple(f"bounds --H 0.5001,0.75 --T 0.25,0.5,1,2 --gamma {gamma}"
                   for gamma in ("0", "0.3", "0.45"))
GRID_WORDS = ("1,1", "1,1,1,1", "1,1,2,2", "1,2,1,2", "1,2,2,1")
GRID_RUNS = (
    f"approx-sig --H 0.5001,0.6711,0.9423 --words {';'.join(GRID_WORDS)} "
    "--m 1,2,3,4,32,4096,262144",
    *(f"convergence --H {H} --words {word} --m 4,16,64,256,1024,4096,16384,65536"
      for word in GRID_WORDS[1:] for H in ("0.5001", "0.9")),
)
DEFAULT_RUNS = ("expected-sig", "approx-sig", "convergence", "cubature verify",
                "cubature solve", "sde compare", "bounds")


def canonical_words(length: int) -> list[str]:
    """Words over {0,1,2,3} whose nonzero letters first appear as 1, 2, 3."""
    out = []
    for word in itertools.product(range(4), repeat=length):
        seen = [x for i, x in enumerate(word) if x and x not in word[:i]]
        if seen == list(range(1, len(seen) + 1)):
            out.append(",".join(map(str, word)))
    return out


def even_words(length: int) -> list[str]:
    """Canonical pure words over {1,2,3,4}, letters first appearing as 1, 2,
    3, 4, in which every letter occurs an even number of times."""
    out = []
    for word in itertools.product(range(1, 5), repeat=length):
        seen = [x for i, x in enumerate(word) if x not in word[:i]]
        if (seen == list(range(1, len(seen) + 1))
                and all(word.count(x) % 2 == 0 for x in seen)):
            out.append(",".join(map(str, word)))
    return out


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every README command, the sde, grid and bounds runs,
    the runs on every default, the six-letter tables and the eight-letter one."""
    out = []
    for line in (ROOT / "README.md").read_text().splitlines():
        match = re.match(r"\s*fbmsig\s+(.*)$", line)
        if match:
            argv = shlex.split(match.group(1))
            out.append((" ".join(argv), argv))
    out += [(run, shlex.split(run))
            for run in SDE_RUNS + GRID_RUNS + BOUND_RUNS + DEFAULT_RUNS]
    words = ";".join(canonical_words(6))
    for H in TABLE_H:
        out.append((f"expected-sig --H {H} --words <715 six-letter words>",
                    ["expected-sig", "--H", H, "--words", words]))
    out.append((f"expected-sig --H {EIGHT_LETTER_H} --words <379 eight-letter words>",
                ["expected-sig", "--H", EIGHT_LETTER_H, "--words",
                 ";".join(even_words(8))]))
    return out


def manifest(src: Path) -> list[tuple[str, bytes]]:
    """(manifest line, stdout) of every command in both formats."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = []
    for name, argv in commands():
        for fmt in ("csv", "json"):
            run = subprocess.run(
                [sys.executable, "-m", "fbmsig.cli", *argv, "--format", fmt,
                 "--no-timestamp"], env=env, capture_output=True, check=False)
            digest = hashlib.md5(run.stdout).hexdigest()
            out.append((f"{digest} {run.returncode} {fmt} {name}", run.stdout))
    return out


def table(fmt: str, stdout: bytes) -> tuple[list[str], list[list[str]]]:
    """(columns, rows) of one output, or ([], []) when it is not a table."""
    text = stdout.decode()
    try:
        if fmt == "json":
            data = json.loads(text)
            return data["columns"], data["rows"]
        rows = [row for row in csv.reader(io.StringIO(text))
                if row and not row[0].startswith("#")]
        return rows[0], rows[1:]
    except (ValueError, KeyError, IndexError):
        return [], []


def largest_changes(fmt: str, a: bytes, b: bytes) -> dict[str, float]:
    """The largest relative change |b - a| / |a| of each numeric column
    that moved between two outputs of one command, inf where a is 0."""
    (columns, rows_a), (_, rows_b) = table(fmt, a), table(fmt, b)
    changes: dict[str, float] = {}
    for row_a, row_b in zip(rows_a, rows_b):
        for name, x, y in zip(columns, row_a, row_b):
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            if x != y and not (math.isnan(x) and math.isnan(y)):
                change = abs(y - x) / abs(x) if x else math.inf
                changes[name] = max(changes.get(name, 0.0), change)
    return changes


def main(argv: list[str]) -> int:
    sources = [Path(a).resolve() for a in argv] or [ROOT / "src"]
    if len(sources) == 1:
        print("\n".join(line for line, _ in manifest(sources[0])))
        return 0
    if len(sources) != 2:
        print("usage: byte_manifest.py [SRC_A SRC_B]", file=sys.stderr)
        return 2
    a, b = (manifest(s) for s in sources)
    differ = [(x, y) for x, y in zip(a, b) if x[0] != y[0]]
    for (line_a, out_a), (line_b, out_b) in differ:
        print(f"- {line_a}\n+ {line_b}")
        fmt = line_a.split()[2]
        for name, change in largest_changes(fmt, out_a, out_b).items():
            print(f"    {name}: largest relative change {change:.3g}")
    print(f"{len(a) - len(differ)} of {len(a)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
