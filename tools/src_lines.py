"""Count the lines of a Python source tree as code, docstrings, comments and blanks.

    python3 tools/src_lines.py [DIR]    (DIR defaults to src)

Prints one row per module and a total row, each with its lines and their
split: a line is a docstring line when it lies in a string that stands
alone as a statement (blank lines inside one included), a comment line when
it holds only a comment, a blank line when it holds nothing, and code
otherwise.  Standard library only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_SKIP = {tokenize.NL, tokenize.COMMENT}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count(path: Path) -> dict[str, int]:
    """The number of lines of each kind in one module."""
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = path.read_text(encoding="utf-8").splitlines()
    kind = ["blank" if not line.strip() else "comment" for line in lines]
    significant = [t for t in tokens if t.type not in _SKIP]
    for i, tok in enumerate(significant):
        if tok.type in _STATEMENT_START or tok.type == tokenize.ENDMARKER:
            continue
        lone = (
            tok.type == tokenize.STRING
            and significant[i - 1].type in _STATEMENT_START
            and significant[i + 1].type == tokenize.NEWLINE
        )
        for row in range(tok.start[0], tok.end[0] + 1):
            if lone:
                kind[row - 1] = "docstring"
            elif kind[row - 1] != "docstring":
                kind[row - 1] = "code"
    return {k: kind.count(k) for k in KINDS}


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<40} {'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for path in sorted(root.rglob("*.py")):
        counts = count(path)
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path.relative_to(root)):<40} {sum(counts.values()):>6} "
              + " ".join(f"{counts[k]:>9}" for k in KINDS))
    print(f"{'total':<40} {sum(total.values()):>6} " + " ".join(f"{total[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
