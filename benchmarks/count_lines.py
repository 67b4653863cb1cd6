#!/usr/bin/env python3
"""Count the lines of each module of the coxrank package, and in total.

Usage: python3 benchmarks/count_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src/coxrank`` next to this script.  For each
module it prints the physical lines (newline-terminated lines of the
file) and the logical lines (``tokenize`` NEWLINE tokens: one per
statement, however many physical lines it spans; blank lines, comments
and continuation lines count nothing, a docstring counts one).
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path


def counts(path: Path) -> tuple[int, int]:
    """Physical and logical lines of one Python source file."""
    with path.open("rb") as fh:
        physical = sum(1 for _ in fh)
        fh.seek(0)
        logical = sum(
            tok.type == tokenize.NEWLINE for tok in tokenize.tokenize(fh.readline)
        )
    return physical, logical


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src/coxrank"
    rows = [(p.name, *counts(p)) for p in sorted(src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  physical  logical")
    for name, physical, logical in rows:
        print(f"{name:<{width}}  {physical:>8}  {logical:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
