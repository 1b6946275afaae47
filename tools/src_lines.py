#!/usr/bin/env python3
"""Count the lines of code under src/, total and per top-level directory.

Blank lines and lines holding only a // comment are not counted; every
other line of a .hpp or .cpp file is. Prints a markdown table, so CI can
append it to the job summary:

    python3 tools/src_lines.py [--root REPO]
"""

import argparse
import pathlib
import sys


def code_lines(path: pathlib.Path) -> int:
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                        type=pathlib.Path, help="repository root (default: this checkout)")
    args = parser.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        print(f"src_lines: no src/ under {args.root}", file=sys.stderr)
        return 2

    per_dir: dict[str, int] = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or not path.is_file():
            continue
        top = path.relative_to(src).parts[0]
        per_dir[top] = per_dir.get(top, 0) + code_lines(path)

    print("| src/ | lines |")
    print("|---|---|")
    for top, lines in sorted(per_dir.items()):
        print(f"| {top}/ | {lines} |")
    print(f"| **total** | {sum(per_dir.values())} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
