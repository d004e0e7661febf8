"""Print, per module of ``src/chasflow`` and in total, the line count and the
number of keyword options with a default: parameters of every function and
method (lambdas included) that have a default, keyword-only ones included.

Usage: python3 tools/src_stats.py [SRC_DIR]   (default: this checkout's
src/chasflow)
"""

import ast
import sys
from pathlib import Path


def stats(path):
    text = path.read_text()
    options = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            options += len(node.args.defaults)
            options += sum(d is not None for d in node.args.kw_defaults)
    return len(text.splitlines()), options


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "chasflow")
    total = [0, 0]
    print(f"{'module':<20}{'lines':>8}{'options':>9}")
    for path in sorted(src.glob("*.py")):
        lines, options = stats(path)
        total = [total[0] + lines, total[1] + options]
        print(f"{path.stem:<20}{lines:>8}{options:>9}")
    print(f"{'total':<20}{total[0]:>8}{total[1]:>9}")


if __name__ == "__main__":
    main(sys.argv)
