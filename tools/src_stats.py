"""Print, per module of ``src/chasflow`` and in total, the line count, the
number of keyword options with a default (parameters of every function and
method, lambdas included, that have a default, keyword-only ones included)
and the number of parameters (every parameter of every function, method and
lambda: positional, keyword-only, ``*args`` and ``**kwargs``, ``self``
included).

Usage: python3 tools/src_stats.py [SRC_DIR]   (default: this checkout's
src/chasflow)
"""

import ast
import sys
from pathlib import Path


def stats(path):
    text = path.read_text()
    options = params = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            options += len(a.defaults)
            options += sum(d is not None for d in a.kw_defaults)
            params += (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                       + (a.vararg is not None) + (a.kwarg is not None))
    return len(text.splitlines()), options, params


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "chasflow")
    total = [0, 0, 0]
    print(f"{'module':<20}{'lines':>8}{'options':>9}{'params':>8}")
    for path in sorted(src.glob("*.py")):
        row = stats(path)
        total = [t + n for t, n in zip(total, row)]
        print(f"{path.stem:<20}{row[0]:>8}{row[1]:>9}{row[2]:>8}")
    print(f"{'total':<20}{total[0]:>8}{total[1]:>9}{total[2]:>8}")


if __name__ == "__main__":
    main(sys.argv)
