"""Print, per module of ``src/chasflow`` and in total, the line count, the
number of keyword options with a default (parameters of every function and
method, lambdas included, that have a default, keyword-only ones included)
and the number of parameters (every parameter of every function, method and
lambda: positional, keyword-only, ``*args`` and ``**kwargs``, ``self``
included).

Usage: python3 tools/src_stats.py [SRC_DIR [AFTER_DIR]]

SRC_DIR defaults to this checkout's src/chasflow.  Given AFTER_DIR as well,
each count reads ``before → after``, SRC_DIR being before (a module missing
on one side counts as 0 there).
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


def _table(src):
    """module -> (lines, options, params) of every module in ``src``."""
    return {path.stem: stats(path) for path in sorted(Path(src).glob("*.py"))}


def main(argv):
    default = Path(__file__).resolve().parent.parent / "src" / "chasflow"
    tables = [_table(d) for d in (argv[1:3] or [default])]
    names = sorted(set().union(*tables))
    print(f"{'module':<20}{'lines':>16}{'options':>14}{'params':>14}")
    for name in names + ["total"]:
        rows = [t.get(name, (0, 0, 0)) if name != "total"
                else tuple(map(sum, zip(*t.values()))) for t in tables]
        cells = [" → ".join(str(row[k]) for row in rows) for k in range(3)]
        print(f"{name:<20}{cells[0]:>16}{cells[1]:>14}{cells[2]:>14}")


if __name__ == "__main__":
    main(sys.argv)
