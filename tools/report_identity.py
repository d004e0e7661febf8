"""Write the deterministic artifacts of a fixed set of chasflow commands, or
compare two such sets file by file.

Usage (from anywhere):

    python3 tools/report_identity.py OUT
    python3 tools/report_identity.py --compare A B

The first form runs each command below in a fresh interpreter, with
chasflow imported from this checkout's ``src`` and ``OPENBLAS_NUM_THREADS=1``,
and writes its artifacts to ``OUT/<name>/``:

- ``construct`` at eps = 1e-1, 1e-2 and 1e-3 (amplitude 0.05);
- a case-(i) ``construct`` with the profile and case keys of
  ``perfbench/run.py`` ``ORACLE`` at eps = 1e-2 (amplitude 0.05), the
  direct path that bypasses the corrector cascade;
- a ``construct`` at eps = 1e-2 (amplitude 0.05) with every construction
  and grid setting away from its default, so that a setting dropped on its
  way to the construction shows;
- the couette sweep (the default plan, amplitude 0.05);
- the family sweep (``perfbench/run.py`` ``FAMILY``, amplitude 0.05);
- the oracle ``solve`` (``perfbench/run.py`` ``ORACLE``, amplitude 0.05);
- a 32x64 ``solve`` and ``audit``.

Run it in two checkouts to show that a change leaves every report byte
for byte as it was.  ``--compare A B`` lists every file that differs or
exists on one side only, and exits 1 if there is any.  For a JSON file that
differs it also sizes the move: the largest relative move over the numeric
leaves with ``max(|a|, |b|) >= 1e-12``, the largest absolute move over the
smaller ones, the largest absolute move of an audit residue (a
``checks[i].value`` leaf: a residue that an audit holds against its
tolerance, often the cancellation of far larger terms, so never sized
relatively), and every other leaf that differs.
A binary field file (``.bin``, read with ``Field2D.read_binary``) that
differs is sized the same way over its values, node by node, and by its
largest move over its largest |value|.
"""

import argparse
import filecmp
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# below this magnitude a value is round-off, and only its absolute move counts
TINY = 1e-12
# an audit check's value: a residue sized by its absolute move alone
AUDIT_VALUE = re.compile(r"\.checks\[\d+\]\.value$")


def _perfbench_sets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.FAMILY, run.ORACLE


def commands():
    """name -> CLI arguments (without --out) of every artifact set."""
    family, oracle = _perfbench_sets()
    small = ["grid.nx=32", "grid.ny=64", "profile.perturbation.amplitude=0.05",
             "expansion.m_layers=2"]
    sets = {
        f"construct_{eps}": ("construct",
                             [f"expansion.epsilon={eps}",
                              "profile.perturbation.amplitude=0.05"])
        for eps in ("1e-1", "1e-2", "1e-3")
    }
    sets["construct_family_1e-2"] = (
        "construct", [k for k in oracle if k.startswith(("profile.", "expansion."))]
        + ["profile.perturbation.amplitude=0.05"])
    sets["construct_settings_1e-2"] = (
        "construct", ["expansion.epsilon=1e-2",
                      "profile.perturbation.amplitude=0.05",
                      "expansion.gamma=0.1", "expansion.a0=0.3",
                      "expansion.layer_ny=256", "expansion.ext_factor=1.5",
                      "expansion.scheme=cn", "grid.resolve_factor=0.2",
                      "grid.min_layer_nodes=7"])
    sets["couette_sweep"] = ("sweep", ["sweep.pert_amplitude=0.05"])
    sets["family_sweep"] = ("sweep", family + ["sweep.pert_amplitude=0.05"])
    sets["oracle_solve"] = ("solve",
                            oracle + ["profile.perturbation.amplitude=0.05"])
    sets["solve_32x64"] = ("solve", small)
    sets["audit_32x64"] = ("audit", small)
    out = {}
    for name, (command, items) in sets.items():
        argv = [command]
        for item in items:
            argv += ["--set", item]
        out[name] = argv
    return out


def write(out_dir):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src + os.pathsep + path if path else src)
    for name, argv in commands().items():
        target = Path(out_dir) / name
        print(f"{name}: chasflow {' '.join(argv)}", file=sys.stderr)
        subprocess.run([sys.executable, "-m", "chasflow.cli", *argv,
                        "--out", str(target)], env=env, check=True)


def differing(a, b):
    """Relative paths of the files that differ or exist on one side only."""
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = sorted(files_a ^ files_b)
    out += sorted(p for p in files_a & files_b
                  if not filecmp.cmp(a / p, b / p, shallow=False))
    return [str(p) for p in out], len(files_a | files_b)


def _leaves(node, path="$"):
    """(path, value) of every leaf of a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def json_moves(a, b):
    """How far two JSON documents are apart, leaf by leaf.

    Returns (relative, absolute, audit, others): the largest relative move
    ``|a - b| / max(|a|, |b|)`` over numeric leaves with
    ``max(|a|, |b|) >= TINY``, the largest ``|a - b|`` over the rest and
    the largest ``|a - b|`` over the audit residues (``AUDIT_VALUE``),
    which the other two leave out, each as (move, path) or None when no
    leaf of its kind moved, and the (path, a, b) of every other leaf that
    differs or exists on one side only (verdicts, notes, non-finite values).
    """
    leaves_a, leaves_b = dict(_leaves(a)), dict(_leaves(b))
    relative = absolute = audit = None
    others = []
    for path in sorted(leaves_a.keys() | leaves_b.keys()):
        va, vb = leaves_a.get(path), leaves_b.get(path)
        if path in leaves_a and path in leaves_b and _number(va) and _number(vb):
            if va == vb:
                continue
            scale = max(abs(va), abs(vb))
            if AUDIT_VALUE.search(path):
                move = (abs(va - vb), path)
                audit = max(audit or move, move)
            elif scale >= TINY:
                move = (abs(va - vb) / scale, path)
                relative = max(relative or move, move)
            else:
                move = (abs(va - vb), path)
                absolute = max(absolute or move, move)
        elif (path not in leaves_a or path not in leaves_b
              or repr(va) != repr(vb)):
            others.append((path, leaves_a.get(path, "<absent>"),
                           leaves_b.get(path, "<absent>")))
    return relative, absolute, audit, others


def field_moves(a, b):
    """How far two binary field files are apart, node by node.

    Returns (relative, absolute, others, field): the largest relative and
    absolute moves of the finite values, each sized as ``json_moves`` sizes
    a leaf and given as (move, "values[i, j]") or None, the (where, a, b)
    of what cannot be sized (different nodes, or the first of the nodes
    whose values differ and are not both finite), and the largest move
    over the largest |value| of the field (moves near a zero crossing are
    large relative to their node's value but not to the field), or None
    when the fields lie on different nodes.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from chasflow.discretization import Field2D
    fa, fb = Field2D.read_binary(a), Field2D.read_binary(b)
    if not (np.array_equal(fa["x"], fb["x"])
            and np.array_equal(fa["y"], fb["y"])):
        return None, None, [("the node coordinates",
                             f"{fa['values'].shape} nodes",
                             f"{fb['values'].shape} nodes")], None
    va, vb = fa["values"], fb["values"]
    finite = np.isfinite(va) & np.isfinite(vb)
    odd = np.argwhere(~finite & (va != vb)
                      & ~(np.isnan(va) & np.isnan(vb)))
    others = []
    if len(odd):
        i, j = odd[0]
        others.append((f"values[{i}, {j}] (first of {len(odd)} non-finite "
                       "nodes that differ)", float(va[i, j]),
                       float(vb[i, j])))
    va, vb = np.where(finite, va, 0.0), np.where(finite, vb, 0.0)
    scale = np.maximum(np.abs(va), np.abs(vb))
    move = np.abs(va - vb)
    big = scale >= TINY
    out = []
    for m in (np.divide(move, scale, out=np.zeros_like(move), where=big),
              np.where(big, 0.0, move)):
        i, j = np.unravel_index(np.argmax(m), m.shape)
        out.append((float(m[i, j]), f"values[{i}, {j}]") if m[i, j] else None)
    return (out[0], out[1], others,
            float(move.max() / max(scale.max(), TINY)))


def _print_moves(a, b):
    if a.suffix == ".bin":
        relative, absolute, others, field = field_moves(a, b)
        if field is not None:
            print(f"  largest move over the largest |value|: {field:.3g}")
    else:
        with open(a) as fa, open(b) as fb:
            relative, absolute, audit, others = json_moves(json.load(fa),
                                                           json.load(fb))
        if audit:
            print(f"  largest absolute move of an audit residue "
                  f"{audit[0]:.3g} at {audit[1]}")
    if relative:
        print(f"  largest relative move {relative[0]:.3g} at {relative[1]}")
    if absolute:
        print(f"  largest absolute move {absolute[0]:.3g} at {absolute[1]} "
              f"(|value| < {TINY:g})")
    for path, va, vb in others:
        print(f"  differs at {path}: {va!r} -> {vb!r}")
    return relative


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="directory to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two written directories")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (Path(d) for d in args.compare)
        diff, total = differing(a, b)
        largest = None
        for name in diff:
            print(f"differs: {name}")
            if (name.endswith((".json", ".bin")) and (a / name).is_file()
                    and (b / name).is_file()):
                move = _print_moves(a / name, b / name)
                if move and name.endswith(".json"):
                    largest = max(largest or move, (move[0], f"{name} {move[1]}"))
        if largest:
            print(f"largest relative move over all JSON files: "
                  f"{largest[0]:.3g} at {largest[1]}")
        print(f"{total - len(diff)}/{total} files identical")
        return 1 if diff else 0
    if args.out is None:
        parser.error("give OUT or --compare A B")
    write(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
