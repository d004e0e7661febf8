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
- the couette sweep (the default plan, amplitude 0.05);
- the family sweep (``perfbench/run.py`` ``FAMILY``, amplitude 0.05);
- the oracle ``solve`` (``perfbench/run.py`` ``ORACLE``, amplitude 0.05);
- a 32x64 ``solve`` and ``audit``.

Run it in two checkouts to show that a change leaves every report byte
for byte as it was.  ``--compare A B`` lists every file that differs or
exists on one side only, and exits 1 if there is any.
"""

import argparse
import filecmp
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="directory to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two written directories")
    args = parser.parse_args(argv)
    if args.compare:
        diff, total = differing(*args.compare)
        for name in diff:
            print(f"differs: {name}")
        print(f"{total - len(diff)}/{total} files identical")
        return 1 if diff else 0
    if args.out is None:
        parser.error("give OUT or --compare A B")
    write(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
