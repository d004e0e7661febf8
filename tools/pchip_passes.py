"""Time every PCHIP pass of one seed-0 couette sweep with the operators of
two checkouts, by caller and axis, and check that their outputs agree bit
for bit.

Usage (from anywhere):

    python3 tools/pchip_passes.py [--src SRC] [--against SRC2] [--repeats N]

Runs ``chasflow sweep`` with the ``perfbench/run.py`` couette_sweep settings
of seed 0 (amplitude 0.05) in this interpreter, with chasflow imported from
SRC (default this checkout's ``src``), and captures every PCHIP pass of the
sweep: its nodes, queries, data and axis, and the function that built the
operator.  Then each pass is run again with the ``pchip_operator`` of SRC and
of SRC2 (default SRC), each loaded from that checkout's
``chasflow/discretization.py`` on its own, warm (one untimed run of every
pass first), in N alternating rounds.  The JSON on stdout gives, per pass
kind (caller and axis), the number of passes and the median over the rounds
of each side's summed wall time, in ms per sweep; ``identical`` says
whether every output of the two sides is the same, bit for bit, and the
exit status is 1 if it is not.  Set ``OPENBLAS_NUM_THREADS=1`` for times
that compare.
"""

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from report_identity import ROOT, commands

# (function that builds the operator, axis) -> pass kind; the x passes of
# the wall traces run on 1-D data (axis 0)
KINDS = {("interp_channel_field", -1): "convection y (channel -> layer)",
         ("interp_channel_field", -2): "convection x (channel -> layer)",
         ("interp_layer_field", -1): "channel y (layer -> channel)",
         ("interp_layer_field", -2): "channel x (layer -> channel)",
         ("_build_couette", 0): "wall traces x"}


def capture(src):
    """Every PCHIP pass of a seed-0 couette sweep run with chasflow from
    src: a list of (kind, xs, xq, y, axis)."""
    sys.path.insert(0, str(Path(src).resolve()))
    from chasflow import boundary_layers, cli, discretization, expansion

    passes = []

    def recording(xs, xq):
        caller = sys._getframe(1).f_code.co_name
        op = discretization.pchip_operator(xs, xq)

        def apply(y, axis=0):
            passes.append((KINDS.get((caller, axis), f"{caller} axis {axis}"),
                           np.array(xs, dtype=float), np.array(xq, dtype=float),
                           np.array(y, dtype=float), axis))
            return op(y, axis)
        return apply

    modules = (boundary_layers, expansion)
    saved = [m.pchip_operator for m in modules]
    for m in modules:
        m.pchip_operator = recording
    try:
        with tempfile.TemporaryDirectory() as out:
            argv = commands()["couette_sweep"] + ["--out", out]
            if cli.main(argv) != 0:
                raise SystemExit(f"chasflow {' '.join(argv)} failed")
    finally:
        for m, fn in zip(modules, saved):
            m.pchip_operator = fn
    return passes


def load_operators(src, name):
    """The ``pchip_operator`` of the ``discretization`` module of src."""
    path = Path(src).resolve() / "chasflow" / "discretization.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pchip_operator


def same_bits(a, b):
    """a and b have the same shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def outputs(pchip, passes):
    return [pchip(xs, xq)(y, axis) for _, xs, xq, y, axis in passes]


def differing(passes, sides):
    """Indices of the passes whose outputs are not the same on every side."""
    outs = [outputs(pchip, passes) for pchip in sides]
    return [i for i in range(len(passes))
            if not all(same_bits(outs[0][i], o[i]) for o in outs[1:])]


def timed(pchip, passes):
    """Seconds per pass kind of one run of every pass."""
    spent = {}
    for kind, xs, xq, y, axis in passes:
        op = pchip(xs, xq)
        start = time.perf_counter()
        op(y, axis)
        spent[kind] = spent.get(kind, 0.0) + time.perf_counter() - start
    return spent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    srcs = [args.src, args.against or args.src]
    passes = capture(args.src)
    sides = [load_operators(src, f"pchip_side{i}") for i, src in enumerate(srcs)]
    bad = differing(passes, sides)        # also the untimed warm-up run
    rounds = [[], []]
    for r in range(args.repeats):
        for i in (0, 1) if r % 2 == 0 else (1, 0):
            rounds[i].append(timed(sides[i], passes))
    kinds = sorted({p[0] for p in passes})
    table = [{"pass": kind, "passes": sum(p[0] == kind for p in passes),
              "ms": [1e3 * statistics.median(t[kind] for t in side)
                     for side in rounds]}
             for kind in kinds]
    total = [1e3 * statistics.median(sum(t.values()) for t in side)
             for side in rounds]
    json.dump({"src": [str(s) for s in srcs], "passes": len(passes),
               "table": table, "total_ms": total, "identical": not bad,
               "differing_passes": bad}, sys.stdout, indent=1)
    print()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
