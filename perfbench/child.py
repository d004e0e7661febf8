"""One benchmark sample, run in a fresh interpreter.

Usage: python3 perfbench/child.py RESULT.json TRACE [CLI ARG ...]

Imports chasflow, calls ``chasflow.cli.main(CLI ARGS)`` once and writes what
it measured to RESULT.json.  TRACE=1 first wraps the public functions of the
chasflow modules (and scipy's sparse LU entry points) in timing spans; with
TRACE=0 only ``verification.run_point`` is timed, and a speed probe
(``SpeedProbe``) samples the host's speed during the run.  With no CLI args
the sample only imports chasflow, which measures set-up.

The parent (run.py) sets PERFBENCH_SRC to the checkout's ``src`` directory;
a chasflow imported from anywhere else is an error.
"""

import functools
import inspect
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

import chasflow.cli as cli

IMPORTED = time.monotonic()

# span name -> (module, attribute path) of each function the span wraps.
# A target missing from the program is skipped, so its metrics read 0.
SPANS = {
    "discretization.diff_matrix": [("chasflow.discretization", "diff_matrix")],
    "discretization.DiffOps": [("chasflow.discretization", "DiffOps.__init__")],
    "profiles.check_couette_degeneracy": [
        ("chasflow.profiles", "check_couette_degeneracy")],
    "euler_correctors.EulerSolver.solve": [
        ("chasflow.euler_correctors", "EulerSolver.solve_first"),
        ("chasflow.euler_correctors", "EulerSolver.solve_higher")],
    "boundary_layers.solve_layer_minus": [
        ("chasflow.boundary_layers", "solve_layer_minus")],
    "boundary_layers.solve_layer_plus": [
        ("chasflow.boundary_layers", "solve_layer_plus")],
    "boundary_layers.interp": [
        ("chasflow.boundary_layers", "interp_layer_field"),
        ("chasflow.boundary_layers", "interp_channel_field")],
    "boundary_layers.Cascade.remainder": [
        ("chasflow.boundary_layers", "Cascade.remainder")],
    "scipy.spsolve": [("scipy.sparse.linalg", "spsolve")],
    "scipy.splu": [("scipy.sparse.linalg", "splu")],
    "expansion.construct_expansion": [
        ("chasflow.expansion", "construct_expansion")],
    "expansion.compute_remainders": [
        ("chasflow.expansion", "compute_remainders")],
    "linearized.factorize_linearized": [
        ("chasflow.linearized", "factorize_linearized")],
    "linearized.solve_linearized": [("chasflow.linearized", "solve_linearized")],
    "linearized.recover_pressure": [("chasflow.linearized", "recover_pressure")],
    "linearized.compute_norms": [("chasflow.linearized", "compute_norms")],
    "nonlinear.picard_solve": [("chasflow.nonlinear", "picard_solve")],
    "nonlinear.newton_solve": [("chasflow.nonlinear", "newton_solve")],
    "verification.run_point": [("chasflow.verification", "run_point")],
    "verification.audit_invariants": [
        ("chasflow.verification", "audit_invariants")],
    "cli.load_config": [("chasflow.cli", "load_config")],
    "cli.write_artifacts": [
        ("chasflow.cli", "_write_json"),
        ("chasflow.cli", "_write_plot_data"),
        ("chasflow.verification", "report_to_json"),
        ("chasflow.verification", "report_to_csv"),
        ("chasflow.discretization", "Field2D.to_binary"),
        ("chasflow.nonlinear", "IterationTrace.to_csv")],
}


def _march_steps(counters, bound, result):
    counters["boundary_layers.march_steps"] += bound.arguments["grid"].nx - 1


def _lu_fill(counters, bound, result):
    fac = result[0]
    counters["linearized.lu_fill_nnz"] += fac.L.nnz + fac.U.nnz


def _picard(counters, bound, result):
    sol, trace = result
    counters["nonlinear.picard.iterations"] += sol.norms["iterations"]
    ratios = [r for r in trace.ratios if r == r]
    counters["nonlinear.picard.last_ratio"] = ratios[-1] if ratios else 0.0


# span name -> hook(counters, bound arguments, return value) after each call
HOOKS = {
    "boundary_layers.solve_layer_minus": _march_steps,
    "boundary_layers.solve_layer_plus": _march_steps,
    "linearized.factorize_linearized": _lu_fill,
    "nonlinear.picard_solve": _picard,
}
COUNTERS = ("boundary_layers.march_steps", "linearized.lu_fill_nnz",
            "nonlinear.picard.iterations", "nonlinear.picard.last_ratio",
            "warnings.RuntimeWarning.count")


class Tracer:
    """Nested wall-time spans kept in memory.

    A span's ``s`` is its inclusive time (outermost call only, so recursion
    is not counted twice); ``self_s`` is its time minus the time of the
    spans that ran inside it.  Whatever the root frame's children do not
    cover is the root's self time.
    """

    def __init__(self):
        self.stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
                      for name in SPANS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack = [0.0]      # child time of each open frame; [0] is root
        self.depth = dict.fromkeys(SPANS, 0)

    def wrap(self, name, fn):
        stats, hook = self.stats[name], HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            depth = self.depth[name]
            self.depth[name] = depth + 1
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self.stack.pop()
                self.stack[-1] += dt
                self.depth[name] = depth
                stats["calls"] += 1
                stats["self_s"] += dt - child
                if depth == 0:
                    stats["s"] += dt
            if hook:
                # charged to no span, so no self time includes it (reading
                # L and U of a large factor copies them)
                t1 = time.perf_counter()
                hook(self.counters, signature.bind(*args, **kwargs), result)
                self.stack[-1] += time.perf_counter() - t1
            return result
        return span

    def count_warnings(self):
        import warnings
        show = warnings.showwarning

        def counting_show(message, category, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                self.counters["warnings.RuntimeWarning.count"] += 1
            return show(message, category, *args, **kwargs)
        warnings.showwarning = counting_show


def _resolve(module_name, path):
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    return owner, parts[-1], getattr(owner, parts[-1], None)


def install(wrap, spans):
    """Replace each target by ``wrap(span, fn)`` wherever chasflow holds it.

    Functions are patched in every chasflow module that imported them by
    name; methods are patched on their class; scipy functions on their
    module, which is how chasflow calls them (``spla.spsolve``).
    """
    holders = [m for n, m in sys.modules.items()
               if n == "chasflow" or n.startswith("chasflow.")]
    for name, targets in spans.items():
        for module_name, path in targets:
            owner, attr, fn = _resolve(module_name, path)
            if fn is None:
                continue
            wrapped = wrap(name, fn)
            if "." in path:
                setattr(owner, attr, wrapped)
                continue
            for holder in holders + [owner]:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)


class SpeedProbe:
    """Samples the host's speed during a run, to state its times at a fixed speed.

    The host is a few cores of a shared machine whose speed drifts by up to
    1.5x over seconds to minutes.  Every PERIOD_S a SIGALRM handler runs a
    fixed kernel (a Python loop, a sort and a small matrix product) twice
    and times the second, warm pass, so a tick reads the host's speed and
    not the cache state the program left.  A tick waits while the program
    is inside a C call.  ``ref_seconds`` weights each stretch of program
    time between ticks by REF_S over the running median of the ticks around
    it: seconds at the speed at which the kernel takes REF_S, the median
    tick on the 2-vCPU Xeon VM the baseline was taken on.  Time spent in
    the handler counts in neither wall nor reference seconds.
    """

    PERIOD_S = 0.2
    REF_S = 4.0e-4
    WINDOW = 5          # ticks in the running median

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vec = rng.standard_normal(4096)
        self.mat = rng.standard_normal((48, 48))
        self.ticks = []     # (handler start, handler end, warm kernel s)
        self.total = 0.0    # time spent in the handler

    def kernel(self):
        x = 0
        for i in range(3000):
            x += i * i
        for _ in range(4):
            np.sort(self.vec)
            self.mat @ self.mat

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.ticks.append((t0, t2, t2 - t1))
        self.total += t2 - t0

    def start(self):
        self.kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def wall_seconds(self, start, end):
        """Wall seconds in [start, end] outside the handler."""
        return end - start - sum(min(end, t_out) - max(start, t_in)
                                 for t_in, t_out, _ in self.ticks
                                 if t_in < end and t_out > start)

    def ref_seconds(self, start, end):
        """Reference seconds of the program's time in [start, end]."""
        if not self.ticks:
            raise RuntimeError("the speed probe took no samples")
        durations = [d for _, _, d in self.ticks]
        half = self.WINDOW // 2
        speeds = [self.REF_S / statistics.median(
            durations[max(0, k - half):k + half + 1])
            for k in range(len(durations))]
        # the stretch before each tick runs at that tick's speed, the one
        # after the last tick at the last tick's
        his = [t_in for t_in, _, _ in self.ticks] + [math.inf]
        los = [-math.inf] + [t_out for _, t_out, _ in self.ticks]
        return sum(max(0.0, min(end, hi) - max(start, lo)) * speed
                   for lo, hi, speed in zip(los, his, speeds + speeds[-1:]))


def _point_timer(windows):
    """Records the (start, end) of each call it wraps."""
    def wrap(name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            windows.append((t0, time.perf_counter()))
            return result
        return timed
    return wrap


def _environment():
    """Library versions, and the BLAS library with the thread count it runs."""
    import ctypes
    import scipy
    info = {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getattr(handle, sym).restype = ctypes.c_int
                info["blas_threads"] = getattr(handle, sym)()
                return info
    return info


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    where = os.path.realpath(cli.__file__)
    if not where.startswith(src + os.sep):
        sys.exit(f"chasflow imported from {where}, not from {src}")
    out = {"imported": IMPORTED}
    if argv:
        windows = []
        tracer = Tracer() if trace else None
        probe = None if trace else SpeedProbe()
        if tracer:
            install(tracer.wrap, SPANS)
            tracer.count_warnings()
        else:
            install(_point_timer(windows),
                    {"verification.run_point": SPANS["verification.run_point"]})
            probe.start()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            t1 = time.perf_counter()
            if probe:
                probe.stop()
        run_s, points = t1 - t0, [b - a for a, b in windows]
        if probe:
            run_s, points = (probe.wall_seconds(t0, t1),
                             [probe.wall_seconds(a, b) for a, b in windows])
            out.update(run_ref_s=probe.ref_seconds(t0, t1),
                       points_ref=[probe.ref_seconds(a, b) for a, b in windows])
        out.update(rc=rc, run_s=run_s, points=points,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   env=_environment())
        if tracer:
            out.update(spans=tracer.stats, counters=tracer.counters,
                       root_self_s=run_s - tracer.stack[0])
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
