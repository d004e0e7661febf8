"""The run spec and the one point pipeline (construct, then solve), eps-sweeps,
convergence-rate fits against the proven bounds, and audits.

The proven rates are upper bounds, so every rate criterion is one-sided:
an observed slope not less than (proven - margin) passes, faster decay is
never a failure.  Sweep points that error out are recorded and skipped; a
report is still emitted when at least four points survive.
"""

import csv
import json

import numpy as np

from .discretization import GridResolutionError, build_channel_grid, lsq_slope
from .expansion import CASES, SCHEMES, ExpansionError, construct_expansion
from .nonlinear import (ForcingError, assemble_full_solution,
                        build_case_forcing, picard_solve)
from .profiles import PerturbationSpec, ProfileError, build_profile

SLOPE_MARGIN = 0.08
# the acceptance gate for the remainder rate is slope >= 1.8 against the
# proven eps^2 alpha0 bound
MARGINS = {"remainder_H2": 0.2}
DEFAULT_EPSILONS = (1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3)

# proven upper-bound exponents per tracked quantity and case
PROVEN = {
    "poiseuille_couette_noforce": {
        "sup_u_minus_mu": 7.0 / 8.0,
        "sup_v": 9.0 / 8.0,
        "H2_u_minus_mu": 3.0 / 8.0,
        "H2_v": 7.0 / 8.0,
    },
    "couette_noforce": {
        "sup_u_plus_v": 1.0,
        "remainder_H2": 2.0,
    },
}

EXACT_LEVEL = 1e-11


class ConfigError(ValueError):
    """A setting that no run can use, raised before any point runs."""


# what a setting, not the numerics, makes a point raise (the CLI exits 2)
CONFIG_ERRORS = (ConfigError, ProfileError, ForcingError, ExpansionError,
                 GridResolutionError)


class RunSpec:
    """Every setting of one pipeline point but eps, each checked here once,
    so that a bad sweep setting fails before any point runs.  The grid
    steps ny up to ny_cap until the layers are resolved."""

    def __init__(self, case, L=0.1, nx=48, ny=96, ny_cap=224, M=3,
                 kind="poiseuille_couette", alpha1=1.0, alpha2=0.0,
                 pert_amplitude=0.0, pert_exponent=0.0, resolve_factor=0.25,
                 min_layer_nodes=8, gamma=0.05, a0=0.25, layer_nY=320,
                 ext_factor=1.25, scheme="be", tol=1e-10, max_iter=50):
        floats = dict(L=L, resolve_factor=resolve_factor, gamma=gamma, a0=a0,
                      ext_factor=ext_factor, tol=tol, alpha1=alpha1,
                      alpha2=alpha2, pert_amplitude=pert_amplitude,
                      pert_exponent=pert_exponent)
        for name, value in floats.items():
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not L > 0:
            raise ConfigError("L must be positive")
        if nx < 8:   # ny is refined from any start, nx never is
            raise ConfigError("nx must be >= 8")
        if ny_cap < ny:
            raise ConfigError("ny_cap must be >= ny")
        if not resolve_factor > 0:
            raise ConfigError("resolve_factor must be positive")
        if min_layer_nodes < 1:
            raise ConfigError("min_layer_nodes must be >= 1")
        if not tol > 0:
            raise ConfigError("tol must be positive")
        if max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if M < 1:
            raise ConfigError("M must be >= 1")
        if gamma <= 0:
            raise ConfigError("gamma must be positive")
        if case not in CASES:
            raise ConfigError(f"case must be one of {CASES}")
        if not 0.0 < a0 <= 1.0:
            raise ConfigError("a0 must lie in (0, 1]")
        if scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}")
        if layer_nY < 4:
            raise ConfigError("layer_nY must be >= 4 (the d2 stencil)")
        if not ext_factor >= 1.0:
            raise ConfigError("ext_factor must be >= 1: the corrector "
                              "strip has to cover the channel")
        build_profile(kind, alpha1, alpha2)
        if case == "couette_noforce" and alpha2 != 0.0:
            raise ConfigError("case couette_noforce requires alpha2 = 0")
        self.case, self.L, self.nx, self.ny, self.ny_cap = case, L, nx, ny, ny_cap
        self.kind, self.alpha1, self.alpha2 = kind, alpha1, alpha2
        self.perturbation = (PerturbationSpec(pert_amplitude, pert_exponent)
                             if pert_amplitude != 0 else None)
        self.resolve_factor, self.min_layer_nodes = resolve_factor, min_layer_nodes
        self.M, self.gamma, self.a0 = int(M), float(gamma), float(a0)
        self.M0 = 11.0 / 8.0 + self.gamma
        self.layer_nY, self.ext_factor = int(layer_nY), float(ext_factor)
        self.scheme, self.tol, self.max_iter = scheme, tol, max_iter

    def profile(self, eps):
        # before the bump: amplitude * eps**exponent is complex for eps < 0
        if not 0.0 < eps < np.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {eps}")
        return build_profile(self.kind, self.alpha1, self.alpha2,
                             perturbation=self.perturbation, eps=eps)

    def grid(self, eps):
        """Smallest ny (stepping from ny) that resolves the layers."""
        ny = self.ny
        while True:
            try:
                return build_channel_grid(self.L, self.nx, ny, eps,
                                          resolve_factor=self.resolve_factor,
                                          min_layer_nodes=self.min_layer_nodes)
            except GridResolutionError:
                if ny >= self.ny_cap:
                    raise
                ny = min(self.ny_cap, ny + 32)


def solve_point(spec, eps):
    """Construct, Picard-solve: (expansion, sol, trace, full).  The
    expansion is released before Picard factors its system, so the
    construction's arrays are not held beside that factor."""
    expansion = construct_expansion(spec, eps)
    expansion.release()
    sol, trace = picard_solve(expansion, build_case_forcing(expansion))
    return expansion, sol, trace, assemble_full_solution(expansion, sol)


def run_point(spec, eps):
    """One sweep point: construct, solve, record the tracked quantities."""
    expansion, sol, _, full = solve_point(spec, eps)
    rep = full["report"]
    rn = expansion.report["remainder_norms"]
    values = {
        "sup_u_minus_mu": rep["sup_u_minus_mu"],
        "sup_v": rep["sup_v"],
        "H2_u_minus_mu": rep["H2_u_minus_mu"],
        "H2_v": rep["H2_v"],
        "sup_u_plus_v": rep["sup_u_minus_mu"] + rep["sup_v"],
        "remainder_H2": float(np.hypot(rn["Fu_H2"], rn["Fv_H2"])),
        "remainder_L2": float(np.hypot(rn["Fu_L2"], rn["Fv_L2"])),
        "X_norm": sol.norms["X_norm"],
        "iterations": sol.norms["iterations"],
        "nonlinear_residual": rep["nonlinear_residual"],
        "ny": expansion.grid.ny,
    }
    return values, expansion, sol, full


def fit_quantity(epsilons, values):
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=float)
    if np.max(np.abs(vals)) < EXACT_LEVEL:
        return {"slope": None, "exact": True, "fit_residual": 0.0, "loo": 0.0}
    slope, _, resid = lsq_slope(np.log(eps), np.log(np.maximum(vals, 1e-300)))
    loo = 0.0
    if eps.size > 2:
        for k in range(eps.size):
            m = np.ones(eps.size, dtype=bool)
            m[k] = False
            s2, _, _ = lsq_slope(np.log(eps[m]), np.log(np.maximum(vals[m], 1e-300)))
            loo = max(loo, abs(s2 - slope))
    return {"slope": float(slope), "exact": False,
            "fit_residual": float(resid), "loo": float(loo)}


def _sweep_point(spec, eps):
    """One sweep point as plain data: (values, audit summary, error, whether
    the error is one of CONFIG_ERRORS).

    A point that raises is recorded by its error and the sweep continues.
    """
    try:
        values, expansion, sol, full = run_point(spec, eps)
    except Exception as exc:  # recorded, sweep continues
        return (None, None, f"{type(exc).__name__}: {exc}",
                isinstance(exc, CONFIG_ERRORS))
    audit = audit_invariants(expansion, sol=sol, full=full)
    summary = {"epsilon": eps, "pass": audit["pass"],
               "checks": [{"name": c["name"], "pass": c["pass"],
                           "value": c["value"]} for c in audit["checks"]]}
    return values, summary, None, False


def sweep_epsilons(epsilons):
    """A sweep's eps as floats: four or more, decreasing, positive, finite."""
    epsilons = tuple(float(e) for e in epsilons)
    if len(epsilons) < 4:
        raise ConfigError("a sweep needs at least 4 epsilon values")
    if any(e2 >= e1 for e1, e2 in zip(epsilons, epsilons[1:])):
        raise ConfigError("epsilon values must be strictly decreasing")
    if not all(0.0 < e < np.inf for e in epsilons):
        raise ConfigError("epsilon values must be positive and finite")
    return epsilons


def run_sweep(spec, epsilons=DEFAULT_EPSILONS, map=map):
    """Execute the sweep and fit log-log rates for every tracked quantity.

    ``epsilons`` is checked by ``sweep_epsilons``.  ``map`` runs the points;
    an executor's ``map`` runs them concurrently and gives the same report,
    since every point is independent.
    """
    epsilons = sweep_epsilons(epsilons)
    records, failures, audit, all_config = [], [], None, True
    points = map(_sweep_point, [spec] * len(epsilons), epsilons)
    for eps, (values, summary, error, config) in zip(epsilons, points):
        if error is None:
            records.append((eps, values))
            audit = summary
        else:
            failures.append({"epsilon": eps, "error": error})
            all_config = all_config and config
    if len(records) < 4:
        # a setting that fails each failed point makes a config error
        raise (ConfigError if all_config else RuntimeError)(
            f"only {len(records)} sweep points survived (need >= 4): {failures}")
    eps_ok = [e for e, _ in records]
    proven = PROVEN.get(spec.case, {})
    quantities = []
    for name in sorted(records[0][1].keys()):
        vals = [v[name] for _, v in records]
        entry = {"name": name, "values": vals}
        if name in ("iterations", "ny"):
            quantities.append(entry)
            continue
        entry.update(fit_quantity(eps_ok, vals))
        if name in proven:
            entry["proven"] = proven[name]
            margin = MARGINS.get(name, SLOPE_MARGIN)
            if entry["exact"]:
                entry["pass"] = True
            else:
                entry["pass"] = bool(entry["slope"] >= proven[name] - margin)
        quantities.append(entry)
    report = {
        "case": spec.case,
        "L": spec.L,
        "M": spec.M,
        "epsilons": eps_ok,
        "exact_family": all(q.get("exact", False) for q in quantities
                            if q["name"] in ("sup_u_minus_mu", "sup_v")),
        "quantities": quantities,
        "failures": failures,
        "audits": [audit],
        "pass": all(q.get("pass", True) for q in quantities),
    }
    return report


def report_to_json(report, path):
    text = json.dumps(report, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def report_to_csv(report, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["quantity", "epsilon", "value", "slope", "proven", "pass"])
        for q in report["quantities"]:
            for eps, val in zip(report["epsilons"], q["values"]):
                w.writerow([q["name"], repr(eps), repr(val),
                            q.get("slope"), q.get("proven"), q.get("pass")])


# -- invariant audits ---------------------------------------------------------

def audit_invariants(expansion, sol, full):
    """Run the cross-module invariant checks on a solution bundle.

    Every failure names the violated invariant; report-only.
    """
    checks = []
    grid, ops = expansion.grid, expansion.ops
    f = expansion.fields

    def add(name, value, tol, extra=""):
        checks.append({"name": name, "value": float(value), "tol": float(tol),
                       "pass": bool(value <= tol), "note": extra})

    mu = expansion.profile.mu(grid.y)
    scale = max(float(np.max(np.abs(f["u_s"] - mu[None, :]))), 1e-30)
    # wall traces are exact up to the recorded inflow-corner mollification
    deficit = 2.0 * expansion.report.get("wall_deficit", 0.0)
    wall_tol = 1e-8 * max(scale, 1e-8) + deficit
    add("expansion.u_s_wall_bottom", np.max(np.abs(f["u_s"][:, 0])), wall_tol)
    add("expansion.v_s_wall_bottom", np.max(np.abs(f["v_s"][:, 0])), wall_tol)
    add("expansion.u_s_wall_top",
        np.max(np.abs(f["u_s"][:, -1] - 2.0 * expansion.profile.alpha1)),
        wall_tol)
    add("expansion.v_s_wall_top", np.max(np.abs(f["v_s"][:, -1])), wall_tol)

    # semi-analytic divergence, against the velocity-gradient scale
    div = (f["us_x"] + f["vs_y"])[1:, :]
    dscale = max(float(np.max(np.abs(f["us_x"]))),
                 float(np.max(np.abs(f["us_y"]))), 1e-30)
    add("expansion.divergence_semianalytic", np.max(np.abs(div)), 1e-4 * dscale)

    # discrete divergence of the assembled pair: channel-operator truncation
    # at layer scale plus corner/interpolation dust relative to the O(1)
    # shear gradient
    divd = ops.apply("Dx", f["u_s"]) + ops.apply("Dy", f["v_s"])
    add("expansion.divergence_discrete", ops.norm(divd, "L2"),
        0.2 * ops.norm(f["us_x"], "L2") + 1e-5 * ops.norm(f["us_y"], "L2"),
        "channel-grid FD at layer scale")

    # from the layer levels and the report: a released point has no cascade
    for layer in expansion.correctors.layers:
        add(f"layer{layer.index}{layer.side[0]}.far_field", layer.far_field,
            1e-6 * max(layer.u_max, 1e-30))
    for name, val in expansion.report.get("opposite_wall_traces", {}).items():
        add(f"euler_trace.{name}", val, 1e-3 * max(scale, 1e-12))

    divr = ops.apply("Dx", sol.u) + ops.apply("Dy", sol.v)
    rscale = max(float(np.max(np.abs(sol.u))), 1e-30)
    dmax, dtol = np.max(np.abs(divr)), 1e-10 * rscale
    # a failure names its node; a passing residue is round-off, its node noise
    ij = np.unravel_index(np.abs(divr).argmax(), divr.shape)
    where = "" if dmax <= dtol else f"max at node {tuple(int(t) for t in ij)}; "
    add("remainder.divergence", dmax, dtol,
        where + "exact by the kron structure of the stream function")
    add("remainder.u_wall_bottom", np.max(np.abs(sol.u[:, 0])), 1e-10 * rscale)
    add("remainder.u_wall_top", np.max(np.abs(sol.u[:, -1])), 1e-10 * rscale)
    add("remainder.v_walls",
        max(np.max(np.abs(sol.v[:, 0])), np.max(np.abs(sol.v[:, -1]))),
        1e-10 * rscale)
    add("remainder.u_inflow", np.max(np.abs(sol.u[0, :])), 1e-10 * rscale)
    audit = full["report"]["boundary_audit"]
    ftol = 1e-10 * max(1.0, scale) + deficit
    for key in ("u_wall_bottom", "v_wall_bottom", "v_wall_top",
                "u_wall_top", "inflow_u"):
        add(f"full.{key}", audit[key], ftol)
    ok = all(c["pass"] for c in checks)
    return {"pass": ok, "checks": checks}
