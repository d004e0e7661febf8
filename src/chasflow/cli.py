"""Command-line entry point: config ingestion, subcommands, artifacts.

Config format is a sectioned key=value file (INI syntax) with repeatable
--set section.key=value overrides.  Unknown keys are hard errors.  Exit
codes: 0 success, 2 config/precondition error, 3 numerical failure.
"""

import argparse
import concurrent.futures
import configparser
import json
import logging
import os
import sys

import numpy as np

from .discretization import Field2D, GridResolutionError, build_channel_grid
from .expansion import (CASES, ExpansionConfig, ExpansionError,
                        construct_expansion, expansion_report)
from .nonlinear import (ConvergenceError, ForcingError, assemble_full_solution,
                        build_case_forcing, newton_solve, picard_solve)
from .profiles import PerturbationSpec, ProfileError, build_profile
from .verification import (SweepPlan, audit_invariants, report_to_csv,
                           report_to_json, run_sweep)

log = logging.getLogger("chasflow")

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3

# key -> (type, default).  Every configurable surface of the artifact.
SCHEMA = {
    "profile.kind": (str, "couette"),
    "profile.alpha1": (float, 1.0),
    "profile.alpha2": (float, 0.0),
    "profile.perturbation.amplitude": (float, 0.0),
    "profile.perturbation.exponent": (float, 0.0),
    "grid.L": (float, 0.1),
    "grid.nx": (int, 48),
    "grid.ny": (int, 96),
    "grid.stretching": (bool, True),
    "grid.resolve_factor": (float, 0.25),
    "grid.min_layer_nodes": (int, 6),
    "expansion.epsilon": (float, 1e-2),
    "expansion.m_layers": (int, 3),
    "expansion.gamma": (float, 0.05),
    "expansion.a0": (float, 0.25),
    "expansion.case": (str, "couette_noforce"),
    "expansion.layer_ny": (int, 320),
    "expansion.ext_factor": (float, 1.25),
    "expansion.aux_absorb": (bool, False),
    "expansion.scheme": (str, "be"),
    "solver.tol": (float, 1e-10),
    "solver.max_iter": (int, 50),
    "solver.newton_check": (bool, False),
    "sweep.case": (str, "couette_noforce"),
    "sweep.epsilons": (str, "1e-1,10**-1.5,1e-2,10**-2.5,1e-3"),
    "sweep.nx": (int, 48),
    "sweep.ny_base": (int, 96),
    "sweep.ny_cap": (int, 224),
    "sweep.m_layers": (int, 3),
    "sweep.min_layer_nodes": (int, 8),
    "sweep.pert_amplitude": (float, 0.0),
    "sweep.pert_exponent": (float, 0.0),
    "sweep.alpha1": (float, 1.0),
    "sweep.alpha2": (float, 0.0),
    "output.dir": (str, "out"),
    "output.formats": (str, "json,csv"),
}


class ConfigError(ValueError):
    pass


def _coerce(key, raw):
    typ, _ = SCHEMA[key]
    if typ is bool:
        val = str(raw).strip().lower()
        if val in ("1", "true", "yes", "on"):
            return True
        if val in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: cannot parse boolean from {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}")


def load_config(path=None, overrides=()):
    """Parse the sectioned key=value config plus --set overrides."""
    cfg = {k: v for k, (_, v) in SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path!r} not found")
        for section in parser.sections():
            for key, raw in parser.items(section):
                full = f"{section}.{key}"
                if full not in SCHEMA:
                    raise ConfigError(f"unknown config key {full!r}")
                cfg[full] = _coerce(full, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, raw)
    return cfg


def _parse_epsilons(text):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "**" in tok:
            base, exp = tok.split("**")
            vals.append(float(base) ** float(exp))
        else:
            vals.append(float(tok))
    return vals


def _build_profile(cfg, eps):
    pert = None
    if cfg["profile.perturbation.amplitude"] > 0:
        pert = PerturbationSpec(cfg["profile.perturbation.amplitude"],
                                cfg["profile.perturbation.exponent"])
    return build_profile(cfg["profile.kind"], cfg["profile.alpha1"],
                         cfg["profile.alpha2"], perturbation=pert, eps=eps)


def _pipeline(cfg):
    eps = cfg["expansion.epsilon"]
    case = cfg["expansion.case"]
    if case not in CASES:
        raise ConfigError(f"expansion.case must be one of {CASES}")
    if case == "couette_noforce" and cfg["profile.alpha2"] != 0.0:
        raise ConfigError("case couette_noforce requires profile.alpha2 = 0")
    profile = _build_profile(cfg, eps)
    grid = build_channel_grid(cfg["grid.L"], cfg["grid.nx"], cfg["grid.ny"],
                              eps, stretching=cfg["grid.stretching"],
                              resolve_factor=cfg["grid.resolve_factor"],
                              min_layer_nodes=cfg["grid.min_layer_nodes"])
    ecfg = ExpansionConfig(eps, M=cfg["expansion.m_layers"],
                           gamma=cfg["expansion.gamma"],
                           a0=cfg["expansion.a0"], case=case,
                           layer_nY=cfg["expansion.layer_ny"],
                           ext_factor=cfg["expansion.ext_factor"],
                           aux_absorb=cfg["expansion.aux_absorb"],
                           scheme=cfg["expansion.scheme"])
    expansion = construct_expansion(profile, ecfg, grid)
    return profile, grid, ecfg, expansion


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(cfg, args):
    out = args.out or cfg["output.dir"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_construct(cfg, args):
    profile, grid, ecfg, expansion = _pipeline(cfg)
    out = _outdir(cfg, args)
    formats = cfg["output.formats"].split(",")
    for name in ("u_s", "v_s", "P_s"):
        field = Field2D(grid, expansion.fields[name])
        if "csv" in formats:
            field.to_csv(os.path.join(out, f"{name}.csv"))
        field.to_binary(os.path.join(out, f"{name}.bin"))
    _write_json(expansion_report(expansion), os.path.join(out, "expansion_report.json"))
    log.info("construct: wrote artifacts to %s", out)
    return EXIT_OK


def cmd_solve(cfg, args):
    profile, grid, ecfg, expansion = _pipeline(cfg)
    ops = expansion.ops
    eps, M0 = ecfg.eps, ecfg.M0
    forcing = build_case_forcing(ecfg.case, profile, grid, ops, eps, M0,
                                 expansion=expansion)
    sol, trace = picard_solve(expansion.fields, forcing, eps, M0, grid, ops,
                              tol=cfg["solver.tol"],
                              k_max=cfg["solver.max_iter"])
    full = assemble_full_solution(expansion.fields, profile, sol, eps, M0)
    out = _outdir(cfg, args)
    trace.to_csv(os.path.join(out, "iteration_trace.csv"))
    for name, arr in (("u_full", full["u"]), ("v_full", full["v"]),
                      ("P_full", full["P"])):
        Field2D(grid, arr).to_binary(os.path.join(out, f"{name}.bin"))
    from .linearized import LinearizedProblem, norm_report
    prob = LinearizedProblem(expansion.fields, eps, M0, F1=forcing.F1,
                             F2=forcing.F2, ubar=sol.u, vbar=sol.v,
                             grid=grid, ops=ops)
    payload = {"expansion": expansion_report(expansion),
               "solution": full["report"],
               "norms": norm_report(sol, prob), "residuals": sol.residuals}
    if cfg["solver.newton_check"]:
        newton = newton_solve(expansion.fields, forcing, eps, M0, grid, ops)
        payload["newton_X_norm"] = newton.norms["X_norm"]
    _write_json(payload, os.path.join(out, "solve_report.json"))
    log.info("solve: converged in %d iterations", sol.norms["iterations"])
    return EXIT_OK


def _sweep_plan(cfg):
    eps = _parse_epsilons(cfg["sweep.epsilons"])
    if len(eps) < 4:
        raise ConfigError("sweep.epsilons needs at least 4 values")
    return SweepPlan(cfg["sweep.case"], epsilons=eps, L=cfg["grid.L"],
                     nx=cfg["sweep.nx"], ny_base=cfg["sweep.ny_base"],
                     M=cfg["sweep.m_layers"], gamma=cfg["expansion.gamma"],
                     alpha1=cfg["sweep.alpha1"], alpha2=cfg["sweep.alpha2"],
                     pert_amplitude=cfg["sweep.pert_amplitude"],
                     pert_exponent=cfg["sweep.pert_exponent"],
                     min_layer_nodes=cfg["sweep.min_layer_nodes"],
                     ny_cap=cfg["sweep.ny_cap"], a0=cfg["expansion.a0"])


def cmd_sweep(cfg, args):
    plan = _sweep_plan(cfg)
    if args.jobs and args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            report = run_sweep(plan, map=ex.map)
    else:
        report = run_sweep(plan)
    out = _outdir(cfg, args)
    report_to_json(report, os.path.join(out, "rate_report.json"))
    report_to_csv(report, os.path.join(out, "rate_report.csv"))
    _write_plot_data(report, os.path.join(out, "plot_data.csv"))
    log.info("sweep: pass=%s", report["pass"])
    return EXIT_OK


def _write_plot_data(report, path):
    with open(path, "w") as fh:
        fh.write("quantity,log10_eps,log10_value\n")
        for q in report["quantities"]:
            if q["name"] in ("iterations", "ny"):
                continue
            for eps, val in zip(report["epsilons"], q["values"]):
                if val and val > 0:
                    fh.write(f"{q['name']},{np.log10(eps)!r},{np.log10(val)!r}\n")


def cmd_audit(cfg, args):
    profile, grid, ecfg, expansion = _pipeline(cfg)
    ops = expansion.ops
    forcing = build_case_forcing(ecfg.case, profile, grid, ops, ecfg.eps,
                                 ecfg.M0, expansion=expansion)
    sol, _ = picard_solve(expansion.fields, forcing, ecfg.eps, ecfg.M0, grid, ops)
    full = assemble_full_solution(expansion.fields, profile, sol, ecfg.eps, ecfg.M0)
    report = audit_invariants(expansion, sol=sol, full=full)
    out = _outdir(cfg, args)
    _write_json(report, os.path.join(out, "audit.json"))
    for chk in report["checks"]:
        status = "ok " if chk["pass"] else "FAIL"
        log.info("%s %-42s %.3e (tol %.1e)", status, chk["name"],
                 chk["value"], chk["tol"])
    print(f"audit: {'pass' if report['pass'] else 'FAIL'} "
          f"({sum(c['pass'] for c in report['checks'])}/{len(report['checks'])} checks)")
    return EXIT_OK


def cmd_report(cfg, args):
    out = args.out or cfg["output.dir"]
    found = False
    for name in ("rate_report.json", "solve_report.json",
                 "expansion_report.json", "audit.json"):
        path = os.path.join(out, name)
        if os.path.exists(path):
            found = True
            with open(path) as fh:
                payload = json.load(fh)
            print(f"== {name} ==")
            print(json.dumps(payload, indent=2, sort_keys=True)[:4000])
    if not found:
        raise ConfigError(f"no report artifacts found in {out!r}")
    return EXIT_OK


COMMANDS = {
    "construct": cmd_construct,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "audit": cmd_audit,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chasflow",
        description="steady Poiseuille-Couette channel flow at small viscosity")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override section.key=value (repeatable)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent sweep points")
    args = parser.parse_args(argv)

    level = os.environ.get("CHAS_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, ProfileError, ForcingError, ExpansionError,
            GridResolutionError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
