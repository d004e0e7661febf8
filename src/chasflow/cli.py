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
import math
import os
import sys

import numpy as np

from .discretization import Field2D, GridResolutionError
from .expansion import ExpansionError, construct_expansion, expansion_report
from .linearized import norm_report
from .nonlinear import ConvergenceError, ForcingError, newton_solve
from .profiles import ProfileError
from .verification import (ConfigError, RunSpec, audit_invariants,
                           report_to_csv, report_to_json, run_sweep,
                           solve_point)

log = logging.getLogger("chasflow")

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3

# key -> (type, default).  Every configurable surface of the artifact.
SCHEMA = {
    "profile.kind": (str, "poiseuille_couette"),
    "profile.alpha1": (float, 1.0),
    "profile.alpha2": (float, 0.0),
    "profile.perturbation.amplitude": (float, 0.0),
    "profile.perturbation.exponent": (float, 0.0),
    "grid.L": (float, 0.1),
    "grid.nx": (int, 48),
    "grid.ny": (int, 96),
    "grid.resolve_factor": (float, 0.25),
    "grid.min_layer_nodes": (int, 6),
    "expansion.epsilon": (float, 1e-2),
    "expansion.m_layers": (int, 3),
    "expansion.gamma": (float, 0.05),
    "expansion.a0": (float, 0.25),
    "expansion.case": (str, "couette_noforce"),
    "expansion.layer_ny": (int, 320),
    "expansion.ext_factor": (float, 1.25),
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

# In a sweep each of these sweep.* keys stands in for the key it maps to;
# every other key is read from its own section by every command.
SWEEP_KEYS = {
    "expansion.case": "sweep.case",
    "expansion.m_layers": "sweep.m_layers",
    "grid.nx": "sweep.nx",
    "grid.ny": "sweep.ny_base",
    "grid.min_layer_nodes": "sweep.min_layer_nodes",
    "profile.alpha1": "sweep.alpha1",
    "profile.alpha2": "sweep.alpha2",
    "profile.perturbation.amplitude": "sweep.pert_amplitude",
    "profile.perturbation.exponent": "sweep.pert_exponent",
}
# the sweep.* key a sweep reads in place of each key a single point reads
SWEEP_STAND_INS = SWEEP_KEYS | {"expansion.epsilon": "sweep.epsilons"}
# the key a single point reads in place of each sweep.* key
POINT_KEYS = {alias: key for key, alias in SWEEP_STAND_INS.items()} | {
    "sweep.ny_cap": "grid.ny"}
# the keys that a command does not read: construct runs no solver, only
# solve runs the Newton check, and only construct writes the fields that
# output.formats lists (load_config checks that list before construct runs)
UNREAD = {"construct": ("solver.tol", "solver.max_iter", "solver.newton_check"),
          "solve": ("output.formats",),
          "sweep": ("solver.newton_check", "output.formats"),
          "audit": ("solver.newton_check", "output.formats")}


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


def load_config(path, overrides, command):
    """Parse the config file plus --set overrides, refusing a given key that
    the command reads another key in place of or does not read at all
    (report: any but output.dir)."""
    cfg = {k: v for k, (_, v) in SCHEMA.items()}
    given = []
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path!r} not found")
        for section in parser.sections():
            for key, raw in parser.items(section):
                given.append((f"{section}.{key}", raw))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        key, raw = item.split("=", 1)
        given.append((key.strip(), raw))
    stand_ins = SWEEP_STAND_INS if command == "sweep" else POINT_KEYS
    for key, raw in given:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        if command == "report" and key != "output.dir":
            raise ConfigError(f"report does not read {key}; output.dir is "
                              "the only key it reads")
        if key in stand_ins:
            raise ConfigError(f"{command} does not read {key}; it reads "
                              f"{stand_ins[key]} in its place")
        if key in UNREAD.get(command, ()):
            raise ConfigError(f"{command} does not read {key}")
        cfg[key] = _coerce(key, raw)
    _formats(cfg)
    return cfg


def _formats(cfg):
    """The output.formats tokens; json and csv are the only ones."""
    tokens = {tok.strip() for tok in cfg["output.formats"].split(",")} - {""}
    unknown = sorted(tokens - {"json", "csv"})
    if unknown:
        raise ConfigError(f"output.formats: unknown format(s) {unknown}; "
                          "use json and/or csv")
    return tokens


def _parse_epsilons(text):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if "**" in tok:
                base, exp = tok.split("**")
                vals.append(math.pow(float(base), float(exp)))
            else:
                vals.append(float(tok))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"sweep.epsilons: cannot read {tok!r} ({exc})")
    return vals


def _run_spec(cfg, command):
    """The run spec of a command; a single point never refines its grid,
    and construct, which runs no solver, takes the solver settings' own
    defaults."""
    sweep = command == "sweep"
    if sweep:
        cfg = dict(cfg, **{key: cfg[alias] for key, alias in SWEEP_KEYS.items()})
    if cfg["expansion.case"] == "forced":
        raise ConfigError("case forced needs a control force g, which no "
                          "config key can give; it runs from the library only")
    solver = {} if command == "construct" else {
        "tol": cfg["solver.tol"], "max_iter": cfg["solver.max_iter"]}
    return RunSpec(cfg["expansion.case"], L=cfg["grid.L"], nx=cfg["grid.nx"],
                   ny=cfg["grid.ny"],
                   ny_cap=cfg["sweep.ny_cap"] if sweep else cfg["grid.ny"],
                   M=cfg["expansion.m_layers"], kind=cfg["profile.kind"],
                   alpha1=cfg["profile.alpha1"], alpha2=cfg["profile.alpha2"],
                   pert_amplitude=cfg["profile.perturbation.amplitude"],
                   pert_exponent=cfg["profile.perturbation.exponent"],
                   resolve_factor=cfg["grid.resolve_factor"],
                   min_layer_nodes=cfg["grid.min_layer_nodes"],
                   gamma=cfg["expansion.gamma"], a0=cfg["expansion.a0"],
                   layer_nY=cfg["expansion.layer_ny"],
                   ext_factor=cfg["expansion.ext_factor"],
                   scheme=cfg["expansion.scheme"], **solver)


def _outdir(cfg, args):
    out = args.out or cfg["output.dir"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_construct(cfg, args):
    expansion = construct_expansion(_run_spec(cfg, "construct"),
                                    cfg["expansion.epsilon"])
    out = _outdir(cfg, args)
    formats = _formats(cfg)
    for name in ("u_s", "v_s", "P_s"):
        field = Field2D(expansion.grid, expansion.fields[name])
        if "csv" in formats:
            field.to_csv(os.path.join(out, f"{name}.csv"))
        field.to_binary(os.path.join(out, f"{name}.bin"))
    report_to_json(expansion_report(expansion), os.path.join(out, "expansion_report.json"))
    log.info("construct: wrote artifacts to %s", out)
    return EXIT_OK


def cmd_solve(cfg, args):
    expansion, sol, trace, full = solve_point(_run_spec(cfg, "solve"),
                                              cfg["expansion.epsilon"])
    out = _outdir(cfg, args)
    trace.to_csv(os.path.join(out, "iteration_trace.csv"))
    for name, arr in (("u_full", full["u"]), ("v_full", full["v"]),
                      ("P_full", full["P"])):
        Field2D(expansion.grid, arr).to_binary(os.path.join(out, f"{name}.bin"))
    payload = {"expansion": expansion_report(expansion),
               "solution": full["report"],
               "norms": norm_report(sol),
               "residuals": sol.residuals}
    if cfg["solver.newton_check"]:
        newton = newton_solve(sol.problem)
        payload["newton_X_norm"] = newton.norms["X_norm"]
    report_to_json(payload, os.path.join(out, "solve_report.json"))
    log.info("solve: converged in %d iterations", sol.norms["iterations"])
    return EXIT_OK


def cmd_sweep(cfg, args):
    spec = _run_spec(cfg, "sweep")
    eps = _parse_epsilons(cfg["sweep.epsilons"])
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            report = run_sweep(spec, eps, map=ex.map)
    else:
        report = run_sweep(spec, eps)
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
    expansion, sol, _, full = solve_point(_run_spec(cfg, "audit"),
                                          cfg["expansion.epsilon"])
    report = audit_invariants(expansion, sol=sol, full=full)
    out = _outdir(cfg, args)
    report_to_json(report, os.path.join(out, "audit.json"))
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


# CHAS_LOG values, in any case (logging.getLevelNamesMapping needs 3.11)
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _start_logging():
    """Log at the CHAS_LOG level (WARNING when unset)."""
    raw = os.environ.get("CHAS_LOG", "warning")
    if raw.upper() not in LOG_LEVELS:
        raise ConfigError(f"CHAS_LOG={raw!r}: use one of "
                          f"{', '.join(LOG_LEVELS)} (any case)")
    logging.basicConfig(level=getattr(logging, raw.upper()),
                        format="%(levelname)s %(name)s: %(message)s")


COMMANDS = {"construct": cmd_construct, "solve": cmd_solve, "sweep": cmd_sweep,
            "audit": cmd_audit, "report": cmd_report}


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
                        help="concurrent sweep points (sweep only)")
    args = parser.parse_args(argv)

    try:
        _start_logging()
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if args.jobs != 1 and args.command != "sweep":
            raise ConfigError(f"--jobs runs sweep points concurrently; "
                              f"{args.command} takes none (got {args.jobs})")
        cfg = load_config(args.config, args.set, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, ProfileError, ForcingError, ExpansionError,
            GridResolutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # any other ValueError (a failed factorization or fit among them) comes
    # from the numerics: every config value is checked before a point runs
    except (ConvergenceError, RuntimeError, FloatingPointError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
