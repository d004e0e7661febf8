"""Command-line entry point: config ingestion, subcommands, artifacts.

Config format is a sectioned key=value file (INI syntax) with repeatable
--set section.key=value overrides.  Unknown keys are hard errors.  Exit
codes: 0 success, 2 config/precondition error, 3 numerical failure.
"""

import argparse
import concurrent.futures
import configparser
import inspect
import json
import logging
import math
import os
import sys

import numpy as np

from .discretization import Field2D
from .expansion import construct_expansion, expansion_report
from .linearized import norm_report
from .nonlinear import ConvergenceError, newton_solve
from .verification import (CONFIG_ERRORS, DEFAULT_EPSILONS, ConfigError,
                           RunSpec, audit_invariants, report_to_csv,
                           report_to_json, run_sweep, solve_point,
                           sweep_epsilons)

log = logging.getLogger("chasflow")

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3

# Every config key -> (the commands that read it, the RunSpec fields it sets
# or eps, its default where RunSpec has none or another); its type is that of
# its default.  A refusal names a key the command reads for the same field.
POINT, SWEEP = ("construct", "solve", "audit"), ("sweep",)
SETTINGS = {
    "profile.kind": (POINT + SWEEP, "kind"),
    "profile.alpha1": (POINT, "alpha1"),
    "profile.alpha2": (POINT, "alpha2"),
    "profile.perturbation.amplitude": (POINT, "pert_amplitude"),
    "profile.perturbation.exponent": (POINT, "pert_exponent"),
    "grid.L": (POINT + SWEEP, "L"),
    "grid.nx": (POINT, "nx"),
    "grid.ny": (POINT, "ny ny_cap"),    # a single point never refines ny
    "grid.resolve_factor": (POINT + SWEEP, "resolve_factor"),
    "grid.min_layer_nodes": (POINT, "min_layer_nodes", 6),
    "expansion.epsilon": (POINT, "eps", 1e-2),
    "expansion.m_layers": (POINT, "M"),
    "expansion.gamma": (POINT + SWEEP, "gamma"),
    "expansion.a0": (POINT + SWEEP, "a0"),
    "expansion.case": (POINT, "case", "couette_noforce"),
    "expansion.layer_ny": (POINT + SWEEP, "layer_nY"),
    "expansion.ext_factor": (POINT + SWEEP, "ext_factor"),
    "expansion.scheme": (POINT + SWEEP, "scheme"),
    "solver.tol": (("solve", "audit", "sweep"), "tol"),
    "solver.max_iter": (("solve", "audit", "sweep"), "max_iter"),
    "solver.newton_check": (("solve",), "", False),
    "sweep.case": (SWEEP, "case", "couette_noforce"),
    "sweep.epsilons": (SWEEP, "eps", ",".join(map(repr, DEFAULT_EPSILONS))),
    "sweep.nx": (SWEEP, "nx"),
    "sweep.ny_base": (SWEEP, "ny"),
    "sweep.ny_cap": (SWEEP, "ny_cap"),
    "sweep.m_layers": (SWEEP, "M"),
    "sweep.min_layer_nodes": (SWEEP, "min_layer_nodes"),
    "sweep.pert_amplitude": (SWEEP, "pert_amplitude"),
    "sweep.pert_exponent": (SWEEP, "pert_exponent"),
    "sweep.alpha1": (SWEEP, "alpha1"),
    "sweep.alpha2": (SWEEP, "alpha2"),
    "output.dir": (POINT + SWEEP + ("report",), "", "out"),
    # only construct writes the fields whose formats the list names
    "output.formats": (("construct",), "", "json,csv"),
}

# each key's default: its own, or that of the first RunSpec field it sets
_SIGNATURE = inspect.signature(RunSpec).parameters
DEFAULTS = {key: row[2] if len(row) > 2
            else _SIGNATURE[row[1].split()[0]].default
            for key, row in SETTINGS.items()}


def _coerce(key, raw):
    typ = type(DEFAULTS[key])
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
    the command does not read.  Option names keep their case, a % is
    literal, and [DEFAULT] is a section like any other."""
    cfg = dict(DEFAULTS)
    given = []
    if path is not None:
        # no section header can name "", so [DEFAULT] is an ordinary section
        parser = configparser.ConfigParser(interpolation=None,
                                           default_section="")
        parser.optionxform = str
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path!r}: {exc}")
        if not read:
            raise ConfigError(f"config file {path!r} not found")
        given = [(f"{section}.{key}", raw) for section in parser.sections()
                 for key, raw in parser.items(section)]
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        key, raw = item.split("=", 1)
        given.append((key.strip(), raw))
    reads = [key for key, row in SETTINGS.items() if command in row[0]]
    for key, raw in given:
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        if key not in reads:
            fields = set(SETTINGS[key][1].split())
            instead = [k for k in reads if fields & set(SETTINGS[k][1].split())]
            why = (f"; {reads[0]} is the only key it reads" if len(reads) == 1
                   else f"; it reads {instead[0]} in its place" if instead
                   else "")
            raise ConfigError(f"{command} does not read {key}{why}")
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
    """The run spec of a command: the keys it reads set their fields, and
    every other field keeps RunSpec's default (construct, which runs no
    solver, takes the solver's own)."""
    fields = {field: cfg[key] for key, row in SETTINGS.items()
              if command in row[0] for field in row[1].split() if field != "eps"}
    if fields["case"] == "forced":
        raise ConfigError("case forced needs a control force g, which no "
                          "config key can give; it runs from the library only")
    return RunSpec(**fields)


def _outdir(cfg, args):
    """Make the output directory: a path no directory can take is refused."""
    out = args.out or cfg["output.dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out!r}: {exc.strerror or exc}")
    return out


def cmd_construct(cfg, args):
    spec, out = _run_spec(cfg, "construct"), _outdir(cfg, args)
    expansion = construct_expansion(spec, cfg["expansion.epsilon"])
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
    spec, out = _run_spec(cfg, "solve"), _outdir(cfg, args)
    expansion, sol, trace, full = solve_point(spec, cfg["expansion.epsilon"])
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
    eps = sweep_epsilons(_parse_epsilons(cfg["sweep.epsilons"]))
    out = _outdir(cfg, args)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            report = run_sweep(spec, eps, map=ex.map)
    else:
        report = run_sweep(spec, eps)
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
    spec, out = _run_spec(cfg, "audit"), _outdir(cfg, args)
    expansion, sol, _, full = solve_point(spec, cfg["expansion.epsilon"])
    report = audit_invariants(expansion, sol=sol, full=full)
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
            try:
                with open(path) as fh:
                    payload = json.load(fh)
            except (OSError, ValueError) as exc:   # JSON and decode errors
                raise ConfigError(f"report {path!r} is not readable JSON: {exc}")
            print(f"== {name} ==")
            print(json.dumps(payload, indent=2, sort_keys=True))
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
    except CONFIG_ERRORS as exc:
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
