import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from chasflow.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, SETTINGS,
                          ConfigError, _parse_epsilons, _run_spec,
                          load_config, main)
from chasflow.discretization import GridResolutionError
from chasflow.verification import RunSpec


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, ["expansion.epsilon=1e-3", "grid.ny=128"],
                      "construct")
    assert cfg["expansion.epsilon"] == 1e-3
    assert cfg["grid.ny"] == 128
    path = tmp_path / "run.cfg"
    path.write_text("[profile]\nkind = couette\nalpha1 = 2.0\n"
                    "[expansion]\nepsilon = 1e-2\n")
    cfg = load_config(str(path), (), "construct")
    assert cfg["profile.alpha1"] == 2.0


def test_unknown_key_is_hard_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[profile]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path), (), "solve")
    with pytest.raises(ConfigError):
        load_config(None, ["no_such.key=1"], "solve")


def test_construct_minimal_couette(tmp_path):
    out = str(tmp_path / "run")
    rc = main(["construct", "--set", "grid.nx=24", "--set", "grid.ny=64",
               "--out", out])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "run" / "expansion_report.json").read_text())
    assert report["case"] == "couette_noforce"
    assert report["norms"]["Fu_H2"] == 0.0
    assert os.path.exists(tmp_path / "run" / "u_s.bin")


def test_alpha2_conflict_exit_code(capsys):
    rc = main(["construct", "--set", "profile.alpha2=1.0",
               "--set", "expansion.case=couette_noforce"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "alpha2" in err


def test_sweep_needs_four_points():
    rc = main(["sweep", "--set", "sweep.epsilons=1e-2"])
    assert rc == EXIT_CONFIG


def test_determinism_byte_identical(tmp_path):
    args = ["construct", "--set", "grid.nx=24", "--set", "grid.ny=64",
            "--set", "profile.perturbation.amplitude=0.05",
            "--set", "expansion.m_layers=2"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == EXIT_OK
    assert main(args + ["--out", out2]) == EXIT_OK
    for name in ("expansion_report.json", "u_s.bin", "v_s.bin", "P_s.bin"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2, name


def test_solve_writes_trace(tmp_path):
    out = str(tmp_path / "solve")
    rc = main(["solve", "--set", "grid.nx=32", "--set", "grid.ny=64",
               "--set", "expansion.case=poiseuille_couette_noforce",
               "--set", "profile.kind=poiseuille_couette",
               "--set", "profile.alpha1=0.5", "--set", "profile.alpha2=0.5",
               "--set", "profile.perturbation.amplitude=0.05",
               "--set", "profile.perturbation.exponent=0.425",
               "--out", out])
    assert rc == EXIT_OK
    trace = (tmp_path / "solve" / "iteration_trace.csv").read_text().splitlines()
    assert trace[0] == "k,X_norm,diff_X_norm,ratio,nonlinear_residual"
    assert len(trace) >= 2
    payload = json.loads((tmp_path / "solve" / "solve_report.json").read_text())
    assert payload["solution"]["boundary_audit"]["u_wall_bottom"] < 1e-10


def test_audit_command(tmp_path, capsys):
    out = str(tmp_path / "audit")
    rc = main(["audit", "--set", "grid.nx=32", "--set", "grid.ny=64",
               "--set", "profile.perturbation.amplitude=0.05",
               "--set", "expansion.m_layers=2", "--out", out])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "audit" / "audit.json").read_text())
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
    assert "audit: pass" in capsys.readouterr().out


def test_report_command(tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["construct", "--set", "grid.nx=24", "--set", "grid.ny=64",
          "--out", out])
    rc = main(["report", "--out", out])
    assert rc == EXIT_OK
    assert "expansion_report.json" in capsys.readouterr().out
    rc = main(["report", "--out", str(tmp_path / "empty")])
    assert rc == EXIT_CONFIG


def test_report_prints_a_long_report_whole(tmp_path, capsys):
    payload = {"values": [0.1 * k for k in range(500)]}
    (tmp_path / "rate_report.json").write_text(json.dumps(payload))
    assert main(["report", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out) > 4000
    assert json.loads(out.split("== rate_report.json ==\n", 1)[1]) == payload


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("via", ["--out", "output.dir"])
@pytest.mark.parametrize("command", ["construct", "solve", "sweep", "audit"])
def test_an_output_path_no_directory_can_take_exits_2_before_any_point(
        command, via, under, tmp_path, capsys, monkeypatch):
    # a file, or a path under one, is refused before the command's work
    def no_work(*args, **kwargs):
        raise AssertionError("a point ran")

    for name in ("construct_expansion", "solve_point", "run_sweep"):
        monkeypatch.setattr(f"chasflow.cli.{name}", no_work)
    path = tmp_path / "a_file"
    path.write_text("")
    out = str(path / "run" if under else path)
    given = (["--out", out] if via == "--out"
             else ["--set", f"output.dir={out}"])
    assert main([command, *given]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: output directory")
    assert repr(out) in err
    assert path.read_text() == ""


@pytest.mark.parametrize("bad", ["{\"values\": [0.1,", b"{\"k\": \"\xff\"}",
                                 "a directory"])
def test_report_on_an_unreadable_report_exits_2(bad, tmp_path, capsys):
    # not JSON, not UTF-8, or no file at all: a bad path, not a numerical
    # failure
    path = tmp_path / "rate_report.json"
    if bad == "a directory":
        path.mkdir()
    elif isinstance(bad, bytes):
        path.write_bytes(bad)
    else:
        path.write_text(bad)
    assert main(["report", "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: report")
    assert repr(str(path)) in err


# a config file -> the values it sets, or the text of the exit-2 error
CONFIG_FILES = [
    ("[grid]\nL = 0.2\n", {"grid.L": 0.2}),
    ("[output]\ndir = out%1\n", {"output.dir": "out%1"}),
    ("[grid]\nNX = 16\n", "unknown config key 'grid.NX'"),
    ("[DEFAULT]\nnx = 16\n", "unknown config key 'DEFAULT.nx'"),
    ("nx = 16\n", "no section headers"),
    ("[grid]\nnx = 16\nnx = 24\n", "option 'nx' in section 'grid' already exists"),
    ("[grid]\nnx = 16\n[grid]\nny = 64\n", "section 'grid' already exists"),
    ("[grid]\nnx\n", "parsing errors"),
    ("[output]\ndir = out\xff\n", "codec can't decode byte 0xff"),
]


@pytest.mark.parametrize("text, expect", CONFIG_FILES)
def test_config_file_parses_as_documented(text, expect, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(text.encode("latin-1"))  # \xff is no UTF-8 byte
    if isinstance(expect, dict):
        cfg = load_config(str(path), (), "construct")
        assert {key: cfg[key] for key in expect} == expect
        return
    (tmp_path / "audit.json").write_text("{}")  # report would run otherwise
    rc = main(["report", "--config", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and expect in err


def test_degeneracy_threshold_keys_are_rejected():
    for key in ("profile.ratio2_threshold", "profile.ratio3_threshold"):
        with pytest.raises(ConfigError):
            load_config(None, [f"{key}=1e-12"], "solve")


def test_sweep_jobs_report_matches_serial(tmp_path):
    args = ["sweep", "--set", "sweep.nx=24", "--set", "sweep.ny_base=64",
            "--set", "sweep.m_layers=1", "--set", "sweep.pert_amplitude=0.05",
            "--set", "sweep.epsilons=1e-1,10**-1.5,1e-2,10**-2.5"]
    for jobs in ("1", "2"):
        assert main(args + ["--jobs", jobs, "--out",
                            str(tmp_path / jobs)]) == EXIT_OK
    serial = (tmp_path / "1" / "rate_report.json").read_bytes()
    assert (tmp_path / "2" / "rate_report.json").read_bytes() == serial
    audits = json.loads(serial)["audits"]
    assert len(audits) == 1 and audits[0]["pass"], audits


SMALL_SWEEP = ["sweep", "--set", "sweep.nx=24", "--set", "sweep.ny_base=64",
               "--set", "sweep.m_layers=1", "--set", "sweep.pert_amplitude=0.05",
               "--set", "sweep.epsilons=1e-1,10**-1.5,1e-2,10**-2.5"]
SMALL_AUDIT = ["audit", "--set", "grid.nx=32", "--set", "grid.ny=64",
               "--set", "profile.perturbation.amplitude=0.05",
               "--set", "expansion.m_layers=2"]


def test_sweep_reads_solver_keys(tmp_path, capsys):
    rc = main(SMALL_SWEEP + ["--set", "solver.max_iter=1",
                             "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("case, amplitude, error", [
    ("poiseuille_couette_noforce", "1e4", "ProfileError"),   # not admissible
    ("couette_noforce", "50", "ExpansionError")])            # degeneracy gate
def test_sweep_failing_every_point_on_a_setting_exits_2(tmp_path, capsys,
                                                        case, amplitude, error):
    # the bumped profile exists only once a point's eps is known, so a bad
    # amplitude fails each point; when each fails on the setting, the sweep
    # is a config error, as construct with that amplitude is
    rc = main(["sweep", "--set", f"sweep.pert_amplitude={amplitude}",
               "--set", "sweep.nx=16", "--set", "sweep.ny_base=32",
               "--set", f"sweep.case={case}", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count(error) == 5


def test_sweep_reads_expansion_keys(tmp_path):
    assert main(SMALL_SWEEP + ["--out", str(tmp_path / "be")]) == EXIT_OK
    assert main(SMALL_SWEEP + ["--set", "expansion.scheme=cn",
                               "--out", str(tmp_path / "cn")]) == EXIT_OK
    be = (tmp_path / "be" / "rate_report.json").read_bytes()
    assert (tmp_path / "cn" / "rate_report.json").read_bytes() != be


def test_audit_reads_solver_keys(tmp_path, capsys):
    rc = main(SMALL_AUDIT + ["--set", "solver.max_iter=1",
                             "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


# a sweep reads every float setting of RunSpec through these keys
NON_FINITE = [f"{key}={value}" for value in ("nan", "inf") for key in (
    "grid.L", "grid.resolve_factor", "expansion.gamma", "expansion.a0",
    "expansion.ext_factor", "solver.tol", "sweep.alpha1", "sweep.alpha2",
    "sweep.pert_amplitude", "sweep.pert_exponent")] + [
    "sweep.epsilons=nan,1e-1,1e-2,1e-3", "sweep.epsilons=inf,1e-1,1e-2,1e-3"]


@pytest.mark.parametrize("bad", ["sweep.case=bogus", "sweep.alpha2=1.0",
                                 "sweep.pert_amplitude=-0.05",
                                 "sweep.case=forced",
                                 "profile.kind=poiseuille",
                                 "profile.kind=custom",
                                 "expansion.ext_factor=0.5",
                                 "expansion.layer_ny=3",
                                 "grid.L=0", "grid.L=-1",
                                 "grid.resolve_factor=0", "sweep.nx=2",
                                 "sweep.min_layer_nodes=0", "sweep.ny_cap=48",
                                 "grid.min_layer_nodes=-3",
                                 "solver.max_iter=0", "solver.tol=-1",
                                 "sweep.epsilons=1e-1,1e-2,1e-3",
                                 "sweep.epsilons=1e-1,x,1e-2,1e-3,1e-4",
                                 "sweep.epsilons=1e-1,1e-3,1e-2,1e-4",
                                 "sweep.epsilons=1e-1,1e-2,1e-3,-1",
                                 "sweep.epsilons=-10**0.5,1e-2,1e-3,1e-4",
                                 "sweep.epsilons=0**-1,1e-2,1e-3,1e-4"]
                         + NON_FINITE)
def test_sweep_config_error_exits_before_any_point(bad, tmp_path, capsys,
                                                   monkeypatch):
    import chasflow.verification as verification

    def no_point(spec, eps):
        raise AssertionError("a point ran")

    monkeypatch.setattr(verification, "run_point", no_point)
    rc = main(SMALL_SWEEP + ["--set", bad, "--out", str(tmp_path / "run")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []   # nor is the output directory made


def test_newton_check_assembles_the_operator_once(tmp_path, monkeypatch):
    # Newton reuses Picard's psi system instead of assembling its own
    import chasflow.linearized as linearized
    import chasflow.nonlinear as nonlinear
    assemble = linearized.assemble_linearized_operator
    calls = []

    def counted(problem):
        calls.append(problem)
        return assemble(problem)

    for module in (linearized, nonlinear):
        monkeypatch.setattr(module, "assemble_linearized_operator", counted)
    rc = main(["solve", "--set", "grid.nx=24", "--set", "grid.ny=48",
               "--set", "expansion.case=poiseuille_couette_noforce",
               "--set", "profile.kind=poiseuille_couette",
               "--set", "profile.alpha1=0.5", "--set", "profile.alpha2=0.5",
               "--set", "profile.perturbation.amplitude=0.05",
               "--set", "profile.perturbation.exponent=0.425",
               "--set", "solver.newton_check=true", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "solve_report.json").read_text())
    assert payload["newton_X_norm"] == pytest.approx(
        payload["norms"]["X_norm"], rel=1e-6)
    assert len(calls) == 1


def test_newton_check_on_an_exact_point_writes_zero(tmp_path):
    # the unperturbed family point is exact: the forcing, and with it the
    # first Newton residual, is zero, so Newton returns psi = 0 at once
    rc = main(["solve", "--set", "grid.nx=24", "--set", "grid.ny=48",
               "--set", "expansion.case=poiseuille_couette_noforce",
               "--set", "profile.kind=poiseuille_couette",
               "--set", "profile.alpha1=0.5", "--set", "profile.alpha2=0.5",
               "--set", "solver.newton_check=true", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "solve_report.json").read_text())
    assert payload["newton_X_norm"] == 0.0


# (command, key it ignores, the key it reads in its place or None): each
# sweep.* key that stands in for a single point's key, both ways, the two
# sweep-only keys, and the solver keys of a command that runs no solver or
# no Newton check
IGNORED = [
    ("sweep", "expansion.case", "sweep.case"),
    ("sweep", "expansion.m_layers", "sweep.m_layers"),
    ("sweep", "grid.nx", "sweep.nx"),
    ("sweep", "grid.ny", "sweep.ny_base"),
    ("sweep", "grid.min_layer_nodes", "sweep.min_layer_nodes"),
    ("sweep", "profile.alpha1", "sweep.alpha1"),
    ("sweep", "profile.alpha2", "sweep.alpha2"),
    ("sweep", "profile.perturbation.amplitude", "sweep.pert_amplitude"),
    ("sweep", "profile.perturbation.exponent", "sweep.pert_exponent"),
    ("solve", "sweep.case", "expansion.case"),
    ("solve", "sweep.m_layers", "expansion.m_layers"),
    ("solve", "sweep.nx", "grid.nx"),
    ("solve", "sweep.ny_base", "grid.ny"),
    ("solve", "sweep.min_layer_nodes", "grid.min_layer_nodes"),
    ("solve", "sweep.alpha1", "profile.alpha1"),
    ("solve", "sweep.alpha2", "profile.alpha2"),
    ("solve", "sweep.pert_amplitude", "profile.perturbation.amplitude"),
    ("solve", "sweep.pert_exponent", "profile.perturbation.exponent"),
    ("sweep", "expansion.epsilon", "sweep.epsilons"),
    ("construct", "sweep.epsilons", "expansion.epsilon"),
    ("audit", "sweep.ny_cap", "grid.ny"),
    ("construct", "solver.tol", None),
    ("construct", "solver.max_iter", None),
    ("construct", "solver.newton_check", None),
    ("sweep", "solver.newton_check", None),
    ("audit", "solver.newton_check", None)]


@pytest.mark.parametrize("command, key, instead", IGNORED)
def test_a_key_the_command_ignores_exits_before_any_point(
        command, key, instead, tmp_path, capsys, monkeypatch):
    def no_work(spec, eps):
        raise AssertionError("a point ran")

    monkeypatch.setattr("chasflow.verification.run_point", no_work)
    monkeypatch.setattr("chasflow.cli.construct_expansion", no_work)
    monkeypatch.setattr("chasflow.cli.solve_point", no_work)
    # even the default value, given, is refused
    default = load_config(None, (), command)[key]
    rc = main([command, "--set", f"{key}={default}",
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{command} does not read {key}" in err
    if instead is not None:
        assert f"does not read {key}; it reads {instead} in" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key", ["grid.nx", "sweep.nx"])
def test_report_refuses_every_key_but_output_dir(key, tmp_path, capsys):
    (tmp_path / "expansion_report.json").write_text("{}\n")
    rc = main(["report", "--set", f"{key}=3", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"report does not read {key}; output.dir is the only key" in err
    assert main(["report", "--set", f"output.dir={tmp_path}"]) == EXIT_OK


# the config keys each command reads; it refuses every other key
READ_BY_ALL = {"profile.kind", "grid.L", "grid.resolve_factor",
               "expansion.gamma", "expansion.a0", "expansion.layer_ny",
               "expansion.ext_factor", "expansion.scheme", "output.dir"}
READ_BY_POINTS = READ_BY_ALL | {
    "profile.alpha1", "profile.alpha2", "profile.perturbation.amplitude",
    "profile.perturbation.exponent", "grid.nx", "grid.ny",
    "grid.min_layer_nodes", "expansion.epsilon", "expansion.m_layers",
    "expansion.case"}
READS = {
    "construct": READ_BY_POINTS | {"output.formats"},
    "solve": READ_BY_POINTS | {"solver.tol", "solver.max_iter",
                               "solver.newton_check"},
    "audit": READ_BY_POINTS | {"solver.tol", "solver.max_iter"},
    "sweep": READ_BY_ALL | {
        "solver.tol", "solver.max_iter", "sweep.case", "sweep.epsilons",
        "sweep.nx", "sweep.ny_base", "sweep.ny_cap", "sweep.m_layers",
        "sweep.min_layer_nodes", "sweep.pert_amplitude",
        "sweep.pert_exponent", "sweep.alpha1", "sweep.alpha2"},
    "report": {"output.dir"}}


def _reads(command, key):
    """Whether load_config takes key, given, for command (the value 1 parses
    as every type the keys have)."""
    try:
        load_config(None, [f"{key}=1"], command)
    except ConfigError as exc:
        assert not str(exc).startswith("unknown config key"), exc
        return not str(exc).startswith(f"{command} does not read {key}")
    return True


def test_each_command_reads_exactly_its_keys():
    every = set().union(*READS.values())
    assert len(every) == 34
    for command, keys in READS.items():
        assert {key for key in every if _reads(command, key)} == keys, command


# key=value -> the RunSpec attributes that it changes (M0 follows gamma, and
# a single point's grid.ny is its ny_cap too: a point never refines ny)
REACH_ALL = {"profile.kind=couette": {"kind"}, "grid.L=0.2": {"L"},
             "grid.resolve_factor=0.5": {"resolve_factor"},
             "expansion.gamma=0.1": {"gamma", "M0"},
             "expansion.a0=0.5": {"a0"},
             "expansion.layer_ny=256": {"layer_nY"},
             "expansion.ext_factor=1.5": {"ext_factor"},
             "expansion.scheme=cn": {"scheme"}}
REACH_SOLVER = {"solver.tol=1e-8": {"tol"}, "solver.max_iter=20": {"max_iter"}}
REACH_POINT = {"profile.alpha1=2.0": {"alpha1"},
               "profile.alpha2=0.5": {"alpha2"},
               "profile.perturbation.amplitude=0.1": {"perturbation"},
               "profile.perturbation.exponent=0.425": {"perturbation"},
               "grid.nx=32": {"nx"}, "grid.ny=128": {"ny", "ny_cap"},
               "grid.min_layer_nodes=4": {"min_layer_nodes"},
               "expansion.m_layers=2": {"M"},
               "expansion.case=couette_noforce": {"case"}}
REACH_SWEEP = {"sweep.case=couette_noforce": {"case"}, "sweep.nx=32": {"nx"},
               "sweep.ny_base=128": {"ny"}, "sweep.ny_cap=256": {"ny_cap"},
               "sweep.m_layers=2": {"M"},
               "sweep.min_layer_nodes=4": {"min_layer_nodes"},
               "sweep.pert_amplitude=0.1": {"perturbation"},
               "sweep.pert_exponent=0.425": {"perturbation"},
               "sweep.alpha1=2.0": {"alpha1"}, "sweep.alpha2=0.5": {"alpha2"}}
REACHES = (
    [(command, setting, changed) for command in ("construct", "solve", "audit")
     for setting, changed in (REACH_ALL | REACH_POINT).items()]
    + [(command, setting, changed) for command in ("solve", "audit")
       for setting, changed in REACH_SOLVER.items()]
    + [("sweep", setting, changed)
       for setting, changed in (REACH_ALL | REACH_SOLVER | REACH_SWEEP).items()])
# a family case and a bump, so that alpha2 and the bump exponent can move
POINT_BASE = ["expansion.case=poiseuille_couette_noforce",
              "profile.perturbation.amplitude=0.05"]
SWEEP_BASE = ["sweep.case=poiseuille_couette_noforce",
              "sweep.pert_amplitude=0.05"]


def _spec_attributes(command, settings):
    spec = vars(_run_spec(load_config(None, settings, command), command))
    bump = spec["perturbation"]
    return dict(spec, perturbation=bump and (bump.amplitude, bump.exponent))


@pytest.mark.parametrize("command, setting, changed", REACHES)
def test_each_key_reaches_its_run_spec_field(command, setting, changed):
    base = SWEEP_BASE if command == "sweep" else POINT_BASE
    before = _spec_attributes(command, base)
    after = _spec_attributes(command, base + [setting])
    assert {k for k in before if before[k] != after[k]} == changed


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_jobs_below_one_exits_before_any_point(jobs, tmp_path, capsys,
                                                     monkeypatch):
    import chasflow.verification as verification

    def no_point(spec, eps):
        raise AssertionError("a point ran")

    monkeypatch.setattr(verification, "run_point", no_point)
    rc = main(SMALL_SWEEP + ["--jobs", jobs, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct", "solve", "audit", "report"])
def test_jobs_outside_sweep_exits_before_any_work(command, tmp_path, capsys,
                                                  monkeypatch):
    # only a sweep runs points concurrently; any other command would run
    # serially and ignore --jobs without a word
    def no_work(spec, eps):
        raise AssertionError("a point ran")

    monkeypatch.setattr("chasflow.cli.construct_expansion", no_work)
    monkeypatch.setattr("chasflow.cli.solve_point", no_work)
    (tmp_path / "expansion_report.json").write_text("{}\n")  # for report
    rc = main([command, "--jobs", "4", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["expansion_report.json"]


@pytest.mark.parametrize("command", ["solve", "sweep", "audit"])
def test_output_formats_is_refused_where_no_csv_is_written(command, tmp_path,
                                                           capsys, monkeypatch):
    # only construct writes the fields whose formats the key lists
    def no_work(spec, eps):
        raise AssertionError("a point ran")

    monkeypatch.setattr("chasflow.verification.run_point", no_work)
    monkeypatch.setattr("chasflow.cli.solve_point", no_work)
    for formats in ("csv", "json,csv"):
        rc = main([command, "--set", f"output.formats={formats}",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert f"{command} does not read output.formats" in \
            capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    # construct still reads it
    assert load_config(None, ["output.formats=json"], "construct")[
        "output.formats"] == "json"


@pytest.mark.parametrize("formats", ["xyz", "json,cvs"])
def test_unknown_output_format_is_config_error(formats, tmp_path, capsys,
                                               monkeypatch):
    def no_construct(spec, eps):
        raise AssertionError("construct ran")

    monkeypatch.setattr("chasflow.cli.construct_expansion", no_construct)
    rc = main(["construct", "--set", f"output.formats={formats}",
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "output.formats" in capsys.readouterr().err


def test_unknown_scheme_is_config_error(tmp_path, capsys):
    rc = main(["construct", "--set", "grid.nx=24", "--set", "grid.ny=64",
               "--set", "expansion.scheme=bogus", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "scheme" in capsys.readouterr().err


def test_a_false_boolean_and_a_blank_epsilon_token_are_read():
    cfg = load_config(None, ["solver.newton_check=off"], "solve")
    assert cfg["solver.newton_check"] is False
    assert _parse_epsilons("1e-1,,1e-2,1e-3,1e-4") == [1e-1, 1e-2, 1e-3, 1e-4]
    # a power token is C pow, bit for bit the ** of two floats
    assert _parse_epsilons("10**-1.5,10**-2.5") == [10.0 ** -1.5, 10.0 ** -2.5]


def test_negative_epsilon_exits_before_the_profile(tmp_path, capsys):
    # the bump amplitude * eps**exponent is complex for eps < 0, so eps is
    # checked before the profile is built, with no warning on the way; so
    # is a non-finite eps
    for eps in ("-1e-2", "nan", "inf"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["construct", "--set", f"expansion.epsilon={eps}",
                       "--set", "profile.perturbation.amplitude=0.05",
                       "--set", "profile.perturbation.exponent=0.425",
                       "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert [str(w.message) for w in caught] == []
        assert "epsilon" in capsys.readouterr().err


SMALL_CONSTRUCT = ["construct", "--set", "grid.nx=24", "--set", "grid.ny=64",
                   "--set", "profile.perturbation.amplitude=0.05",
                   "--set", "expansion.m_layers=2"]


@pytest.fixture(scope="module")
def default_construct_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    assert main(SMALL_CONSTRUCT + ["--out", str(out)]) == EXIT_OK
    return (out / "expansion_report.json").read_bytes()


@pytest.mark.parametrize("setting", ["expansion.gamma=0.1", "expansion.a0=0.3",
                                     "expansion.layer_ny=256",
                                     "expansion.ext_factor=1.5",
                                     "expansion.scheme=cn"])
def test_construct_reads_expansion_setting(setting, default_construct_report,
                                           tmp_path):
    assert main(SMALL_CONSTRUCT + ["--set", setting,
                                   "--out", str(tmp_path)]) == EXIT_OK
    text = (tmp_path / "expansion_report.json").read_bytes()
    assert text != default_construct_report
    if setting == "expansion.gamma=0.1":
        assert json.loads(text)["M0"] == 11.0 / 8.0 + 0.1


@pytest.mark.parametrize("cap, ny", [(16, None), (224, 48)])
def test_sweep_ny_cap_bounds_the_refinement(cap, ny):
    spec = _run_spec(load_config(None, ["sweep.ny_base=16",
                                        f"sweep.ny_cap={cap}"], "sweep"),
                     "sweep")
    if ny is None:
        with pytest.raises(GridResolutionError):
            spec.grid(1e-3)
    else:
        assert spec.grid(1e-3).ny == ny


def test_sweep_spec_defaults_match_run_spec():
    # a sweep takes every default from RunSpec
    assert vars(_run_spec(load_config(None, (), "sweep"), "sweep")) == vars(
        RunSpec("couette_noforce"))


def test_single_point_spec_differs_from_run_spec_as_the_readme_says():
    # grid.min_layer_nodes is 6 for a single point but 8 in a sweep and in
    # RunSpec, and a single point never refines ny: those are the only
    # differences between `chasflow construct` and RunSpec(case) at
    # default settings, and at 48x96, eps = 1e-2 they give other grids
    point = vars(_run_spec(load_config(None, (), "construct"), "construct"))
    library = vars(RunSpec(point["case"]))
    assert {k for k in library if point[k] != library[k]} == {
        "min_layer_nodes", "ny_cap"}
    assert (point["min_layer_nodes"], point["ny_cap"]) == (6, 96)
    assert (library["min_layer_nodes"], library["ny_cap"]) == (8, 224)
    defaults = load_config(None, (), "report")
    assert type(defaults["grid.min_layer_nodes"]) is int
    assert (defaults["grid.min_layer_nodes"],
            defaults["sweep.min_layer_nodes"]) == (6, 8)
    sigmas = [RunSpec(point["case"], ny_cap=96, min_layer_nodes=m).grid(
        1e-2).sigma for m in (6, 8)]
    assert [round(s, 3) for s in sigmas] == [0.668, 1.059]


def test_linalg_error_is_numerical_failure(tmp_path, capsys, monkeypatch):
    def singular(spec, eps):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("chasflow.cli.solve_point", singular)
    rc = main(["solve", "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_value_error_in_solve_is_numerical_failure(tmp_path, capsys,
                                                    monkeypatch):
    # every config value is checked before a point runs, so a ValueError
    # raised inside the solve (here by scipy) is a numerical failure
    def bad_interp(spec, eps):
        raise ValueError("`x` must be strictly increasing sequence.")

    monkeypatch.setattr("chasflow.cli.solve_point", bad_interp)
    rc = main(["solve", "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("level, rc", [("verbose", EXIT_CONFIG),
                                       ("BASIC_FORMAT", EXIT_CONFIG),
                                       ("info", EXIT_OK)])
def test_chas_log_level(level, rc, tmp_path, monkeypatch, capsys):
    (tmp_path / "audit.json").write_text("{}")
    monkeypatch.setenv("CHAS_LOG", level)
    assert main(["report", "--out", str(tmp_path)]) == rc
    if rc == EXIT_CONFIG:
        assert "config error: CHAS_LOG" in capsys.readouterr().err


def test_readme_config_table_lists_schema():
    """The backticked keys in the first column of the README's config
    table are exactly the config keys."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = text.split("| key | meaning |\n", 1)[1].split("\n\n", 1)[0]
    keys = [key for line in table.splitlines()[1:]
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(keys) == sorted(SETTINGS)
