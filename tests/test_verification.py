import json

import numpy as np
import pytest

import chasflow.expansion as expansion_mod
import chasflow.verification as verification
from chasflow.expansion import construct_expansion
from chasflow.nonlinear import assemble_full_solution, build_case_forcing, picard_solve
from chasflow.verification import (ConfigError, RunSpec, audit_invariants,
                                   fit_quantity, report_to_csv, report_to_json,
                                   run_point, run_sweep)
from conftest import point_spec, reachable

L = 0.1
EPS = 1e-2


def test_sweep_plan_validation():
    with pytest.raises(ValueError):
        run_sweep(RunSpec("couette_noforce"), epsilons=(1e-1, 1e-2))  # too few
    with pytest.raises(ValueError):
        run_sweep(RunSpec("couette_noforce"),
                  epsilons=(1e-1, 1e-1, 1e-2, 1e-3))
    with pytest.raises(ConfigError):   # a vacuous layer-resolution check
        RunSpec("couette_noforce", min_layer_nodes=0)


def test_too_few_survivors_is_a_config_error_only_if_every_failure_is(
        monkeypatch):
    # one numerical failure among config failures makes the sweep numerical
    epsilons = (1e-1, 1e-2, 1e-3, 1e-4)
    for numerical, kind in ((0, ConfigError), (1, RuntimeError)):
        points = iter([(None, None, "ProfileError: p", True)] * (4 - numerical)
                      + [(None, None, "ConvergenceError: c", False)] * numerical)
        monkeypatch.setattr(verification, "_sweep_point",
                            lambda spec, eps: next(points))
        with pytest.raises(kind, match="only 0 sweep points survived"):
            run_sweep(RunSpec("couette_noforce"), epsilons)


def test_forced_case_runs_from_the_library():
    # no config key gives the control force, but a RunSpec may name the case
    spec = RunSpec("forced", nx=24, ny=48, kind="poiseuille_couette",
                   alpha1=0.5, alpha2=0.5)
    expansion = construct_expansion(spec, EPS)
    grid, ops = expansion.grid, expansion.ops
    mu = expansion.profile.mu(grid.y)
    assert np.array_equal(expansion.fields["u_s"], np.tile(mu, (grid.nx, 1)))
    assert not np.any(expansion.fields["v_s"]) and not np.any(
        expansion.fields["P_s"])
    shape = np.sin(np.pi * grid.XX / L) * np.sin(np.pi * grid.YY / 2)
    g1 = 0.5 * 0.05 * EPS ** spec.M0 / ops.norm(shape, "H2") * shape
    forcing = build_case_forcing(expansion, g_eps=(g1, np.zeros(grid.shape)),
                                 alpha0=0.05)
    sol, _ = picard_solve(expansion, forcing)
    assert 0 < sol.norms["X_norm"] and sol.residuals["nonlinear_momentum"] < 1e-6


def test_fit_quantity_synthetic():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    vals = 3.0 * eps ** 1.25
    fit = fit_quantity(eps, vals)
    assert fit["slope"] == pytest.approx(1.25, abs=1e-10)
    assert fit["loo"] < 1e-9
    # exact-family detection
    fit0 = fit_quantity(eps, np.zeros(4))
    assert fit0["exact"]


def test_fit_leave_one_out_sensitivity():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    vals = 3.0 * eps ** 1.25
    vals[1] *= 2.7  # one noisy point
    fit = fit_quantity(eps, vals)
    assert fit["loo"] > 0.05


def test_run_point_exact_couette():
    plan = RunSpec("couette_noforce", nx=32, ny=64)
    values, expansion, sol, full = run_point(plan, EPS)
    assert values["sup_u_minus_mu"] < 1e-11
    assert values["sup_v"] < 1e-11
    assert values["iterations"] == 1


def test_run_sweep_exact_family_flagged():
    plan = RunSpec("couette_noforce", nx=24, ny=64, M=1)
    report = run_sweep(plan, epsilons=(1e-1, 3e-2, 1e-2, 3e-3))
    assert report["exact_family"]
    assert report["pass"]


def test_report_serialization(tmp_path):
    plan = RunSpec("couette_noforce", nx=24, ny=64, M=1)
    report = run_sweep(plan, epsilons=(1e-1, 3e-2, 1e-2, 3e-3))
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    text = report_to_json(report, jpath)
    parsed = json.loads(text)
    assert parsed["case"] == "couette_noforce"
    report_to_csv(report, cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0].startswith("quantity,epsilon,value")
    assert len(lines) > 4


def _solved_bundle(amp=0.05):
    expansion = construct_expansion(
        point_spec("couette_noforce", 48, 96, M=2, kind="couette",
                   pert_amplitude=amp), EPS)
    sol, _ = picard_solve(expansion, build_case_forcing(expansion))
    full = assemble_full_solution(expansion, sol)
    return expansion, sol, full


def test_audit_invariants_green():
    expansion, sol, full = _solved_bundle()
    report = audit_invariants(expansion, sol=sol, full=full)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert report["pass"], failed


def test_audit_fault_injection():
    # a corrupted v field must trip the divergence check and name it
    expansion, sol, full = _solved_bundle()
    sol.v = sol.v.copy()
    sol.v[10, 20] += 1e-3
    report = audit_invariants(expansion, sol=sol, full=full)
    failed = {c["name"]: c for c in report["checks"] if not c["pass"]}
    assert "remainder.divergence" in failed
    assert "node" in failed["remainder.divergence"]["note"]


def test_audit_passing_divergence_note_is_free_of_round_off():
    # two remainders that differ by round-off (a bump of 5e-14 max|v| at one
    # v node) put the largest divergence residue at different nodes; a pass
    # names no node, so its note is the same for both
    expansion, sol, full = _solved_bundle()
    ops, v = expansion.ops, sol.v
    checks, nodes = [], []
    for bump in (0.0, 5e-14 * np.abs(v).max()):
        sol.v = v.copy()
        sol.v[10, 20] += bump
        div = np.abs(ops.apply("Dx", sol.u) + ops.apply("Dy", sol.v))
        nodes.append(np.unravel_index(div.argmax(), div.shape))
        report = audit_invariants(expansion, sol=sol, full=full)
        checks.append(next(c for c in report["checks"]
                           if c["name"] == "remainder.divergence"))
    assert nodes[0] != nodes[1]
    assert checks[0]["pass"] and checks[1]["pass"]
    assert checks[0]["value"] != checks[1]["value"]
    assert checks[0]["note"] == checks[1]["note"]
    assert "node" not in checks[0]["note"]


def test_picard_runs_on_a_released_point(monkeypatch):
    # at Picard's entry the expansion reaches no cascade, no Euler corrector
    # array and no march array (a layer's full-width U, DXU or V), and its
    # audit is the audit of the unreleased construction, check for check
    spec = point_spec("couette_noforce", 32, 64, M=2, kind="couette",
                      pert_amplitude=0.05)
    made, marches = {}, []
    construct = verification.construct_expansion

    def recording_construct(spec, eps):
        res = construct(spec, eps)
        made["cascade"], made["euler"] = res.cascade, list(res.correctors.euler)
        return res

    def recording(solve):
        def wrapped(*args, **kwargs):
            marches.append(solve(*args, **kwargs))
            return marches[-1]
        return wrapped

    def checking_picard(expansion, forcing):
        ids = {id(obj) for obj in reachable(expansion)}
        made["reached"] = {
            "cascade": id(made["cascade"]) in ids,
            "euler": [k for c in made["euler"] for k, a in c.fields.items()
                      if id(a) in ids],
            "march": [name for lay in marches for name in ("U", "DXU", "V")
                      if id(getattr(lay, name)) in ids]}
        return picard_solve(expansion, forcing)

    monkeypatch.setattr(verification, "construct_expansion", recording_construct)
    monkeypatch.setattr(verification, "picard_solve", checking_picard)
    for name in ("solve_layer_minus", "solve_layer_plus"):
        monkeypatch.setattr(expansion_mod, name,
                            recording(getattr(expansion_mod, name)))
    expansion, sol, _, full = verification.solve_point(spec, EPS)
    assert len(made["euler"]) == 3 and len(marches) == 4
    assert made["reached"] == {"cascade": False, "euler": [], "march": []}
    released = audit_invariants(expansion, sol=sol, full=full)
    whole = audit_invariants(construct(spec, EPS), sol=sol, full=full)
    checks = [(c["name"], c["value"]) for c in released["checks"]]
    assert checks == [(c["name"], c["value"]) for c in whole["checks"]]
    names = [name for name, _ in checks]
    assert "layer2p.far_field" in names and "euler_trace.v_e2p(y=0)" in names


# run_sweep keeps the audit of its last surviving point only, so a failing
# audit at another eps does not reach rate_report.json
COUETTE_COARSE_AUDIT = (
    "the couette sweep's eps = 0.1 point fails expansion.divergence_semianalytic"
    " (2.02e-4 at 32x64, 4.78e-4 at 48x96, above its 1e-4 max(|us_x|, |us_y|)"
    " tolerance); the sweep report keeps only the last point's audit")


@pytest.mark.xfail(strict=True, reason=COUETTE_COARSE_AUDIT)
def test_the_couette_sweeps_eps_0_1_point_passes_its_audit():
    spec = RunSpec("couette_noforce", nx=32, ny=64, pert_amplitude=0.05)
    _, summary, error, _ = verification._sweep_point(spec, 0.1)
    assert error is None
    assert [c["name"] for c in summary["checks"] if not c["pass"]] == []


def test_the_unperturbed_couette_eps_0_1_point_passes_its_audit():
    # the divergence check fails with the perturbation only
    spec = RunSpec("couette_noforce", nx=32, ny=64, pert_amplitude=0.0)
    _, summary, error, _ = verification._sweep_point(spec, 0.1)
    assert error is None and summary["pass"]
