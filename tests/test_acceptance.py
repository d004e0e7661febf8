"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line; run with -s (or read the -v summary)
to see them.  Criteria are one-sided on rates: faster decay passes.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import erfc

from chasflow.discretization import DiffOps, GridSystem, HalfLineGrid
from chasflow.expansion import construct_expansion
from chasflow.linearized import PSI_WALLS, RemainderSolution, compute_norms
from chasflow.boundary_layers import solve_layer_minus, solve_layer_plus
from chasflow.nonlinear import (assemble_full_solution, build_case_forcing,
                                newton_solve, picard_solve)
from chasflow.verification import RunSpec, audit_invariants, run_sweep
from conftest import make_grid, point_spec

L = 0.1
GAMMA = 0.05


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def _solve_case(case, eps=1e-2, nx=48, ny=96, M=3, **profile):
    expansion = construct_expansion(point_spec(case, nx, ny, M=M, **profile),
                                    eps)
    sol, trace = picard_solve(expansion, build_case_forcing(expansion))
    return expansion.grid, expansion.ops, expansion, sol, trace


def test_criterion_1_exact_family():
    t0 = time.time()
    _, _, _, sol_c, tr_c = _solve_case("couette_noforce", kind="couette")
    _, _, _, sol_p, tr_p = _solve_case(
        "poiseuille_couette_noforce", kind="poiseuille", alpha1=0.0,
        alpha2=1.0)
    dt = time.time() - t0
    ok = (sol_c.norms["X_norm"] < 1e-8 and len(tr_c.rows) == 1
          and sol_p.norms["X_norm"] < 1e-8 and len(tr_p.rows) == 1 and dt < 30)
    assert _line(1, ok,
                 f"exact family: X_couette={sol_c.norms['X_norm']:.1e} "
                 f"X_poiseuille={sol_p.norms['X_norm']:.1e} "
                 f"iters=({len(tr_c.rows)},{len(tr_p.rows)}) [{dt:.0f}s]")


def test_criterion_2_biharmonic_mms():
    t0 = time.time()
    k = np.pi / (2 * L)
    errs = []
    for n in (48, 96, 192):
        g = make_grid(n, L=L)
        ops = DiffOps(g.x, g.y)
        X = np.sin(k * g.XX)
        Y = np.sin(np.pi * g.YY / 2) ** 2
        f = X * (k ** 4 * Y - k ** 2 * np.pi ** 2 * np.cos(np.pi * g.YY)
                 - (np.pi ** 4 / 2) * np.cos(np.pi * g.YY))
        psi = GridSystem(ops.kron("bih"), g, PSI_WALLS).solve(f)
        errs.append(np.abs(psi - X * Y).max())
    order = float(np.polyfit(np.log([1 / 48, 1 / 96, 1 / 192]),
                             np.log(errs), 1)[0])
    dt = time.time() - t0
    ok = order >= 1.9 and errs[-1] < 1e-5 and dt < 60
    assert _line(2, ok, f"biharmonic MMS: order={order:.2f} "
                        f"finest={errs[-1]:.2e} [{dt:.0f}s]")


def test_criterion_3_erfc_similarity():
    t0 = time.time()
    grid = HalfLineGrid(L, 201, 400, Ymax=20.0)
    lay = solve_layer_plus(None, np.ones(201), grid, m_coef=2.0, scheme="cn")
    X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
    with np.errstate(divide="ignore"):
        exact = erfc(Y / np.sqrt(2.0 * np.maximum(X, 1e-300)))
    mask = grid.x >= 0.1 * L
    err = float(np.abs(lay.U[mask] - exact[mask]).max())
    dt = time.time() - t0
    ok = err < 1e-3 and dt < 10
    assert _line(3, ok, f"erfc similarity (200x400): max err={err:.2e} [{dt:.0f}s]")


def test_criterion_4_degenerate_mms_order():
    # the stated u* = x e^-Y is exact in the x step for the implicit schemes
    # (flat recovery at Y-truncation level, asserted); the marching order is
    # measured on the curvature-bearing companion u* = sin(kx) e^-Y
    t0 = time.time()
    flat = []
    for nx in (101, 201):
        grid = HalfLineGrid(L, nx, 301)
        X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
        F = Y * np.exp(-Y) + np.exp(-Y) - X * np.exp(-Y)
        lay = solve_layer_minus(F, grid.x.copy(), grid, m_coef=1.0, scheme="cn")
        flat.append(float(np.abs(lay.U - X * np.exp(-Y)).max()))
    k = 40.0
    errs = []
    for nx in (51, 101, 201):
        grid = HalfLineGrid(L, nx, 401)
        X, Y = np.meshgrid(grid.x, grid.Y, indexing="ij")
        F = (Y * k * np.cos(k * X) * np.exp(-Y) + k * np.cos(k * X) * np.exp(-Y)
             - np.sin(k * X) * np.exp(-Y))
        lay = solve_layer_minus(F, np.sin(k * grid.x), grid, m_coef=1.0, scheme="cn")
        errs.append(float(np.abs(lay.U - np.sin(k * X) * np.exp(-Y)).max()))
    order = float(np.polyfit(np.log([1 / 50, 1 / 100, 1 / 200]),
                             np.log(errs), 1)[0])
    dt = time.time() - t0
    ok = (order >= 0.9 and flat[0] < 1e-4
          and abs(flat[1] - flat[0]) < 0.2 * flat[0] and dt < 30)
    assert _line(4, ok, f"degenerate-layer MMS: x-order={order:.2f} "
                        f"(companion), u*=x e^-Y flat at {flat[0]:.1e}/"
                        f"{flat[1]:.1e} under halving [{dt:.0f}s]")


@pytest.fixture(scope="module")
def couette_rate_sweep():
    """The Couette sweep that criteria 5 and 7 both read, run once, with
    its elapsed time so that each criterion still checks its budget."""
    t0 = time.time()
    plan = RunSpec("couette_noforce", pert_amplitude=0.05,
                   pert_exponent=0.0, M=3)
    report = run_sweep(plan)
    return report, time.time() - t0


def test_criterion_5_remainder_scaling(couette_rate_sweep):
    report, dt = couette_rate_sweep
    q = {e["name"]: e for e in report["quantities"]}
    slope = q["remainder_H2"]["slope"]
    ok = slope >= 1.8 and dt < 600
    assert _line(5, ok, f"remainder H2 scaling: slope={slope:.2f} "
                        f"(>= 1.8, proven eps^2 alpha0) [{dt:.0f}s]")


def test_criterion_6_family_perturbation_rates():
    t0 = time.time()
    plan = RunSpec("poiseuille_couette_noforce", alpha1=0.5, alpha2=0.5,
                   pert_amplitude=0.05, pert_exponent=3.0 / 8.0 + GAMMA, M=1)
    report = run_sweep(plan)
    q = {e["name"]: e for e in report["quantities"]}
    su = q["sup_u_minus_mu"]["slope"]
    sv = q["sup_v"]["slope"]
    dt = time.time() - t0
    ok = su >= 0.80 and sv >= 1.00 and dt < 900
    assert _line(6, ok, f"family-perturbation rates: |u-mu|_inf slope={su:.2f} "
                        f"(>=0.80, proven 7/8), |v|_inf slope={sv:.2f} (>=1.00, "
                        f"proven 9/8) [{dt:.0f}s]")


def test_criterion_7_couette_rate(couette_rate_sweep):
    report, dt = couette_rate_sweep
    q = {e["name"]: e for e in report["quantities"]}
    s = q["sup_u_plus_v"]["slope"]
    ok = s >= 0.90 and dt < 900
    assert _line(7, ok, f"Couette finite-perturbation rate: |u-mu|_inf + |v|_inf slope={s:.2f} "
                        f"(>= 0.90, proven 1) [{dt:.0f}s]")


def test_criterion_8_opposite_wall_traces():
    t0 = time.time()
    expansion = construct_expansion(
        point_spec("couette_noforce", 48, 96, M=3, kind="couette",
                   pert_amplitude=0.05), 1e-2)
    prof = expansion.profile
    # discretization tolerance calibrated by an MMS of the same elliptic
    # operator on the same extended grid at a comparable data norm
    gext, _ = expansion.ext
    from chasflow.euler_correctors import EulerSolver
    s = EulerSolver(gext, prof)
    vstar = (np.cos(np.pi * gext.XX / (2 * gext.L))
             * np.sin(np.pi * gext.YY / 2) ** 2)
    w = np.tile(prof.ratio2(gext.y), (gext.nx, 1))
    lap = (-(np.pi / (2 * gext.L)) ** 2 * vstar
           + np.cos(np.pi * gext.XX / (2 * gext.L))
           * (np.pi ** 2 / 2) * np.cos(np.pi * gext.YY))
    v = s._solve_v("first", -lap + w * vstar, None)
    scale = max(np.abs(c.v).max() for c in expansion.correctors.euler)
    disc_tol = float(np.abs(v - vstar).max()) * scale
    worst = max(val for name, val in expansion.report["opposite_wall_traces"].items()
                if name.startswith("v_e"))
    dt = time.time() - t0
    ok = worst < 10.0 * disc_tol and dt < 120
    assert _line(8, ok, f"opposite-wall Euler traces: worst={worst:.1e} < 10 x "
                        f"disc tol {disc_tol:.1e} [{dt:.0f}s]")


def test_criterion_9_oracle_equivalence():
    t0 = time.time()
    grid, ops, expansion, sol, _ = _solve_case(
        "poiseuille_couette_noforce", kind="poiseuille_couette", alpha1=0.5,
        alpha2=0.5, pert_amplitude=0.05, pert_exponent=3.0 / 8.0 + GAMMA)
    newton = newton_solve(sol.problem)
    d = RemainderSolution(grid, ops, sol.u - newton.u, sol.v - newton.v)
    dx = compute_norms(d, expansion.fields, 1e-2)["X_norm"]
    dt = time.time() - t0
    ok = dx < 1e-8 and dt < 300
    assert _line(9, ok, f"Picard vs damped Newton: X-difference={dx:.1e} "
                        f"(48x96, case i, eps=1e-2) [{dt:.0f}s]")


def test_criterion_10_invariant_suite():
    t0 = time.time()
    grid, ops, expansion, sol, _ = _solve_case(
        "couette_noforce", kind="couette", pert_amplitude=0.05)
    full = assemble_full_solution(expansion, sol)
    audit = audit_invariants(expansion, sol=sol, full=full)
    failed = [c["name"] for c in audit["checks"] if not c["pass"]]

    # far-field decay under Ymax doubling (< 1 % drift)
    base = HalfLineGrid(L, 81, 201, Ymax=20.0)
    ext_Y = np.concatenate([base.Y, base.Y[-1] + np.cumsum(
        np.full(40, base.Y[-1] - base.Y[-2]))])
    doubled = HalfLineGrid(L, None, None, x=base.x, Y=ext_Y)
    g = -0.1 * np.sin(np.pi * base.x / (2 * L)) ** 2
    drift = 0.0
    for m in (0, 2, 4):
        a = solve_layer_plus(None, g, base, m_coef=2.0,
                             scheme="cn").weighted_norm(m, 1, 1)
        b = solve_layer_plus(None, g, doubled, m_coef=2.0,
                             scheme="cn").weighted_norm(m, 1, 1)
        drift = max(drift, abs(a - b) / max(abs(a), 1e-30))

    # norm homogeneity
    r1 = compute_norms(RemainderSolution(grid, ops, sol.u, sol.v),
                       expansion.fields, 1e-2)
    r3 = compute_norms(RemainderSolution(grid, ops, 3 * sol.u, 3 * sol.v),
                       expansion.fields, 1e-2)
    homog = max(abs(r3[k] - 3 * r1[k]) / max(abs(r3[k]), 1e-30) for k in r1)

    # determinism of reports
    from chasflow.expansion import expansion_report
    rep1 = json.dumps(expansion_report(expansion), sort_keys=True)
    expansion2 = construct_expansion(expansion.spec, 1e-2)
    rep2 = json.dumps(expansion_report(expansion2), sort_keys=True)

    dt = time.time() - t0
    ok = (audit["pass"] and drift < 1e-2 and homog < 1e-10
          and rep1 == rep2 and dt < 300)
    assert _line(10, ok, f"invariant suite: audit={'green' if audit['pass'] else failed}, "
                         f"Ymax-doubling drift={drift:.1e}, homogeneity defect="
                         f"{homog:.1e}, reports byte-identical={rep1 == rep2} "
                         f"[{dt:.0f}s]")
