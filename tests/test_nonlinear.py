import copy
import types
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from chasflow.discretization import grid_lu
from chasflow.expansion import construct_expansion
from chasflow.linearized import (RemainderSolution, compute_norms,
                                 norm_report, solve_linearized)
import chasflow.nonlinear as nonlinear
from chasflow.nonlinear import (ConvergenceError, ForcingError,
                                assemble_full_solution, build_case_forcing,
                                newton_solve, picard_solve)
from conftest import momentum_residual, newton_jacobian, point_spec

L = 0.1
EPS = 1e-2
# the case-(i) profile: the family at alpha1 = alpha2 = 0.5 with a bump
CASE_I = dict(kind="poiseuille_couette", alpha1=0.5, alpha2=0.5,
              pert_amplitude=0.05, pert_exponent=3.0 / 8.0 + 0.05)


def _case_i(nx, ny, eps=EPS, **settings):
    """(expansion, forcing) of a case-(i) point on an nx x ny grid."""
    spec = point_spec("poiseuille_couette_noforce", nx, ny,
                      **dict(CASE_I, **settings))
    expansion = construct_expansion(spec, eps)
    return expansion, build_case_forcing(expansion)


@pytest.fixture(scope="module")
def case_i_setup():
    return _case_i(48, 96)


def test_exact_families_one_iteration():
    for case, kind, alpha1, alpha2 in (
            ("couette_noforce", "couette", 1.0, 0.0),
            ("poiseuille_couette_noforce", "poiseuille", 0.0, 1.0)):
        expansion = construct_expansion(
            point_spec(case, 48, 96, kind=kind, alpha1=alpha1, alpha2=alpha2),
            EPS)
        sol, trace = picard_solve(expansion, build_case_forcing(expansion))
        assert len(trace.rows) == 1
        assert sol.norms["X_norm"] < 1e-8


def test_case_i_contracts(case_i_setup):
    expansion, forcing = case_i_setup
    sol, trace = picard_solve(expansion, forcing)
    assert sol.norms["X_norm"] > 0
    ratios = [r for r in trace.ratios if np.isfinite(r)]
    assert all(r < 0.5 for r in ratios[:2])
    assert sol.residuals["nonlinear_momentum"] < 1e-6


def test_fixed_point_property(case_i_setup):
    expansion, forcing = case_i_setup
    grid, ops = expansion.grid, expansion.ops
    sol, _ = picard_solve(expansion, forcing)
    # Picard leaves its problem frozen at the converged pair
    assert sol.problem.ubar is sol.u and sol.problem.vbar is sol.v
    again = solve_linearized(sol.problem)
    d = RemainderSolution(grid, ops, again.u - sol.u, again.v - sol.v)
    dx = compute_norms(d, expansion.fields, EPS)["X_norm"]
    assert dx < 1e-9 * max(1.0, sol.norms["X_norm"])


def test_picard_takes_one_x_norm_for_its_first_step(case_i_24x48,
                                                    monkeypatch):
    # from the zero start the first step sol - 0.0 is the iterate, bit for
    # bit, so Picard takes 2 k - 1 X-norms in k steps; each trace row holds
    # the X-norms of the iterate and of its step from the previous one, as
    # when both are taken at every step
    expansion, forcing = case_i_24x48
    calls, iterates = [], []

    def norms(sol, background, eps):
        calls.append(sol)
        return compute_norms(sol, background, eps)

    def solve(problem):
        iterates.append(solve_linearized(problem))
        return iterates[-1]

    monkeypatch.setattr(nonlinear, "compute_norms", norms)
    monkeypatch.setattr(nonlinear, "solve_linearized", solve)
    sol, trace = picard_solve(expansion, forcing)
    k = len(trace.rows)
    assert k >= 2 and len(calls) == 2 * k - 1
    grid, ops, bg = expansion.grid, expansion.ops, expansion.fields
    pu = pv = np.zeros(grid.shape)
    prev_diff = None
    for row, it in zip(trace.rows, iterates):
        step = RemainderSolution(grid, ops, it.u - pu, it.v - pv)
        diff = compute_norms(step, bg, EPS)["X_norm"]
        xnorm = compute_norms(RemainderSolution(grid, ops, it.u, it.v), bg,
                              EPS)["X_norm"]
        assert row[1:3] == (xnorm, diff)
        if prev_diff is None:
            assert np.isnan(row[3])
        else:
            assert row[3] == diff / prev_diff
        pu, pv, prev_diff = it.u, it.v, diff


def test_picard_residual_is_its_pressure_recoverys(case_i_24x48):
    # recover_pressure leaves the momentum residual of the terms it formed;
    # it is momentum_residual's, and the trace's last residual is its norm
    expansion, forcing = case_i_24x48
    sol, trace = picard_solve(expansion, forcing)
    ops, c = expansion.ops, EPS ** expansion.M0
    again = momentum_residual(sol, sol.problem)
    for got, ref in zip(sol.momentum, again):
        assert got.tobytes() == ref.tobytes()
    resid = c * float(np.hypot(ops.norm(again[0], "L2"),
                               ops.norm(again[1], "L2")))
    assert trace.rows[-1][4] == resid == sol.residuals["nonlinear_momentum"]


def test_norm_report_residual_is_the_one_formed_afresh(case_i_24x48):
    # norm_report reads the pair recover_pressure left with sol.problem; it
    # is the residual of sol's own pair, formed again from the problem
    expansion, forcing = case_i_24x48
    sol, _ = picard_solve(expansion, forcing)
    assert sol.problem.ubar is sol.u and sol.problem.vbar is sol.v
    r1, r2 = momentum_residual(sol, sol.problem)
    ops = expansion.ops
    resid = float(np.hypot(ops.norm(r1, "L2"), ops.norm(r2, "L2")))
    assert norm_report(sol)["residual_momentum"] == resid > 0.0


def test_newton_oracle_agreement(case_i_setup):
    expansion, forcing = case_i_setup
    sol, _ = picard_solve(expansion, forcing)
    ubar, vbar = sol.problem.ubar.copy(), sol.problem.vbar.copy()
    newton = newton_solve(sol.problem)
    d = RemainderSolution(expansion.grid, expansion.ops, sol.u - newton.u,
                          sol.v - newton.v)
    dx = compute_norms(d, expansion.fields, EPS)["X_norm"]
    assert dx < 1e-8
    # Newton reads Picard's problem and leaves its frozen pair as it was
    assert sol.problem.ubar is sol.u and sol.problem.vbar is sol.v
    assert np.array_equal(sol.u, ubar) and np.array_equal(sol.v, vbar)


def test_smallness_monotonicity():
    xs = []
    for amp in (0.05, 0.025):
        sol, _ = picard_solve(*_case_i(48, 96, pert_amplitude=amp))
        xs.append(sol.norms["X_norm"])
    assert xs[1] < xs[0]
    # near-linear response: halving the amplitude roughly halves the norm
    assert xs[1] == pytest.approx(0.5 * xs[0], rel=0.2)


def _forced(**settings):
    """The constructed couette base flow of a forced point on 32x64."""
    return construct_expansion(
        point_spec("forced", 32, 64, kind="couette", **settings), EPS)


def test_case_iii_precondition():
    expansion = _forced()
    grid = expansion.grid
    g1 = np.ones(grid.shape)  # violates the smallness hypothesis by far
    with pytest.raises(ForcingError):
        build_case_forcing(expansion, g_eps=(g1, np.zeros(grid.shape)),
                           alpha0=0.05)
    small = 1e-12 * np.sin(np.pi * grid.XX / L) * np.sin(np.pi * grid.YY / 2)
    forcing = build_case_forcing(expansion,
                                 g_eps=(small, np.zeros(grid.shape)),
                                 alpha0=0.05)
    assert np.isfinite(forcing[0]).all()


def test_case_iii_always_checks_smallness():
    # a force without alpha0 cannot be checked, so it is refused, however
    # small it is
    expansion = _forced()
    small = 1e-12 * np.ones(expansion.grid.shape)
    with pytest.raises(ForcingError, match="alpha0"):
        build_case_forcing(expansion, g_eps=(small, np.zeros_like(small)))


def test_case_iii_bound_uses_the_runs_gamma():
    # the smallness bound is alpha0 eps^M0 with the run's own M0 = 11/8 +
    # gamma; a force between the gamma = 0.2 and gamma = 0.05 bounds (2x
    # apart at eps = 1e-2) must fail at gamma = 0.2
    expansion = _forced(gamma=0.2)
    grid, ops = expansion.grid, expansion.ops
    m0, alpha0 = 11.0 / 8.0 + 0.2, 0.05
    assert expansion.M0 == m0
    shape = np.sin(np.pi * grid.XX / L) * np.sin(np.pi * grid.YY / 2)
    g1 = 1.5 * alpha0 * EPS ** m0 / ops.norm(shape, "H2") * shape
    h2 = ops.norm(g1, "H2")
    assert alpha0 * EPS ** m0 < h2 < alpha0 * EPS ** (11.0 / 8.0 + 0.05)
    with pytest.raises(ForcingError):
        build_case_forcing(expansion, g_eps=(g1, np.zeros(grid.shape)),
                           alpha0=alpha0)


@pytest.fixture(scope="module")
def case_i_24x48():
    return _case_i(24, 48)


def _catch_grid_lu(monkeypatch):
    """Route every GridSystem factorization through a wrapper; returns the
    list it fills with the factor of each call."""
    import chasflow.discretization as discretization
    calls = []

    def lu(A, nx, ny):
        calls.append(grid_lu(A, nx, ny))
        return calls[-1]

    monkeypatch.setattr(discretization, "grid_lu", lu)
    return calls


def test_picard_factors_once(case_i_24x48, monkeypatch):
    # the psi system is Picard's one LU; its pressure is solved without one
    calls = _catch_grid_lu(monkeypatch)
    sol, _ = picard_solve(*case_i_24x48)
    assert len(calls) == 1 and sol.problem.system.lu is calls[0]
    assert sol.P is not None


def test_newton_factors_nothing(case_i_24x48, monkeypatch):
    sol, _ = picard_solve(*case_i_24x48)
    calls = _catch_grid_lu(monkeypatch)
    newton_solve(sol.problem)
    assert calls == []


def test_newton_preconditioner_is_picards_factor(case_i_24x48, monkeypatch):
    calls = _catch_grid_lu(monkeypatch)
    sol, _ = picard_solve(*case_i_24x48)
    picard = calls[0]        # the psi LU, Picard's only one
    assert sol.problem.system.lu is picard
    matvecs, inputs = [], []

    def operator(shape, matvec, dtype=None):
        matvecs.append(matvec)

        def recorded(b):
            inputs.append(np.array(b))
            return matvec(b)
        return LinearOperator(shape, matvec=recorded, dtype=dtype)

    monkeypatch.setattr(nonlinear, "LinearOperator", operator)
    newton_solve(sol.problem)
    assert len(matvecs) == 1 and matvecs[0].__self__ is picard
    # with its dtype given, scipy spends no solve on a zero vector to probe it
    assert inputs and all(np.any(b) for b in inputs)


def test_newton_repeats_no_superlu_solve(case_i_24x48, monkeypatch):
    # GMRES applies the preconditioner to the same vector twice in a row in
    # each Newton step; the factor solves it once and returns a copy
    sol, _ = picard_solve(*case_i_24x48)
    picard = sol.problem.system.lu
    applied, reached = [], []
    solve = picard.solve

    def counted(b):
        applied.append(np.array(b))
        return solve(b)

    class Recorded:
        def solve(self, b):
            reached.append(np.array(b))
            return superlu.solve(b)

    superlu = picard._lu
    monkeypatch.setattr(picard, "_lu", Recorded())
    monkeypatch.setattr(picard, "solve", counted)
    newton_solve(sol.problem)
    repeats = sum(np.array_equal(a, b) for a, b in zip(applied, applied[1:]))
    assert repeats > 0
    assert len(reached) == len(applied) - repeats
    assert not any(np.array_equal(a, b) for a, b in zip(reached, reached[1:]))
    # a repeat's answer is a copy: the caller may overwrite it
    x = picard.solve(applied[-1])
    x[:] = 0.0
    assert np.any(picard.solve(applied[-1]))


def test_mismatched_preconditioner_reaches_the_same_root(case_i_24x48,
                                                         monkeypatch):
    # the factor of another amplitude on the same grid only preconditions:
    # GMRES needs more iterations, but Newton's residual sets the root
    expansion, forcing = case_i_24x48
    sol, _ = picard_solve(expansion, forcing)
    matched = newton_solve(sol.problem)
    other, _ = picard_solve(*_case_i(24, 48, pert_amplitude=0.025))
    assert other.problem.system.lu is not sol.problem.system.lu
    monkeypatch.setattr(sol.problem.system, "lu", other.problem.system.lu)
    mismatched = newton_solve(sol.problem)
    d = RemainderSolution(expansion.grid, expansion.ops,
                          matched.u - mismatched.u, matched.v - mismatched.v)
    assert compute_norms(d, expansion.fields, EPS)["X_norm"] < 1e-8
    assert (mismatched.norms["gmres_iterations"]
            > matched.norms["gmres_iterations"] > 0)


def test_newton_refuses_a_missed_inner_tolerance(case_i_24x48, monkeypatch):
    # with no preconditioning GMRES cannot reach the inner tolerance within
    # its iterations; Newton must fail, not step on an inexact solve
    sol, _ = picard_solve(*case_i_24x48)
    monkeypatch.setattr(sol.problem.system, "lu",
                        types.SimpleNamespace(solve=lambda b: b))
    with pytest.raises(ConvergenceError, match="GMRES"):
        newton_solve(sol.problem)


def test_newton_refuses_a_stalled_line_search(case_i_24x48):
    # nonlinear terms far off the Jacobian that Newton steps by, so no
    # halving of the step decreases the residual.  With the force scaled
    # down, the last halving's step is within the step tolerance; Newton
    # must fail, not return that step (psi of about 1e-15) as the root
    sol, _ = picard_solve(*case_i_24x48)
    problem = copy.copy(sol.problem)
    problem.F1, problem.F2 = 1e-3 * problem.F1, 1e-3 * problem.F2
    terms = problem.nonlinear_terms
    problem.nonlinear_terms = lambda u, v: tuple(1e24 * n for n in terms(u, v))
    with pytest.raises(ConvergenceError, match="line search"):
        newton_solve(problem)


def test_newton_jacobian_is_the_derivative_of_the_residual(case_i_24x48):
    # at a nonzero iterate, Picard's psi scaled up 1e7 times: there J_N
    # carries about 2e-3 of each product and each of its eight terms more
    # than 1e-6, where at Picard's root J_N carries 2e-10 of it, which a
    # 1e-12 check could not see
    sol, _ = picard_solve(*case_i_24x48)
    problem = sol.problem
    ops, system = problem.ops, problem.system
    mask = np.ones(system.A.shape[0])
    mask[system.bnd] = 0.0

    def residual(psi):
        """Newton's residual G, less its constant curl F."""
        u, v = ops.apply("Dy", psi), -ops.apply("Dx", psi)
        N1, N2 = problem.nonlinear_terms(u, v)
        curlN = ops.apply("Dy", N1) - ops.apply("Dx", N2)
        return system.A @ psi - mask * curlN.ravel()

    psi = 1e7 * sol.psi.ravel()
    u, v = ops.apply("Dy", psi), -ops.apply("Dx", psi)
    jacobian = nonlinear._NewtonJacobian(problem, mask, u, v)
    reference = newton_jacobian(problem, u, v)
    rng = np.random.default_rng(5)
    for _ in range(3):
        p = rng.standard_normal(psi.size)
        Jp = jacobian @ p
        assert (np.linalg.norm(Jp - system.A @ p / system.d)
                > 1e-4 * np.linalg.norm(Jp))
        assert (np.linalg.norm(Jp - reference @ p)
                <= 1e-12 * np.linalg.norm(reference @ p))
        # N is quadratic, so the central difference is exact up to round-off
        h = np.linalg.norm(psi) / np.linalg.norm(p)
        fd = (residual(psi + h * p) - residual(psi - h * p)) / (2.0 * h)
        assert (np.linalg.norm(Jp - fd / system.d)
                <= 1e-12 * np.linalg.norm(fd / system.d))
    assert jacobian.products == 3


def test_newton_logs_each_step(case_i_24x48, caplog):
    expansion, forcing = case_i_24x48
    sol, _ = picard_solve(expansion, forcing)
    with caplog.at_level("DEBUG", logger="chasflow.nonlinear"):
        newton = newton_solve(sol.problem)
    steps = [r.args for r in caplog.records
             if r.getMessage().startswith("newton step")]
    assert [s[0] for s in steps] == list(range(1, len(steps) + 1))
    assert sum(s[2] for s in steps) == newton.norms["gmres_iterations"]
    assert all(s[3] <= nonlinear.NEWTON_INNER_RTOL for s in steps)
    # each GMRES iteration takes at least one Jacobian product
    assert all(s[4] >= s[2] for s in steps)


def test_assemble_full_solution_zero_remainder():
    expansion = construct_expansion(
        point_spec("couette_noforce", 32, 64, kind="couette"), EPS)
    grid = expansion.grid
    zero = RemainderSolution(grid, expansion.ops, np.zeros(grid.shape),
                             np.zeros(grid.shape))
    zero.P = np.zeros(grid.shape)     # as recover_pressure sets it
    full = assemble_full_solution(expansion, zero)
    assert np.array_equal(full["u"], expansion.fields["u_s"])
    audit = full["report"]["boundary_audit"]
    assert max(audit["u_wall_bottom"], audit["v_wall_bottom"],
               audit["u_wall_top"], audit["v_wall_top"],
               audit["inflow_u"]) < 1e-10


def test_boundary_audit_full_solution(case_i_setup):
    expansion, forcing = case_i_setup
    sol, _ = picard_solve(expansion, forcing)
    full = assemble_full_solution(expansion, sol)
    audit = full["report"]["boundary_audit"]
    for key in ("u_wall_bottom", "v_wall_bottom", "u_wall_top",
                "v_wall_top", "inflow_u"):
        assert audit[key] < 1e-10, key


def test_iteration_trace_csv(tmp_path, case_i_setup):
    sol, trace = picard_solve(*case_i_setup)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,X_norm,diff_X_norm,ratio,nonlinear_residual"
    assert len(lines) == len(trace.rows) + 1


def test_nonconvergence_guard():
    # an artificially amplified nonlinearity breaks the contraction; the
    # ratio monitor must abort with a diagnostic.  The map with remainder
    # exponent M0' = -4 and force F is the map with the run's M0 and force
    # eps^(M0' - M0) F, its iterates scaled by that constant (N is
    # quadratic), so scaling the force amplifies the nonlinearity alike
    expansion, forcing = _case_i(32, 64, max_iter=30)
    scale = EPS ** (-4.0 - expansion.M0)
    with pytest.raises(ConvergenceError, match="no contraction"):
        picard_solve(expansion, tuple(scale * f for f in forcing))


def test_picard_reads_the_spec_stopping_settings():
    with pytest.raises(ConvergenceError, match="in 1 iterations"):
        picard_solve(*_case_i(24, 48, max_iter=1))
    _, strict = picard_solve(*_case_i(24, 48))
    _, loose = picard_solve(*_case_i(24, 48, tol=1e-2))
    assert len(loose.rows) < len(strict.rows)


def test_linear_estimate_constant_stability():
    # linear-estimate shape: ||u||_X^2 <= C (alpha0^2 + eps^gamma ||ubar||_X^4)
    # with C independent of eps. alpha0 is the C4 amplitude of mu - U (see
    # test_perturbed_c4_bound). The estimate bounds C from above only, so C
    # may fall as eps falls but must not grow by the factor 50.
    gamma = 0.05
    alpha0 = CASE_I["pert_amplitude"]
    eps_values = (1e-1, 1e-2, 1e-3)
    consts = []
    for eps in eps_values:
        sol, _ = picard_solve(*_case_i(48, 96, eps=eps))
        x = sol.norms["X_norm"]
        # a zero remainder would meet the upper bound trivially
        assert x > 0.0
        consts.append(x ** 2 / (alpha0 ** 2 + eps ** gamma * x ** 4))
    assert all(np.isfinite(c) for c in consts)
    # eps_values is decreasing: C at a smaller eps against C at a larger one
    for (eps_i, c_i), (eps_j, c_j) in combinations(zip(eps_values, consts), 2):
        assert c_j / c_i < 50.0, (eps_i, eps_j)
