from math import comb

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from chasflow import profiles
from chasflow.profiles import (BumpShape, PerturbationSpec, ProfileError,
                               build_profile, check_couette_degeneracy)

FINE = np.linspace(0.0, 2.0, 10001)


def test_pure_couette_closed_form(couette):
    y = np.linspace(0, 2, 101)
    assert np.allclose(couette.mu(y), y)
    assert np.allclose(couette.mu(y, 1), 1.0)
    assert np.allclose(couette.mu(y, 2), 0.0)


def test_pure_poiseuille_closed_form(poiseuille):
    y = np.linspace(0, 2, 101)
    assert np.allclose(poiseuille.mu(y), y * (2 - y))
    assert poiseuille.mu(np.array([1.0]))[0] == pytest.approx(1.0)
    assert np.allclose(poiseuille.mu(y, 2), -2.0)


def test_wall_values_every_profile(couette, poiseuille, perturbed_couette):
    # max over 1e4 nodes of |mu(0)|, |mu(2) - 2 alpha1| below 1e-12
    for prof in (couette, poiseuille, perturbed_couette):
        vals = prof.mu(FINE)
        assert abs(vals[0]) < 1e-12
        assert abs(vals[-1] - 2.0 * prof.alpha1) < 1e-12


def test_perturbed_c4_bound():
    # perturbation smallness: |mu - U|_C4 <= alpha0 eps^(3/8+gamma)
    eps = 1e-2
    pert = PerturbationSpec(0.1, 3.0 / 8.0 + 0.05)
    prof = build_profile("couette", 1, 0, perturbation=pert, eps=eps)
    c4 = max(np.max(np.abs(prof.perturbation.delta(FINE, eps, k))) for k in range(5))
    assert c4 <= 0.1 * eps ** (3.0 / 8.0 + 0.05) * (1 + 1e-9)


def test_derivative_consistency_richardson(perturbed_couette):
    # central differences of mu at spacing h vs mu': halving h shrinks the
    # defect by at least 3.5x (second-order consistency)
    y = np.linspace(0.1, 1.9, 301)

    def defect(h):
        approx = (perturbed_couette.mu(y + h) - perturbed_couette.mu(y - h)) / (2 * h)
        return np.max(np.abs(approx - perturbed_couette.mu(y, 1)))

    d1, d2 = defect(1e-3), defect(5e-4)
    assert d1 / d2 >= 3.5


def test_perturbation_linearity():
    p1 = PerturbationSpec(0.05, 0.0)
    p2 = PerturbationSpec(0.10, 0.0)
    y = np.linspace(0, 2, 501)
    assert np.allclose(2.0 * p1.delta(y, 1e-2), p2.delta(y, 1e-2), rtol=0, atol=1e-16)


def _bump_formula(y, k):
    """c * d^k [y^4 (2-y)^4 sin(pi y)] by Leibniz, evaluated afresh."""
    polys = [npoly.polymul([0.0, 0.0, 0.0, 0.0, 1.0],
                           npoly.polypow([2.0, -1.0], 4))]
    for _ in range(4):
        polys.append(npoly.polyder(polys[-1]))
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for j in range(k + 1):
        trig = np.pi ** (k - j) * np.sin(np.pi * y + (k - j) * np.pi / 2.0)
        out += comb(k, j) * npoly.polyval(y, polys[j]) * trig
    return out


def test_bump_values_are_computed_once_per_nodes_and_order():
    bump = BumpShape()
    scale = 1.0 / max(np.abs(_bump_formula(FINE, k)).max() for k in range(5))
    assert bump._scale == scale
    grid = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    for y in (FINE, grid, grid.T, 0.3):
        for k in range(5):
            got = bump(y, k)
            assert np.shape(got) == np.shape(y)
            assert np.asarray(got).tobytes() == np.asarray(
                scale * _bump_formula(y, k)).tobytes()
    first = profiles._bump(FINE.tobytes(), 3)
    assert profiles._bump(FINE.copy().tobytes(), 3) is first
    assert not first.flags.writeable
    # a caller gets its own array; other nodes or orders are other entries
    mine = bump(FINE, 3)
    mine[:] = 0.0
    assert np.abs(bump(FINE, 3)).max() > 0.0
    assert profiles._bump(FINE.tobytes(), 2) is not first
    assert profiles._bump(FINE[:-1].tobytes(), 3) is not first


def test_admissibility_rejections():
    with pytest.raises(ProfileError):
        build_profile("couette", 0.0, 0.0)  # alpha1 + alpha2 = 0
    with pytest.raises(ProfileError):
        build_profile("couette", -1.0, 0.0)
    # mu'(0) <= 0 via a custom profile
    with pytest.raises(ProfileError):
        build_profile("custom", 1.0, 0.0,
                      custom=lambda y, k=0: -np.asarray(y) if k == 0 else
                      (-np.ones_like(y) if k == 1 else np.zeros_like(y)))
    # the kind is read: a pair outside it, or custom without its mu
    for kind, alpha1, alpha2 in (("couette", 1.0, 0.5),
                                 ("poiseuille", 1.0, 0.5), ("custom", 1.0, 0.0)):
        with pytest.raises(ProfileError, match=kind):
            build_profile(kind, alpha1, alpha2)


def test_degeneracy_couette_zero(couette):
    rep = check_couette_degeneracy(couette)
    assert rep["sup_ratio2"] == 0.0
    assert rep["ratio3_ck"] == 0.0
    assert rep["pass"]


def test_degeneracy_poiseuille_fails(poiseuille):
    # mu'' = -2 while mu -> 0 at the walls: the ratio is unbounded
    rep = check_couette_degeneracy(poiseuille)
    assert not rep["pass_ratio2"]
    assert not np.isfinite(rep["sup_ratio2"]) or rep["sup_ratio2"] > 1e3


def _cubic_bump_mu(y, k=0):
    # d^k/dy^k of mu = y + 0.01 y^3 (2-y)^3, whose third derivative is
    # 0.48 at y = 0
    y = np.asarray(y, dtype=float)
    c = 0.01
    p = np.polynomial.polynomial.polymul(
        np.polynomial.polynomial.polypow([0, 0, 0, 1.0], 1),
        np.polynomial.polynomial.polypow([2.0, -1.0], 3))
    polys = [np.polynomial.polynomial.polyadd([0, 1.0], c * np.asarray(p))]
    for _ in range(4):
        polys.append(np.polynomial.polynomial.polyder(polys[-1]))
    return np.polynomial.polynomial.polyval(y, polys[k])


def test_degeneracy_cubic_bump_sampling_oracle():
    # mu = y + 0.01 y^3 (2-y)^3: sample the gate's 10,001 nodes and
    # Richardson-extrapolate the wall limit of mu''/mu; the wall value must
    # agree
    mu = _cubic_bump_mu
    prof = build_profile("custom", 1.0, 0.0, custom=mu)
    rep = check_couette_degeneracy(prof)
    assert np.isfinite(rep["sup_ratio2"])
    # Richardson oracle for the wall limit of mu''/mu ( -> mu'''(0)/mu'(0) )
    hs = np.array([1e-3, 5e-4])
    vals = mu(hs, 2) / mu(hs)
    wall = vals[1] + (vals[1] - vals[0])  # first-order extrapolation in h
    limit = prof.ratio2(np.array([0.0]))[0]
    assert limit == pytest.approx(wall, rel=5e-3)


def test_degeneracy_unbounded_ratio3_without_nan_arithmetic():
    # mu'''/mu is infinite at y = 0; the gate must say so without
    # differentiating the non-finite samples
    prof = build_profile("custom", 1.0, 0.0, custom=_cubic_bump_mu)
    with np.errstate(all="raise"):
        rep = check_couette_degeneracy(prof)
    assert rep["ratio3_ck"] == np.inf
    assert not rep["pass"]


def _mp_ratio(prof, y, k):
    """mu^(k)/mu at the float y, to 40 digits, from the profile's own
    constants; mpmath differentiates mu."""
    pert = prof.perturbation
    with mp.workdps(40):
        a1, a2 = mp.mpf(prof.alpha1), mp.mpf(prof.alpha2)
        bump = (0 if pert is None
                else mp.mpf(pert.scale(prof.eps)) * mp.mpf(pert.shape._scale))

        def mu(t):
            return (a1 * t + a2 * t * (2 - t)
                    + bump * t ** 4 * (2 - t) ** 4 * mp.sin(mp.pi * t))
        y = mp.mpf(y)
        return float(mp.diff(mu, y, k) / mu(y))


NEAR_WALL = np.array([1e-7, 1e-5, 9.9e-5])


@pytest.mark.parametrize("name, kind, alpha1, alpha2, pert, y", [
    ("perturbed couette", "couette", 1.0, 0.0, (0.05, 0.0), NEAR_WALL),
    ("family", "poiseuille_couette", 0.5, 0.5, (0.05, 0.425), NEAR_WALL),
    ("perturbed poiseuille", "poiseuille", 0.0, 1.0, (0.05, 0.0), NEAR_WALL),
    ("poiseuille", "poiseuille", 0.0, 1.0, None, 2.0 - NEAR_WALL),
])
def test_ratios_near_a_wall_match_mpmath(name, kind, alpha1, alpha2, pert, y):
    # within 1e-4 of a wall where mu vanishes, mu^(k)/mu to 1e-12 relative
    # (absolute below 1)
    spec = None if pert is None else PerturbationSpec(*pert)
    prof = build_profile(kind, alpha1, alpha2, perturbation=spec, eps=1e-2)
    for k, ratio in ((2, prof.ratio2), (3, prof.ratio3)):
        got = ratio(y)
        for yj, rj in zip(y, got):
            ref = _mp_ratio(prof, yj, k)
            assert abs(rj - ref) <= 1e-12 * max(1.0, abs(ref)), (name, k, yj)


def test_wall_ratios_are_limits(poiseuille, perturbed_couette):
    walls = np.array([0.0, 2.0])
    assert np.all(poiseuille.ratio2(walls) == -np.inf)
    family = build_profile("poiseuille_couette", 0.5, 0.5, eps=1e-2,
                           perturbation=PerturbationSpec(0.05, 0.425))
    cubic = build_profile("custom", 1.0, 0.0, custom=_cubic_bump_mu)
    vanishing = 0
    for prof in (poiseuille, perturbed_couette, family, cubic):
        for wall in walls:
            w = np.array([wall])
            if abs(prof.mu(w)[0]) > 1e-12:
                continue
            for k, ratio in ((2, prof.ratio2), (3, prof.ratio3)):
                dk = prof.mu(w, k)[0]
                if abs(dk) < 1e-12 * max(1.0, prof.c4_bound):
                    # removable: mu^(k+1)/mu', bit for bit
                    vanishing += 1
                    assert ratio(w)[0] == prof.mu(w, k + 1)[0] / prof.mu(w, 1)[0]
                else:
                    assert ratio(w)[0] == np.sign(dk) * np.inf
    # the cubic bump's mu''/mu tends to mu'''(0)/mu'(0) = 0.48
    assert cubic.ratio2(np.array([0.0]))[0] == pytest.approx(0.48, rel=1e-15)
    assert vanishing == 6
