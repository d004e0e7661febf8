"""Base shear flows of the Poiseuille-Couette family and their perturbations.

A profile carries closed-form evaluators for mu(y) and its derivatives
through order 4, plus the degenerate-ratio evaluators mu''/mu and mu'''/mu
by direct division off the walls and, at a wall where mu vanishes (a
no-slip wall, where division is 0/0), by their limit from inside.
"""

import functools
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

PROFILE_KINDS = ("couette", "poiseuille", "poiseuille_couette", "custom")
# the degeneracy gate of the Couette construction
RATIO2_SUP, RATIO3_CK = 0.5, 5.0

_FINE = np.linspace(0.0, 2.0, 10001)


class ProfileError(ValueError):
    pass


class BumpShape:
    """Smooth bump c * y^4 (2-y)^4 sin(pi y), unit C^4 norm, flat at both walls.

    Vanishes with its derivatives to order >= 4 at y=0 and y=2, so adding it
    to a family profile keeps every wall condition exact.
    """

    def __init__(self):
        self._scale = 1.0
        self._scale = 1.0 / self.c4_norm()

    def __call__(self, y, k=0):
        y = np.asarray(y, dtype=float)
        return self._scale * _bump(y.tobytes(), k).reshape(y.shape)

    def c4_norm(self):
        return max(np.max(np.abs(self(_FINE, k))) for k in range(5))


@functools.lru_cache(maxsize=32)    # the fine nodes', a point's
def _bump(ybytes, k):
    """d^k [y^4 (2-y)^4 sin(pi y)] at the float64 nodes ybytes, read-only;
    eps does not enter, so each process evaluates it once per (nodes, k)."""
    y = np.frombuffer(ybytes)
    # (y^4)(2-y)^4 expanded; derivatives exact via polyder + Leibniz
    polys = [npoly.polymul(npoly.polypow([0.0, 0.0, 0.0, 0.0, 1.0], 1),
                           npoly.polypow([2.0, -1.0], 4))]
    for _ in range(k):
        polys.append(npoly.polyder(polys[-1]))
    out = np.zeros_like(y)
    for j in range(k + 1):
        # d^(k-j) sin(pi y) = pi^(k-j) sin(pi y + (k-j) pi/2)
        trig = np.pi ** (k - j) * np.sin(np.pi * y + (k - j) * np.pi / 2.0)
        out += comb(k, j) * npoly.polyval(y, polys[j]) * trig
    out.flags.writeable = False
    return out


class PerturbationSpec:
    """Perturbation mu - U = amplitude * eps^exponent * shape(y), shape the
    unit bump (`BumpShape`)."""

    def __init__(self, amplitude, exponent=0.0):
        if amplitude < 0:
            raise ProfileError("perturbation amplitude must be >= 0")
        self.amplitude = float(amplitude)
        self.exponent = float(exponent)
        self.shape = BumpShape()

    def scale(self, eps):
        return self.amplitude * eps ** self.exponent

    def delta(self, y, eps, k=0):
        return self.scale(eps) * self.shape(y, k)


class ShearProfile:
    """mu(y) with derivatives through order 4 on [0,2] and admissibility flags."""

    def __init__(self, kind, alpha1, alpha2, perturbation=None, eps=1.0,
                 custom=None):
        self.kind = kind
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        self.perturbation = perturbation
        self.eps = float(eps)
        self._custom = custom  # callable (y, k) -> derivative, overrides family
        self.c4_bound = max(np.max(np.abs(self.mu(_FINE, k))) for k in range(5))
        self.admissible = bool(np.all(self.mu(_FINE)[1:-1] > 0.0)
                               and self.mu(np.array([0.0]), 1)[0] > 0.0)

    # -- evaluators --------------------------------------------------------

    def base(self, y, k=0):
        """Derivatives of U(y) = alpha1 y + alpha2 y (2-y)."""
        y = np.asarray(y, dtype=float)
        if k == 0:
            return self.alpha1 * y + self.alpha2 * y * (2.0 - y)
        if k == 1:
            return self.alpha1 + self.alpha2 * (2.0 - 2.0 * y) + 0.0 * y
        if k == 2:
            return -2.0 * self.alpha2 + 0.0 * y
        return 0.0 * y

    def mu(self, y, k=0):
        if self._custom is not None:
            return np.asarray(self._custom(y, k), dtype=float)
        out = self.base(y, k)
        if self.perturbation is not None:
            out = out + self.perturbation.delta(y, self.eps, k)
        return out

    # -- degenerate ratios ---------------------------------------------------

    def _ratio(self, y, k):
        """mu^(k)/mu by direct division; at a wall where mu vanishes, the
        limit from inside, where mu > 0: mu^(k+1)/mu' if mu^(k) vanishes
        there too, else sign(mu^(k)) * inf."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.mu(y, k) / self.mu(y)
        for wall in (0.0, 2.0):
            w = np.array([wall])
            if abs(self.mu(w)[0]) > 1e-12:
                continue
            dk = self.mu(w, k)[0]
            if abs(dk) < 1e-12 * max(1.0, self.c4_bound):
                out[y == wall] = self.mu(w, k + 1)[0] / self.mu(w, 1)[0]
            else:
                out[y == wall] = np.sign(dk) * np.inf
        return out

    def ratio2(self, y):
        """mu''/mu, wall values by their limit from inside."""
        return self._ratio(y, 2)

    def ratio3(self, y):
        """mu'''/mu, wall values by their limit from inside."""
        return self._ratio(y, 3)

    def __repr__(self):
        return (f"ShearProfile(kind={self.kind!r}, alpha1={self.alpha1}, "
                f"alpha2={self.alpha2}, admissible={self.admissible})")


def build_profile(kind, alpha1, alpha2, perturbation=None, eps=1.0,
                  custom=None):
    """Construct and validate a profile of the Poiseuille-Couette family.

    "couette" needs alpha2 = 0 and "poiseuille" alpha1 = 0;
    "poiseuille_couette" takes any pair.  A perturbation adds its bump on
    top of U.  "custom" takes a (y, k) -> d^k mu callable.
    Rejects mu <= 0 in the interior or mu'(0) <= 0.
    """
    if kind not in PROFILE_KINDS:
        raise ProfileError(f"unknown profile kind {kind!r}")
    if kind == "custom" and custom is None:
        raise ProfileError("profile kind 'custom' needs a mu callable, "
                           "which no config key can give")
    if kind == "couette" and alpha2 != 0.0:
        raise ProfileError("profile kind 'couette' needs alpha2 = 0")
    if kind == "poiseuille" and alpha1 != 0.0:
        raise ProfileError("profile kind 'poiseuille' needs alpha1 = 0")
    if alpha1 < 0 or alpha2 < 0:
        raise ProfileError("alpha1, alpha2 must be >= 0")
    if kind != "custom" and alpha1 + alpha2 <= 0:
        raise ProfileError("family profiles need alpha1 + alpha2 > 0")
    prof = ShearProfile(kind, alpha1, alpha2, perturbation=perturbation,
                        eps=eps, custom=custom)
    if not prof.admissible:
        raise ProfileError(
            "profile is not admissible: needs mu > 0 on (0,2) and mu'(0) > 0")
    return prof


def check_couette_degeneracy(profile):
    """Report sup|mu''/mu| and |mu'''/mu|_{C^k} against RATIO2_SUP and RATIO3_CK.

    The samples are the 10,001 fine nodes, both walls among them.  Wall
    values are the ratios' limits (mu'(0) > 0 makes them well defined for
    degenerate profiles); C^k derivatives of the ratio are measured on the
    samples.  Report-only: never raises.
    """
    k = 2
    y = _FINE
    r2 = profile.ratio2(y)
    r3 = profile.ratio3(y)
    sup_r2 = float(np.max(np.abs(r2)))
    if np.all(np.isfinite(r3)):
        ck = float(np.max(np.abs(r3)))
        d = r3
        for _ in range(k):
            d = np.gradient(d, y)
            ck = max(ck, float(np.max(np.abs(d))))
    else:
        ck = np.inf   # mu''' does not vanish at a wall where mu does
    report = {
        "sup_ratio2": sup_r2,
        "ratio3_ck": ck,
        "k": k,
        "thresholds": {"ratio2_sup": RATIO2_SUP, "ratio3_ck": RATIO3_CK},
        "pass_ratio2": bool(np.isfinite(sup_r2) and sup_r2 <= RATIO2_SUP),
        "pass_ratio3": bool(np.isfinite(ck) and ck <= RATIO3_CK),
    }
    report["pass"] = report["pass_ratio2"] and report["pass_ratio3"]
    return report
