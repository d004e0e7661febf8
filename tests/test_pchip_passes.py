"""The byte check of tools/pchip_passes.py: one bit moved in one output of
one side names that pass, and the operators of one checkout, loaded twice,
agree."""

import sys
from pathlib import Path

import numpy as np

from chasflow.discretization import pchip_operator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import pchip_passes  # noqa: E402


def test_same_bits_sees_one_bit():
    a = np.array([0.0, 1.0, np.nan])
    assert pchip_passes.same_bits(a, a.copy())
    assert not pchip_passes.same_bits(a, [-0.0, 1.0, np.nan])
    assert not pchip_passes.same_bits(a, [0.0, np.nextafter(1.0, 2.0), np.nan])
    assert not pchip_passes.same_bits(a, a[None])
    assert not pchip_passes.same_bits(a[:2], a[:2].astype(np.float32))


def test_differing_names_the_pass_that_moved():
    xs = np.linspace(0.0, 1.0, 7)
    y = np.cos(3.0 * xs)
    passes = [("nodes", xs, xs[:-1], y, 0),
              ("cubic", xs, np.linspace(-0.1, 1.1, 5), np.stack([y, -y], 1), 0)]

    def moved(xs, xq):
        op = pchip_operator(xs, xq)

        def apply(y, axis=0):
            out = op(y, axis)
            if xq.size == 5:
                out[0, 1] = np.nextafter(out[0, 1], np.inf)
            return out
        return apply

    loaded = pchip_passes.load_operators(ROOT / "src", "pchip_side_test")
    assert loaded is not pchip_operator
    assert pchip_passes.differing(passes, [pchip_operator, loaded]) == []
    assert pchip_passes.differing(passes, [pchip_operator, moved]) == [1]
    assert set(pchip_passes.timed(loaded, passes)) == {"nodes", "cubic"}
