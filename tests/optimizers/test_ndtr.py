"""The numpy normal CDF behind expected improvement equals scipy's, bit for bit.

``repro.optimizers.acquisition.ndtr`` ports Cephes ``ndtr``/``erf``/``erfc``
so that a study never imports scipy.  Any last-place difference would move
an EI argmax and with it every trajectory pinned by a golden digest, so the
port is held to ``np.array_equal`` (no tolerance) against
``scipy.special.ndtr``: on over a million random inputs covering the erf
branch, both erfc branches and the underflow cut, and on each branch's
edges.
"""

import math

import numpy as np
import pytest

from repro.optimizers.acquisition import expected_improvement, ndtr

special = pytest.importorskip("scipy.special")

_EDGES = [
    0.0,
    1e-300,
    1.0,
    math.sqrt(2.0),  # |x| = 1: erf / erfc split
    8.0 * math.sqrt(2.0),  # |x| = 8: erfc's two approximations
    37.5,
    38.5,  # x*x crosses MAXLOG: erfc underflows to 0
    40.0,
    1e10,
    1e200,
    math.inf,
]


def _edge_inputs():
    edges = np.array(_EDGES)
    near = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    both = np.concatenate([edges, near])
    return np.concatenate([both, -both, [math.nan]])


def _random_inputs(seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(0.0, 3.0, 400_000),
            rng.uniform(-40.0, 10.0, 400_000),
            rng.uniform(-1.5, 1.5, 200_000),
            _edge_inputs(),
        ]
    )


def test_port_equals_scipy_on_a_million_inputs():
    a = _random_inputs()
    assert a.size >= 1_000_000
    got = ndtr(a)
    want = special.ndtr(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


def test_edge_cases_equal_scipy_including_signed_zeros():
    a = _edge_inputs()
    got = ndtr(a)
    want = special.ndtr(a)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert ndtr(np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]
    assert math.isnan(ndtr(np.array([math.nan]))[0])


def test_subnormal_tail_equals_scipy():
    # Deep in the lower tail the quotient is subnormal, where an extra
    # rounding step (e.g. halving before dividing) would show.
    a = -np.linspace(37.0, 38.5, 20_001)
    assert np.array_equal(ndtr(a), special.ndtr(a))


def test_shapes_follow_the_input():
    a = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert ndtr(a).shape == (3, 4)
    assert np.array_equal(ndtr(a), special.ndtr(a))
    assert ndtr(np.array([])).shape == (0,)
    assert float(ndtr(0.25)) == float(special.ndtr(0.25))


def test_no_floating_point_warnings_on_huge_inputs():
    with np.errstate(all="raise"):
        ndtr(np.array([1e300, -1e300, math.inf, -math.inf]))


def _parent_ei(mean, std, best_cost, xi):
    """Expected improvement as computed with ``scipy.special.ndtr``."""
    std = np.maximum(std, 1e-12)
    improvement = best_cost - mean - xi
    z = improvement / std
    pdf = np.exp(-0.5 * z * z) * (1.0 / math.sqrt(2.0 * math.pi))
    return np.maximum(improvement * special.ndtr(z) + std * pdf, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expected_improvement_equals_the_scipy_formula(seed):
    rng = np.random.default_rng(seed)
    mean = np.concatenate([rng.normal(0.0, 5.0, 5_000), [1e6, -1e6, 0.0, 0.7]])
    std = np.concatenate([rng.random(5_000) * 3.0 + 1e-9, [1e-12, 1e3, 1.0, 0.0]])
    for best, xi in [(0.7, 0.01), (-3.0, 0.0), (12.0, 0.5)]:
        got = expected_improvement(mean, std, best_cost=best, xi=xi)
        assert np.array_equal(got, _parent_ei(mean, std, best, xi))
