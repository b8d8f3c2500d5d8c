"""Acquisition functions for Bayesian optimization (minimisation convention)."""

from __future__ import annotations

import math

import numpy as np

#: 1 / sqrt(2*pi) — the standard normal pdf is written out in closed form
#: instead of going through ``scipy.stats.norm.pdf``, whose distribution
#: machinery (argument broadcasting, shape validation, frozen-dist dispatch)
#: costs far more than the two flops it wraps.
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Coefficients of the Cephes ``ndtr.c`` rational approximations (S. L.
# Moshier): erfc on 1 <= x < 8 (P/Q) and x >= 8 (R/S), erf on |x| < 1 (T/U).
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)


def _horner_table() -> np.ndarray:
    """Stack the three rational approximations as one Horner table.

    Row ``b`` holds the numerator and row ``3 + b`` the denominator of
    branch ``b``: 0 is erf on ``|x| < 1``, 1 is erfc on ``[1, 8)``, 2 is
    erfc beyond.  A ``p1evl`` denominator gets its implicit leading 1
    written out (``1*x + c`` is ``x + c`` exactly), and shorter polynomials
    get leading zeros (``0*x + c`` is ``c`` exactly for finite ``x``).  So
    every element runs the same nine Horner steps, yet meets the same
    operations in the same order as Cephes ``polevl``/``p1evl``.
    """
    polys = [_T, _P, _R, (1.0, *_U), (1.0, *_Q), (1.0, *_S)]
    table = np.zeros((6, 9))
    for row, coef in zip(table, polys):
        row[9 - len(coef):] = coef
    return table


_HORNER = _horner_table()


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, equal bit for bit to ``scipy.special.ndtr``.

    A numpy port of Cephes ``ndtr``/``erf``/``erfc`` (S. L. Moshier), so
    that proposing a configuration does not import scipy.  With
    ``x = a/sqrt(2)``: ``0.5 + 0.5*erf(x)`` for ``|x| < 1``, else
    ``y = 0.5*erfc(|x|)``, reflected to ``1 - y`` for ``x > 0``.  The tail's
    ``exp`` goes through ``math.exp`` (the C library's, which scipy's
    compiled kernel also calls), and only for the tail's elements: numpy's
    vectorised ``exp`` differs in the last place on ~1.6% of inputs.
    """
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    n = x.size
    t = np.abs(x)
    # nan fails ``t >= 1`` and so takes the erf branch, which keeps it nan.
    in_tail = t >= 1.0
    tail = np.flatnonzero(in_tail)
    # erfc has underflowed to 0 well before t = 27, so clamping there keeps
    # every product finite without changing a live element.
    clamped = np.minimum(t, 27.0)
    sq = clamped * clamped
    # erf's polynomials run on x*x, erfc's on t.
    arg = np.where(in_tail, clamped, sq)
    branch = np.add(in_tail, t >= 8.0, dtype=np.intp)
    coef = np.take(_HORNER, np.concatenate([branch, branch + 3]), axis=0)
    arg = np.concatenate([arg, arg])
    poly = coef[:, 0].copy()
    for k in range(1, 9):
        poly *= arg
        poly += coef[:, k]
    # erf multiplies by x; erfc by exp(-t*t), or by 0 once -t*t < -MAXLOG.
    neg_sq = -sq[tail]
    e = np.fromiter(map(math.exp, neg_sq.tolist()), float, tail.size)
    e[neg_sq < -_MAXLOG] = 0.0
    factor = x.copy()
    factor[tail] = e
    y = 0.5 * ((factor * poly[:n]) / poly[n:])
    y[~in_tail] += 0.5
    upper = x >= 1.0
    y[upper] = 1.0 - y[upper]
    return y.reshape(a.shape)


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_cost: float,
    xi: float = 0.01,
) -> np.ndarray:
    """Expected improvement over ``best_cost`` when *minimising*.

    Parameters
    ----------
    mean, std:
        Surrogate posterior mean and standard deviation at the candidates.
    best_cost:
        Lowest observed cost so far (the incumbent).
    xi:
        Exploration bonus; larger values favour exploration.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise ValueError("mean and std must have the same shape")
    std = np.maximum(std, 1e-12)
    improvement = best_cost - mean - xi
    z = improvement / std
    pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    ei = improvement * ndtr(z) + std * pdf
    return np.maximum(ei, 0.0)


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, kappa: float = 1.8
) -> np.ndarray:
    """Lower-confidence-bound score for minimisation (negated for argmax use).

    Returns values where *larger is better* so callers can uniformly take an
    argmax over acquisition scores.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise ValueError("mean and std must have the same shape")
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return -(mean - kappa * std)
