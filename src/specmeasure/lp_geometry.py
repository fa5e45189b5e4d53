"""Geometry of the positive quadrant under an L_p norm, p in [1, inf].

The angular decomposition of bivariate extremes is taken with respect to
a user-chosen norm order p.  Everything downstream (extreme selection,
angular scores, spectral masses) depends on p only through the functions
collected here.

The order p is an ordinary float; ``math.inf`` selects the max norm.
Only :func:`lp_norm` branches on it, for speed; every other formula gets
the max norm through lp_norm, and none uses a large finite exponent.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_norm_order",
    "lp_norm",
    "score_f",
]

QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0


def check_norm_order(p: float) -> float:
    """Validate a norm order and return it as a float (inf allowed)."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm order must satisfy p >= 1 (inf allowed), got {p!r}")
    return p


def _check_angles(theta) -> np.ndarray:
    """``theta`` as floats with the 1e-12 slack above pi/2 counted as pi/2;
    raise unless every angle lies in [0, pi/2] (to 1e-12), NaN failing."""
    theta = np.asarray(theta, dtype=float)
    if theta.size and not (theta.min() >= 0.0 and theta.max() <= HALF_PI + 1e-12):
        raise ValueError("angles must lie in [0, pi/2]")
    return np.minimum(theta, HALF_PI)


def _unwrap(out):
    """A 0-d result as a float; an array as it is."""
    return float(out) if np.ndim(out) == 0 else out


def lp_norm(x, y, p: float):
    """L_p norm of the componentwise pair ``(x, y)``, elementwise.

    Parameters
    ----------
    x, y : array_like
        Real components; the norm takes their absolute values.
    p : float
        Norm order in [1, inf]; ``math.inf`` gives ``max(|x|, |y|)``.

    Notes
    -----
    For general finite p the evaluation is ``hi * (1 + (lo/hi)**p)**(1/p)``
    with ``hi = max(x, y)``, which avoids overflow and underflow of the
    raw powers when p is large.  p = 1 and p = 2 use exact direct forms.
    """
    p = check_norm_order(p)
    x = np.abs(np.asarray(x, dtype=float))
    y = np.abs(np.asarray(y, dtype=float))
    if math.isinf(p):
        out = np.maximum(x, y)
    elif p == 1.0:
        out = x + y
    elif p == 2.0:
        out = np.hypot(x, y)
    else:
        hi = np.maximum(x, y)
        lo = np.minimum(x, y)
        # equal components, both infinite too, have the ratio 1
        ratio = np.where(lo < hi, lo / np.where(lo < hi, hi, 1.0), 1.0)
        out = hi * (1.0 + ratio**p) ** (1.0 / p)
    return _unwrap(out)


def _geometry(theta: np.ndarray, p: float) -> tuple:
    """The score of :func:`score_f` at each checked angle (:func:`_check_angles`)
    and its moment factors sin/||.||_p and cos/||.||_p, from one sin, cos and norm."""
    s = np.sin(theta)
    c = np.cos(theta)
    norm = lp_norm(s, c, p)
    # the float pi/4 stands for the exact diagonal (rank ties reach it by
    # arctan(1)); sin/cos round one-sidedly there and at pi/2: pin both
    score = np.where(theta == QUARTER_PI, 0.0, (s - c) / norm)
    return np.where(theta >= HALF_PI, 1.0, score), s / norm, c / norm


def score_f(theta, p: float):
    """Angular moment score f(theta) = (sin - cos) / ||(sin, cos)||_p.

    Strictly increasing on [0, pi/2] with f(0) = -1, f(pi/4) = 0 and
    f(pi/2) = 1, all three exact; odd about pi/4 in the sense
    f(pi/4 + d) = -f(pi/4 - d).  A discrete angular measure Q satisfies
    the spectral moment constraints exactly when the Q-mean of this
    score vanishes.  Raises ``ValueError`` for an angle outside [0, pi/2].
    """
    p = check_norm_order(p)
    return _unwrap(_geometry(_check_angles(theta), p)[0])
