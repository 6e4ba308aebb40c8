"""The radial map r = beta(s) = (s/(n-2))^(1/(n-2)) and the decay fit's window.

These helpers need numpy only, so validating a config loads neither
:mod:`oscillax.pde_bridge` nor :mod:`oscillax.bvp_solver`, which use them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["beta_map", "beta_inverse"]

FIT_WINDOW = 0.30     # fraction of the grid the decay fit covers ...
FIT_EXCLUDE = 0.05    # ... ending this fraction short of the truncation boundary
FIT_POINTS = 8        # fewest grid points the decay fit's window may hold


def beta_map(n: int, R: float, s) -> np.ndarray:
    """r = beta(s) = (s/(n-2))^(1/(n-2)), the radius for arc parameter s."""
    _check_dim(n)
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0):
        raise ValueError("the arc parameter must be positive")
    r = np.power(s_arr / (n - 2), 1.0 / (n - 2))
    if np.any(r < R * (1.0 - 1e-12)):
        bad = float(np.min(r))
        raise ValueError(f"radius {bad!r} falls inside the excluded ball of radius {R!r}")
    return r if np.ndim(s) else float(r)


def beta_inverse(n: int, R: float, r) -> np.ndarray:
    """s = (n-2) r^(n-2), inverse of :func:`beta_map`."""
    _check_dim(n)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < R * (1.0 - 1e-12)):
        bad = float(np.min(r_arr))
        raise ValueError(f"radius {bad!r} falls inside the excluded ball of radius {R!r}")
    s = (n - 2) * np.power(r_arr, n - 2)
    return s if np.ndim(r) else float(s)


def excluded_arc(n: int, R: float) -> float:
    """(n-2) R^(n-2), the arc parameter of the ball's rim; inf past float range."""
    try:
        return (n - 2) * R ** (n - 2)
    except OverflowError:
        return math.inf


def _check_dim(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {n!r}")


def _beta_betaprime(n: int, s: np.ndarray) -> np.ndarray:
    """beta(s) beta'(s) = beta^(4-n) / (n-2)^2; equals s for n = 3."""
    beta = np.power(np.asarray(s, dtype=float) / (n - 2), 1.0 / (n - 2))
    return np.power(beta, 4 - n) / (n - 2) ** 2


def fit_window(N: int) -> tuple[int, int]:
    """Index range [j0, j1) of the decay fit on an N-point grid, at least FIT_POINTS long."""
    j1 = min(N, int(round(N * (1.0 - FIT_EXCLUDE))))
    j0 = max(0, int(round(N * (1.0 - FIT_EXCLUDE - FIT_WINDOW))))
    if j1 - j0 < FIT_POINTS:
        raise ValueError(f"fit window too small on this grid: {N} points leave {j1 - j0} "
                         f"in the decay fit's window, which needs {FIT_POINTS}")
    return j0, j1
