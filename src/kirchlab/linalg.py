"""Group inverse of a connected graph's Laplacian.

The implicit engine in :mod:`kirchlab.structured` needs one generalized
inverse, the factor Laplacian's group inverse L^#, and this module computes it
with a single numpy inversion of the rank-one shifted L + J/n.
"""

from __future__ import annotations

import numpy as np

# max|(L + J/n)^{-1}| at or above 1 / (PIVOT_RTOL * max absolute row sum)
# counts as singular
PIVOT_RTOL = 1e-12


class SingularMatrixError(ArithmeticError):
    """L + J/n is singular to working precision: its inverse is too large
    for the scale-relative threshold, or LAPACK hit an exactly zero pivot."""


def group_inverse_laplacian(lap) -> np.ndarray:
    """Group inverse of a connected graph's Laplacian.

    Uses the rank-one shift identity  L^# = (L + J/n)^{-1} - J/n  where J is
    the all-ones matrix.  Since max|A^{-1}| <= 1 / lambda_min(A) for the
    symmetric A = L + J/n, an inverse entry of 1 / (PIVOT_RTOL * max row sum)
    or more flags a second zero eigenvalue: a disconnected graph.  The result
    X satisfies L X L = L, X L X = X, L X = X L, and X 1 = 0.
    """
    lap_m = np.asarray(lap, dtype=np.float64)
    if lap_m.ndim != 2 or lap_m.shape[0] != lap_m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {lap_m.shape}")
    n = lap_m.shape[0]
    if n == 0:
        raise ValueError("empty Laplacian")
    if not np.isfinite(lap_m).all():
        raise ValueError("matrix has non-finite entries")
    shifted = lap_m + 1.0 / n
    try:
        inv = np.linalg.inv(shifted)
        size = np.abs(inv).max() * PIVOT_RTOL * np.abs(shifted).sum(axis=1).max()
    except np.linalg.LinAlgError:
        size = np.inf
    if not size < 1.0:  # a NaN inverse counts as singular too
        raise SingularMatrixError(
            "Laplacian rank defect > 1: the underlying graph is disconnected"
        )
    return inv - 1.0 / n
