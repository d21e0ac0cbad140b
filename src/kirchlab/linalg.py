"""Group inverse of a connected graph's Laplacian.

The implicit engine in :mod:`kirchlab.structured` needs one generalized
inverse, the factor Laplacian's group inverse L^#, and this module computes it
with a single numpy inversion of the grounded Laplacian L_0: L without its
last row and column.
"""

from __future__ import annotations

import numpy as np

# max|L_0^{-1}| at or above 1 / (PIVOT_RTOL * max absolute row sum of L_0)
# counts as singular
PIVOT_RTOL = 1e-12


class SingularMatrixError(ArithmeticError):
    """The grounded L_0 is singular to working precision: its inverse is too
    large for the scale-relative threshold, or LAPACK hit a zero pivot."""


def group_inverse_laplacian(lap) -> np.ndarray:
    """Group inverse of a connected graph's Laplacian.

    With Y = L_0^{-1} padded by a zero last row and column, and C = I - J/n
    for the all-ones J,  L^# = C Y C:  entry (i, j) is Y_ij - r_i - r_j + c
    with r = Y 1 / n and c = sum(r) / n.  L_0 is positive definite for a
    connected graph, and max|L_0^{-1}| <= 1 / lambda_min(L_0), so an inverse
    entry of 1 / (PIVOT_RTOL * max row sum) or more flags a singular L_0: a
    disconnected graph.  The result X satisfies L X L = L, X L X = X,
    L X = X L, and X 1 = 0.
    """
    lap_m = np.asarray(lap, dtype=np.float64)
    if lap_m.ndim != 2 or lap_m.shape[0] != lap_m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {lap_m.shape}")
    n = lap_m.shape[0]
    if n == 0:
        raise ValueError("empty Laplacian")
    if not np.isfinite(lap_m).all():
        raise ValueError("matrix has non-finite entries")
    grounded = lap_m[:-1, :-1]
    try:
        inv = np.linalg.inv(grounded)
        size = (np.abs(inv).max(initial=0.0) * PIVOT_RTOL
                * np.abs(grounded).sum(axis=1).max(initial=0.0))
    except np.linalg.LinAlgError:
        size = np.inf
    if not size < 1.0:  # a NaN inverse counts as singular too
        raise SingularMatrixError(
            "Laplacian rank defect > 1: the underlying graph is disconnected"
        )
    s = np.zeros(n)  # s = r - c/2 with r_n = 0, so entry (i, j) is Y_ij - s_i - s_j
    s[:-1] = inv.sum(axis=1) / n
    s -= s.sum() / (2 * n)
    out = np.empty((n, n))
    np.subtract(inv, s[:-1, None], out=out[:-1, :-1])
    out[-1, :-1] = 0.0 - s[-1]  # 0.0 - s, not -s: n = 1 gives 0.0, not -0.0
    out[:, -1] = 0.0 - s
    out -= s
    return out
