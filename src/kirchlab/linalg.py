"""Dense real-matrix helpers.

LU inversion with an explicit pivot-based singularity test, group inverses of
connected-graph Laplacians, and the general symmetric two-by-two block
{1}-inverse.  Factorizations are delegated to LAPACK via scipy; this module
owns the contracts, not the arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

# Pivot below PIVOT_RTOL * (max absolute row sum) counts as singular.
PIVOT_RTOL = 1e-12


class SingularMatrixError(ArithmeticError):
    """A pivot fell below the scale-relative singularity threshold."""


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and convert to a finite float64 2-D array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("matrix has non-finite entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def invert(m) -> np.ndarray:
    """Inverse via LU with partial pivoting.

    Raises SingularMatrixError when any pivot magnitude is at or below
    PIVOT_RTOL times the largest absolute row sum of the input.
    """
    a = as_matrix(m, square=True)
    if a.shape[0] == 0:
        raise ValueError("cannot invert an empty matrix")
    with warnings.catch_warnings():
        # near-singular inputs make LAPACK warn; the pivot check below decides
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    threshold = PIVOT_RTOL * np.abs(a).sum(axis=1).max()
    smallest = np.abs(np.diag(lu)).min()
    if smallest <= threshold:
        raise SingularMatrixError(
            f"matrix is singular to working precision "
            f"(pivot {smallest:.3e} <= threshold {threshold:.3e})"
        )
    return scipy.linalg.lu_solve((lu, piv), np.eye(a.shape[0]), check_finite=False)


def group_inverse_laplacian(lap) -> np.ndarray:
    """Group inverse of a connected graph's Laplacian.

    Uses the rank-one shift identity  L^# = (L + J/n)^{-1} - J/n  where J is
    the all-ones matrix: one LU solve, no eigensolver.  The result X satisfies
    L X L = L, X L X = X, L X = X L, and X 1 = 0.
    """
    lap_m = as_matrix(lap, square=True)
    n = lap_m.shape[0]
    if n == 0:
        raise ValueError("empty Laplacian")
    shift = np.full((n, n), 1.0 / n)
    try:
        inv = invert(lap_m + shift)
    except SingularMatrixError:
        raise SingularMatrixError(
            "Laplacian rank defect > 1: the underlying graph is disconnected"
        ) from None
    return inv - shift


@dataclass(frozen=True)
class BlockOneInverse:
    """Symmetric {1}-inverse of [[A, B], [B^T, D]] in block form."""

    top_left: np.ndarray
    top_right: np.ndarray
    bottom_right: np.ndarray

    def assemble(self) -> np.ndarray:
        return np.block(
            [[self.top_left, self.top_right], [self.top_right.T, self.bottom_right]]
        )


def block_one_inverse(
    a,
    b,
    d,
    group_inverse: Callable[[np.ndarray], np.ndarray] = group_inverse_laplacian,
) -> BlockOneInverse:
    """Structured {1}-inverse of the symmetric block matrix [[A, B], [B^T, D]].

    With D nonsingular and H = A - B D^{-1} B^T the result is::

        [[ H^#,                 -H^# B D^{-1}                    ],
         [ -D^{-1} B^T H^#,      D^{-1} + D^{-1} B^T H^# B D^{-1}]]

    H inherits zero row sums whenever the full matrix has them, so the
    default group-inverse routine applies; callers may supply their own
    (e.g. to exploit H being a scaled Laplacian).
    """
    a_m = as_matrix(a, square=True)
    d_m = as_matrix(d, square=True)
    b_m = as_matrix(b)
    if b_m.shape != (a_m.shape[0], d_m.shape[0]):
        raise ValueError(
            f"block shapes do not conform: a {a_m.shape}, b {b_m.shape}, d {d_m.shape}"
        )
    if not np.allclose(a_m, a_m.T, atol=1e-12):
        raise ValueError("block A must be symmetric")
    if not np.allclose(d_m, d_m.T, atol=1e-12):
        raise ValueError("block D must be symmetric")

    d_inv = invert(d_m)
    h = a_m - b_m @ d_inv @ b_m.T
    h_sharp = as_matrix(group_inverse(h), square=True)
    top_right = -h_sharp @ b_m @ d_inv
    bottom_right = d_inv + d_inv @ b_m.T @ h_sharp @ b_m @ d_inv
    return BlockOneInverse(
        top_left=h_sharp, top_right=top_right, bottom_right=bottom_right
    )


def quadratic_form(x, m, y) -> float:
    """Scalar x^T M y."""
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    return float(xv @ as_matrix(m) @ yv)


def trace(m) -> float:
    return float(np.trace(as_matrix(m, square=True)))


def all_ones_sum(m) -> float:
    """1^T M 1: the sum of all entries."""
    return float(as_matrix(m).sum())
