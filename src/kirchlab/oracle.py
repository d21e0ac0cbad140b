"""Ground-truth resistance and Kirchhoff values for arbitrary connected graphs.

Works straight from the full Laplacian of whatever graph it is handed, with
no knowledge of how that graph was built.  The pseudoinverse is numpy's
``pinv(hermitian=True)``, whose SVD numpy takes from the symmetric
eigendecomposition ``eigh``.  That shares no factorization with the LU of
the grounded Laplacian behind the group inverse in :mod:`kirchlab.linalg`,
so agreement between the two is meaningful.
"""

from __future__ import annotations

import numpy as np

from .graph import DisconnectedGraphError, Graph, GraphError, is_connected, laplacian


def _pseudoinverse(g: Graph) -> np.ndarray:
    if g.n == 0:
        raise GraphError("empty graph")
    if not is_connected(g):
        raise DisconnectedGraphError("resistance distance requires a connected graph")
    # symmetric, so the Moore-Penrose pseudoinverse is the group inverse
    return np.linalg.pinv(laplacian(g), hermitian=True)


def oracle_resistance_matrix(g: Graph) -> np.ndarray:
    """All-pairs resistance distances: r_uv = X_uu + X_vv - 2 X_uv."""
    x = _pseudoinverse(g)
    d = np.diag(x)
    return d[:, None] + d[None, :] - 2.0 * x


def oracle_kirchhoff(g: Graph) -> float:
    """Kirchhoff index as n * tr(L^+)."""
    return g.n * float(np.trace(_pseudoinverse(g)))
