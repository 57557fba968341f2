"""Constraint Jacobian assembly for embedded networks.

Each edge contributes one row (the gradient of the squared-length constraint)
and each fixed node two single-entry anchor rows, one per coordinate axis.
Rows are scaled to unit norm by default; the null space is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.io
import scipy.sparse

from .errors import DegenerateEdgeError
from .networks import Network

#: Default relative singular-value cutoff for rank decisions.
RANK_TOL = 1e-9


class RowMeta(NamedTuple):
    """Provenance of one matrix row.

    ``kind`` is ``"edge"`` (``i``, ``j`` are the endpoints) or ``"anchor"``
    (``i`` is the node, ``j`` the axis: 0 for x, 1 for y).
    """

    kind: str
    i: int
    j: int


@dataclass
class RigidityMatrix:
    entries: np.ndarray          # (m, 2N)
    row_meta: list[RowMeta]
    normalized: bool
    n_nodes: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def has_anchors(self) -> bool:
        return any(meta.kind == "anchor" for meta in self.row_meta)


def build(network: Network, normalize: bool = True) -> RigidityMatrix:
    """Assemble the constraint Jacobian of ``network``.

    Edge rows carry ``2(x_p - x_q)`` on the columns of endpoint ``p`` and the
    negative on ``q``; anchor rows carry a single unit entry.  With
    ``normalize`` every row is scaled to unit Euclidean norm.
    """
    n = network.n_coords
    rows = []
    meta = []
    for e in network.edges:
        d = network.positions[e.a] - network.positions[e.b]
        if np.linalg.norm(d) <= 1e-12:
            raise DegenerateEdgeError(f"edge ({e.a},{e.b}) has zero length")
        row = np.zeros(n)
        row[2 * e.a: 2 * e.a + 2] = 2.0 * d
        row[2 * e.b: 2 * e.b + 2] = -2.0 * d
        rows.append(row)
        meta.append(RowMeta("edge", e.a, e.b))
    for node in np.flatnonzero(network.fixed):
        for axis in (0, 1):
            row = np.zeros(n)
            row[2 * node + axis] = 1.0
            rows.append(row)
            meta.append(RowMeta("anchor", int(node), axis))
    entries = np.array(rows) if rows else np.zeros((0, n))
    if normalize and len(rows):
        entries /= np.linalg.norm(entries, axis=1)[:, None]
    return RigidityMatrix(entries, meta, normalize, network.n_nodes)


def shuffle_rows(R: RigidityMatrix, seed: int) -> RigidityMatrix:
    """Seeded uniform permutation of the rows; the null space is unchanged."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(R.shape[0])
    return RigidityMatrix(
        R.entries[perm].copy(),
        [R.row_meta[p] for p in perm],
        R.normalized,
        R.n_nodes,
    )


def numeric_rank(R: RigidityMatrix, tol: float = RANK_TOL) -> int:
    """Count of singular values above ``tol`` times the largest."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if R.shape[0] == 0:
        return 0
    return rank_from_singular_values(np.linalg.svd(R.entries, compute_uv=False), tol)


def rank_from_singular_values(s: np.ndarray, tol: float = RANK_TOL) -> int:
    """Count of the descending singular values ``s`` above ``tol`` times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > tol * s[0]).sum())


def dof(R: RigidityMatrix, tol: float = RANK_TOL) -> int:
    """Null-space dimension: total coordinates minus numeric rank."""
    return R.shape[1] - numeric_rank(R, tol)


def dump_matrix(R: RigidityMatrix, path) -> None:
    """Write the matrix in MatrixMarket coordinate format (debug aid)."""
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(R.entries))
