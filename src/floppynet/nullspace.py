"""Floppy-mode bases and sparsity metrics.

Two decompositions of the rigidity null space: an iterative projection
scheme seeded with the identity that eliminates one constraint row at a time
while keeping the working rows sparse (``snd_basis``), and a plain SVD
baseline (``svd_basis``).  Elimination retires each pivot row in place and
projects only on a constraint's nonzero columns, so a constraint costs O(n)
per working row it scores or updates rather than O(n^2) for the whole
working matrix.  Mode size, participation rate, and per-node involvement
quantify how local a basis is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericalBreakdown
from . import rigidity
from .rigidity import RigidityMatrix

#: Entries below this magnitude (on unit-norm vectors) are hard-zeroed and
#: do not count towards a mode's support.
ZERO_TOL = 1e-8

#: Projections below this magnitude are treated as exact zeros during
#: elimination; a constraint whose projections all fall below it is redundant.
DROP_TOL = 1e-10

# Scrub threshold for elimination round-off inside the working matrix.
_WORK_TOL = 1e-12

# Candidate pivots must be within this factor of the largest projection
# (threshold pivoting; guards against dividing by a near-zero pivot).
_PIVOT_REL = 1e-2

# Entries within this relative distance of the largest magnitude tie for the
# sign-setting lead entry; the first of them wins, so round-off cannot flip it.
_LEAD_REL = 1e-12


@dataclass
class Mode:
    """One floppy mode: a unit null vector with its support bookkeeping."""

    vector: np.ndarray
    support: tuple[int, ...]
    size_s: int
    node_support: tuple[int, ...]
    tag: str = ""

    def max_residual(self, R: RigidityMatrix) -> float:
        return float(np.abs(R.entries @ self.vector).max()) if R.shape[0] else 0.0


@dataclass
class ModeBasis:
    """Ordered floppy-mode basis (ascending mode size)."""

    modes: list[Mode]
    method: str
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    @property
    def participation(self) -> int:
        return sum(m.size_s for m in self.modes)

    def vectors(self) -> np.ndarray:
        """Stacked mode vectors, one per row (0 x 0 for an empty basis)."""
        if not self.modes:
            return np.zeros((0, 0))
        return np.array([m.vector for m in self.modes])


@dataclass
class DecompositionEnsemble:
    bases: list[ModeBasis]
    m: int

    def participation_rates(self) -> np.ndarray:
        return np.array([b.participation for b in self.bases])


def _finalize_vector(v: np.ndarray, zero_tol: float) -> np.ndarray:
    """Normalize, hard-zero sub-threshold entries, and canonicalize the sign.

    The sign makes the first entry of (nearly) largest magnitude positive.
    """
    v = np.asarray(v, float).copy()
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return v
    v /= norm
    v[np.abs(v) < zero_tol] = 0.0
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return v
    v /= norm
    mag = np.abs(v)
    lead = np.flatnonzero(mag >= mag.max() * (1.0 - _LEAD_REL))[0]
    if v[lead] < 0:
        v = -v
    return v


def make_mode(vector: np.ndarray, zero_tol: float = ZERO_TOL, tag: str = "") -> Mode:
    v = _finalize_vector(vector, zero_tol)
    support = tuple(int(i) for i in np.flatnonzero(v))
    nodes = tuple(sorted({i // 2 for i in support}))
    return Mode(v, support, len(support), nodes, tag)


def _mode_sort_key(mode: Mode):
    min_node = mode.node_support[0] if mode.node_support else -1
    return (mode.size_s, min_node, mode.support, mode.vector.tobytes())


def sort_modes(modes: list[Mode]) -> list[Mode]:
    return sorted(modes, key=_mode_sort_key)


def snd_basis(R: RigidityMatrix, zero_tol: float = ZERO_TOL,
              shuffle_seed: int | None = None) -> ModeBasis:
    """Sparse null-space basis by iterative constraint elimination.

    The working matrix starts as the identity; each constraint row is absorbed
    by picking the sparsest adequate pivot row, updating the rows it overlaps
    with, and retiring the pivot: it is zeroed in place, so it projects to 0
    on every later constraint.  The rows still live after all constraints
    span the null space; they are read out once, in their original order.
    The projection reads only the constraint's nonzero columns (at most
    four), so absorbing a constraint costs O(n) per row it scores or
    updates, never O(n^2).  ``shuffle_seed`` permutes the constraint rows
    first.
    """
    if zero_tol <= 0:
        raise ValueError("zero_tol must be positive")
    if shuffle_seed is not None:
        R = rigidity.shuffle_rows(R, shuffle_seed)
    A = R.entries
    m, n = A.shape
    H = np.eye(n)
    live = np.ones(n, dtype=bool)
    n_live = n
    for i in range(m):
        if n_live == 0:
            break
        # retired rows are zero, so they project to 0 and are never picked
        cols = np.flatnonzero(A[i])
        d = H[:, cols] @ A[i, cols]
        absd = np.abs(d)
        dmax = absd.max()
        if not np.isfinite(dmax):
            raise NumericalBreakdown(
                f"elimination failed at constraint {i} of {m}: "
                f"{n_live} live rows left, projection not finite")
        if dmax <= DROP_TOL:
            continue    # constraint already satisfied by every row: redundant
        cand = np.flatnonzero(absd > max(DROP_TOL, _PIVOT_REL * dmax))
        nnz = (np.abs(H[cand]) > _WORK_TOL).sum(axis=1)
        touched = int((absd > DROP_TOL).sum()) - 1
        score = nnz * max(touched, 1)
        # score ascending, then |projection| descending, then row index
        p = int(cand[np.lexsort((cand, -absd[cand], score))[0]])
        pivot = H[p].copy()
        dp = d[p]
        upd = np.flatnonzero(absd > DROP_TOL)
        upd = upd[upd != p]
        if upd.size:
            block = H[upd] - np.outer(d[upd] / dp, pivot)
            norms = np.linalg.norm(block, axis=1)
            if not np.all(np.isfinite(block)) or np.any(norms == 0.0):
                raise NumericalBreakdown(
                    f"elimination failed at constraint {i} of {m}: "
                    f"{n_live} live rows left, pivot magnitude {abs(dp):.3e}")
            block /= norms[:, None]
            block[np.abs(block) < _WORK_TOL] = 0.0
            H[upd] = block
        H[p] = 0.0
        live[p] = False
        n_live -= 1
    modes = sort_modes([make_mode(row, zero_tol) for row in H[live]])
    return ModeBasis(modes, "SND", shuffle_seed)


def svd_basis(R: RigidityMatrix, tol: float = rigidity.RANK_TOL,
              zero_tol: float = ZERO_TOL) -> ModeBasis:
    """Null-space basis from the right singular vectors of small singular value."""
    m, n = R.shape
    if m == 0:
        rows = np.eye(n)
    else:
        _, s, vt = np.linalg.svd(R.entries)
        rows = vt[rigidity.rank_from_singular_values(s, tol):]
    modes = sort_modes([make_mode(row, zero_tol) for row in rows])
    return ModeBasis(modes, "SVD", None)


def participation_rate(basis: ModeBasis) -> int:
    """Sum of mode sizes; lower means a sparser, more modular basis."""
    if not basis.modes:
        raise ValueError("basis is empty")
    return basis.participation


def involvement_Q(basis: ModeBasis, n_nodes: int | None = None) -> dict[int, int]:
    """Per node, the number of modes whose support touches it."""
    if n_nodes is None:
        n_nodes = basis.modes[0].vector.shape[0] // 2 if basis.modes else 0
    q = {i: 0 for i in range(n_nodes)}
    for mode in basis.modes:
        for node in mode.node_support:
            q[node] += 1
    return q


def ensemble(R: RigidityMatrix, m: int = 100, seeds: Sequence[int] | None = None,
             base_seed: int = 0,
             zero_tol: float = ZERO_TOL) -> DecompositionEnsemble:
    """``m`` independent decompositions with shuffled constraint rows, in run order."""
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    if seeds is None:
        seeds = [base_seed + i for i in range(m)]
    if len(seeds) != m:
        raise ValueError("need exactly one seed per run")

    bases = []
    for idx, seed in enumerate(seeds):
        try:
            bases.append(snd_basis(R, zero_tol=zero_tol, shuffle_seed=int(seed)))
        except NumericalBreakdown as exc:
            raise NumericalBreakdown(f"run {idx}: {exc}") from exc
    return DecompositionEnsemble(bases, m)


def span_residual(basis_a: ModeBasis, basis_b: ModeBasis) -> float:
    """Worst reconstruction error projecting either basis onto the other's span."""
    va, vb = basis_a.vectors(), basis_b.vectors()
    if va.shape[0] == 0 and vb.shape[0] == 0:
        return 0.0
    if va.shape[0] == 0 or vb.shape[0] == 0:
        return 1.0

    def one_way(v, w):
        q, _ = np.linalg.qr(w.T)        # orthonormal basis for span(w)
        resid = v.T - q @ (q.T @ v.T)
        return float(np.linalg.norm(resid, axis=0).max())

    return max(one_way(va, vb), one_way(vb, va))


def basis_to_dict(basis: ModeBasis) -> dict:
    """JSON-ready dump: per mode its size, tag, and sparse entries."""
    modes = []
    for m in basis.modes:
        entry = {
            "size": m.size_s,
            "entries": [[int(i), float(m.vector[i])] for i in m.support],
        }
        if m.tag:
            entry["tag"] = m.tag
        modes.append(entry)
    return {"method": basis.method, "seed": basis.seed, "modes": modes}
