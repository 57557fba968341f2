"""Floppy-mode bases and sparsity metrics.

Two decompositions of the rigidity null space: an iterative projection
scheme seeded with the identity that eliminates one constraint row at a time
while keeping the working rows sparse (``eliminate``, whose rows
``snd_basis`` finalises into modes), and a plain SVD baseline
(``svd_basis``).  Elimination retires each pivot row in place and
projects only on a constraint's nonzero columns, so a constraint costs O(n)
per working row it scores or updates rather than O(n^2) for the whole
working matrix.  Mode size, participation rate, and per-node involvement
quantify how local a basis is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown, ParameterError
from . import rigidity

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
    """One floppy mode: a unit null vector and a tag.

    Its support (the coordinates of its nonzero entries), size and node set
    are read from the vector, so they cannot disagree with it.
    """

    vector: np.ndarray
    tag: str = ""
    support: tuple[int, ...] = field(init=False)
    size_s: int = field(init=False)
    node_support: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.support = tuple(self.vector.nonzero()[0].tolist())
        self.size_s = len(self.support)
        self.node_support = tuple(sorted({i // 2 for i in self.support}))

    def max_residual(self, R: np.ndarray) -> float:
        return float(np.abs(R @ self.vector).max()) if R.shape[0] else 0.0


@dataclass
class ModeBasis:
    """Ordered floppy-mode basis (ascending mode size)."""

    modes: list[Mode]
    method: str
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def participation(self) -> int:
        """Sum of mode sizes; lower means a sparser, more modular basis."""
        return sum(m.size_s for m in self.modes)

    def vectors(self) -> np.ndarray:
        """Stacked mode vectors, one per row (0 x 0 for an empty basis)."""
        if not self.modes:
            return np.zeros((0, 0))
        return np.array([m.vector for m in self.modes])


def _finalize_vector(v: np.ndarray) -> np.ndarray:
    """Normalize, hard-zero entries below ``ZERO_TOL``, and canonicalize the sign.

    The sign makes the first entry of (nearly) largest magnitude positive.
    """
    v = np.asarray(v, float).copy()
    # the reduction np.linalg.norm runs on a vector, without its dispatch
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        return v
    v /= norm
    # a unit vector keeps an entry of at least 1/sqrt(n), far above ZERO_TOL
    v[np.abs(v) < ZERO_TOL] = 0.0
    v /= math.sqrt(v.dot(v))
    mag = np.abs(v)
    lead = (mag >= mag.max() * (1.0 - _LEAD_REL)).argmax()    # the first such entry
    if v[lead] < 0:
        v = -v
    return v


def make_mode(vector: np.ndarray, tag: str = "") -> Mode:
    return Mode(_finalize_vector(vector), tag)


def _mode_sort_key(mode: Mode):
    min_node = mode.node_support[0] if mode.node_support else -1
    return (mode.size_s, min_node, mode.support, mode.vector.tobytes())


def sort_modes(modes: list[Mode]) -> list[Mode]:
    return sorted(modes, key=_mode_sort_key)


def eliminate(R: np.ndarray, shuffle_seed: int | None = None) -> np.ndarray:
    """The working rows left live once every constraint row is absorbed.

    The working matrix starts as the identity; each constraint row is absorbed
    by picking the sparsest adequate pivot row, updating the rows it overlaps
    with, and retiring the pivot: it is zeroed in place, so it projects to 0
    on every later constraint.  The rows still live after all constraints
    span the null space; they are returned in their original order, unit
    norm but not yet finalised (see ``snd_basis``), so their count is the
    null-space dimension SND sees.  Every constraint's nonzero columns (at
    most four) and their values come from one ``np.nonzero`` pass over the
    matrix, so absorbing a constraint costs O(n) per row it scores or
    updates, never O(n^2).  ``shuffle_seed`` permutes the constraint rows
    first.
    """
    A = R if shuffle_seed is None else rigidity.shuffle_rows(R, shuffle_seed)
    m, n = A.shape
    rows, columns = np.nonzero(A)
    values = A[rows, columns]
    offsets = np.searchsorted(rows, np.arange(m + 1)).tolist()
    H = np.eye(n)
    live = np.ones(n, dtype=bool)
    n_live = n
    for i in range(m):
        if n_live == 0:
            break
        # retired rows are zero, so they project to 0 and are never picked
        lo, hi = offsets[i], offsets[i + 1]
        d = H[:, columns[lo:hi]] @ values[lo:hi]
        absd = np.abs(d)
        dmax = absd.max()
        if not math.isfinite(dmax):
            raise NumericalBreakdown(
                f"elimination failed at constraint {i} of {m}: "
                f"{n_live} live rows left, projection not finite")
        if dmax <= DROP_TOL:
            continue    # constraint already satisfied by every row: redundant
        hit = (absd > DROP_TOL).nonzero()[0]      # rows the constraint touches
        cand = hit[absd[hit] > _PIVOT_REL * dmax]
        # every entry of H is 0 or at least _WORK_TOL in magnitude (identity
        # start, scrubbed updates, zeroed pivots), so this counts the support
        nnz = (H[cand] != 0.0).sum(axis=1)
        # support ascending, then |projection| descending, then row index
        p = int(cand[np.lexsort((cand, -absd[cand], nnz))[0]])
        dp = d[p]
        upd = hit[hit != p]
        if upd.size:
            block = H[upd] - (d[upd] / dp)[:, None] * H[p]
            # the reduction np.linalg.norm(block, axis=1) runs; a non-finite
            # entry makes its row's norm inf or nan
            norms = np.sqrt((block * block).sum(axis=1))
            if not (norms.min() > 0.0 and math.isfinite(norms.max())):
                raise NumericalBreakdown(
                    f"elimination failed at constraint {i} of {m}: "
                    f"{n_live} live rows left, pivot magnitude {abs(dp):.3e}")
            block /= norms[:, None]
            block[np.abs(block) < _WORK_TOL] = 0.0
            H[upd] = block
        H[p] = 0.0
        live[p] = False
        n_live -= 1
    return H[live]


def snd_basis(R: np.ndarray, shuffle_seed: int | None = None) -> ModeBasis:
    """Sparse null-space basis: the rows ``eliminate`` leaves, finalised.

    Each row becomes a unit mode with its small entries zeroed and its sign
    canonical (``make_mode``); the modes are sorted by ``sort_modes``.
    """
    modes = sort_modes([make_mode(row) for row in eliminate(R, shuffle_seed)])
    return ModeBasis(modes, "SND", shuffle_seed)


def svd_basis(R: np.ndarray) -> ModeBasis:
    """Null-space basis from the right singular vectors of small singular value."""
    m, n = R.shape
    if m == 0:
        rows = np.eye(n)
    else:
        _, s, vt = np.linalg.svd(R)
        rows = vt[rigidity.rank_from_singular_values(s):]
    modes = sort_modes([make_mode(row) for row in rows])
    return ModeBasis(modes, "SVD", None)


def involvement_Q(basis: ModeBasis, n_nodes: int) -> dict[int, int]:
    """Per node, the number of modes whose support touches it."""
    q = {i: 0 for i in range(n_nodes)}
    for mode in basis.modes:
        for node in mode.node_support:
            q[node] += 1
    return q


def ensemble(R: np.ndarray, m: int = 100, base_seed: int = 0) -> list[ModeBasis]:
    """``m`` SND runs in run order, run k with its rows shuffled by seed ``base_seed + k``."""
    if m < 1:
        raise ParameterError("ensemble size must be >= 1")
    bases = []
    for idx in range(m):
        try:
            bases.append(snd_basis(R, shuffle_seed=int(base_seed + idx)))
        except NumericalBreakdown as exc:
            raise NumericalBreakdown(f"run {idx}: {exc}") from exc
    return bases


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
