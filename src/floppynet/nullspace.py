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


@dataclass(frozen=True, slots=True)
class Mode:
    """One floppy mode, a frozen value: a read-only unit null vector and a tag.
    Its support (the coordinates of its nonzero entries), size and node set
    are read from the vector, which is copied first if it is writable."""

    vector: np.ndarray
    tag: str = ""
    support: tuple[int, ...] = field(init=False)
    size_s: int = field(init=False)
    node_support: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        # the fields are frozen, so they are set through object.__setattr__
        v = self.vector
        if v.flags.writeable:
            v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, "vector", v)
        support = tuple(v.nonzero()[0].tolist())
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "size_s", len(support))
        object.__setattr__(self, "node_support", tuple(sorted({i // 2 for i in support})))

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


def finalise_rows(V: np.ndarray) -> np.ndarray:
    """Each row of ``V`` made a mode vector, as a new read-only array.

    A row is normalised, its entries below ``ZERO_TOL`` are hard-zeroed and
    it is normalised again; then its sign makes the first entry of (nearly)
    largest magnitude positive.  An all-zero row passes through unchanged.
    """
    V = np.array(V, dtype=float, ndmin=2)
    # each row as a 1 x n and an n x 1 view: their product is one BLAS dot
    # per row, the call a lone v.dot(v) makes, so a norm has the lone row's bits
    rows, cols = V[:, None, :], V[:, :, None]
    norms = np.sqrt(rows @ cols)
    if np.count_nonzero(norms) < len(V):
        live = norms.ravel() > 0.0
        V[live] = finalise_rows(V[live])
    elif V.size:
        rows /= norms
        # a unit vector keeps an entry of at least 1/sqrt(n), far above ZERO_TOL
        V[np.abs(V) < ZERO_TOL] = 0.0
        rows /= np.sqrt(rows @ cols)
        mag = np.abs(V)
        # the first entry within _LEAD_REL of the row's largest magnitude; it
        # is nonzero, and multiplying by its sign (1.0 or -1.0) is exact
        lead = (mag >= mag.max(axis=1, keepdims=True) * (1.0 - _LEAD_REL)).argmax(axis=1)
        V *= np.copysign(1.0, V[np.arange(len(V)), lead])[:, None]
    V.setflags(write=False)
    return V


def make_mode(vector: np.ndarray, tag: str = "") -> Mode:
    return Mode(finalise_rows(vector)[0], tag)


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
    canonical (``finalise_rows``); the modes are sorted by ``sort_modes``.
    """
    modes = sort_modes([Mode(v) for v in finalise_rows(eliminate(R, shuffle_seed))])
    return ModeBasis(modes, "SND", shuffle_seed)


def svd_basis(R: np.ndarray) -> ModeBasis:
    """Null-space basis from the right singular vectors of small singular value."""
    m, n = R.shape
    if m == 0:
        rows = np.eye(n)
    else:
        _, s, vt = np.linalg.svd(R)
        rows = vt[rigidity.rank_from_singular_values(s):]
    modes = sort_modes([Mode(v) for v in finalise_rows(rows)])
    return ModeBasis(modes, "SVD", None)


def node_incidence(basis: ModeBasis, n_nodes: int) -> np.ndarray:
    """``(modes, nodes)`` booleans: whether each mode moves each node."""
    return basis.vectors().reshape(len(basis), n_nodes, 2).any(axis=2)


def involvement_Q(basis: ModeBasis, n_nodes: int) -> dict[int, int]:
    """Per node, the number of modes whose support touches it."""
    return dict(enumerate(node_incidence(basis, n_nodes).sum(axis=0).tolist()))


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
