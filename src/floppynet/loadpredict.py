"""Bond-level load prediction from infinitesimal rigidity alone.

A node's globality is the ensemble-averaged size of the smallest mode it
participates in; nodes in no mode at all are rigid.  Links along shortest
paths between boundary nodes that run through boundary, rigid, or
high-globality nodes are predicted to carry load; everything else should
rotate out of the way.  Predictions are scored against measured per-edge
extensions by a symmetric binary matching ratio.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import nullspace, rigidity
from .errors import EdgeMismatchError
from .networks import Network

log = logging.getLogger(__name__)

#: Default ensemble size for globality estimates.
DEFAULT_ENSEMBLE = 100

#: Default globality threshold separating local from global nodes.
DEFAULT_THRESHOLD = 12.0


@dataclass
class GlobalityMap:
    f: dict[int, float]
    m: int
    rigid_nodes: frozenset[int]


@dataclass
class PredictionReport:
    predicted_loaded: frozenset[tuple[int, int]]
    reference_loaded: frozenset[tuple[int, int]]
    n_b: int
    n_o: int
    n_t: int
    eta: float
    globality_threshold: float | None
    extension_threshold: float


def globality(network: Network, m: int = DEFAULT_ENSEMBLE,
              base_seed: int = 0) -> GlobalityMap:
    """Ensemble-averaged minimum mode size per node.

    For each decomposition the per-node minimum is taken over the modes that
    move the node; runs in which a node moves in no mode contribute zero.
    Nodes that never move in any run are flagged rigid with f = 0.
    """
    R = rigidity.build(network)
    total = np.zeros(network.n_nodes)
    seen = np.zeros(network.n_nodes, dtype=bool)
    for basis in nullspace.ensemble(R, m=m, base_seed=base_seed):
        sizes = np.array([m.size_s for m in basis.modes], dtype=float)
        best = np.where(nullspace.node_incidence(basis, network.n_nodes),
                        sizes[:, None], np.inf).min(axis=0, initial=np.inf)
        involved = np.isfinite(best)
        seen |= involved
        total[involved] += best[involved]
    f = {i: (float(total[i] / m) if seen[i] else 0.0)
         for i in range(network.n_nodes)}
    rigid = frozenset(int(i) for i in np.flatnonzero(~seen))
    return GlobalityMap(f, m, rigid)


def eligible_nodes(network: Network, gmap: GlobalityMap, t: float) -> set[int]:
    eligible = set(int(i) for i in np.flatnonzero(network.fixed))
    eligible |= set(gmap.rigid_nodes)
    eligible |= {i for i, fi in gmap.f.items() if fi > t}
    return eligible


def predict_loaded_edges(network: Network, gmap: GlobalityMap,
                         t: float = DEFAULT_THRESHOLD,
                         mark_all_ties: bool = False) -> frozenset[tuple[int, int]]:
    """Links predicted to stretch: shortest eligible paths between boundary nodes.

    Starting from each unvisited boundary node (ascending id), a breadth-first
    search over links whose endpoints are both eligible runs until it reaches
    another boundary node; the links of the shortest path are marked and both
    endpoints count as visited.  ``mark_all_ties`` marks every tied shortest
    path instead of the lexicographically first one.
    """
    eligible = eligible_nodes(network, gmap, t)
    adj: dict[int, list[int]] = {u: [] for u in eligible}
    for e in network.edges:
        if e.a in eligible and e.b in eligible:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
    for u in adj:
        adj[u].sort()

    boundary = [int(i) for i in np.flatnonzero(network.fixed)]
    visited: set[int] = set()
    marked: set[tuple[int, int]] = set()
    any_path = False
    for source in boundary:
        if source in visited:
            continue
        visited.add(source)
        dist = {source: 0}
        parents: dict[int, list[int]] = {source: []}
        frontier = [source]
        terminals: list[int] = []
        while frontier and not terminals:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parents[v] = [u]
                        nxt.append(v)
                    elif dist[v] == dist[u] + 1:
                        parents[v].append(u)
            hits = sorted(v for v in nxt if network.fixed[v])
            terminals = hits if mark_all_ties else hits[:1]
            frontier = nxt
        if not terminals:
            continue
        any_path = True
        stack = list(terminals)
        seen_back = set(stack)
        while stack:
            v = stack.pop()
            preds = parents[v] if mark_all_ties else parents[v][:1]
            for u in preds:
                marked.add((min(u, v), max(u, v)))
                if u not in seen_back:
                    seen_back.add(u)
                    stack.append(u)
        visited.update(terminals)
    if boundary and not any_path:
        log.warning("no eligible path between any pair of boundary nodes; "
                    "prediction is empty")
    return frozenset(marked)


def score(predicted: Iterable[tuple[int, int]],
          extensions: Mapping[tuple[int, int], float], e: float,
          t: float | None = None) -> PredictionReport:
    """Binary agreement between predicted and measured loaded links.

    ``extensions`` maps every edge to its (scaled) extension; edges whose
    absolute extension exceeds ``e`` form the reference loaded set.
    """
    predicted = frozenset(tuple(sorted(p)) for p in predicted)
    keys = frozenset(tuple(sorted(k)) for k in extensions)
    if not predicted <= keys:
        missing = sorted(predicted - keys)[:3]
        raise EdgeMismatchError(
            f"predicted edges absent from measurements, e.g. {missing}")
    reference = frozenset(k for k in keys
                          if abs(extensions[tuple(k)]) > e)
    n_t = len(keys)
    n_b = len(predicted & reference)
    n_o = len((keys - predicted) & (keys - reference))
    eta = (n_b + n_o) / n_t if n_t else 0.0
    return PredictionReport(predicted, reference, n_b, n_o, n_t, eta, t, e)


def threshold_sweep(predicted: Iterable[tuple[int, int]],
                    extensions: Mapping[tuple[int, int], float],
                    e_grid: Sequence[float],
                    t: float | None = None):
    """Matching ratio over a sorted grid of extension thresholds.

    Returns ``(curve, best_e, best_eta)`` where ``curve`` is a list of
    ``(e, eta)`` pairs.
    """
    e_grid = list(e_grid)
    if any(b < a for a, b in zip(e_grid, e_grid[1:])):
        raise ValueError("e_grid must be sorted ascending")
    curve = [(float(e), score(predicted, extensions, e, t).eta) for e in e_grid]
    best_e, best_eta = max(curve, key=lambda p: (p[1], -p[0]))
    return curve, best_e, best_eta
