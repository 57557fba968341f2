"""Multi-scale decomposition: hinge detection plus per-component bases.

Articulation nodes of the bond graph are hinges around which one section can
rotate rigidly with respect to the rest.  Emitting those whole-section
rotations first and then decomposing each biconnected component with its
articulation nodes anchored yields a basis whose hierarchy mirrors the
graph structure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import networkx as nx
import numpy as np

from . import nullspace, rigidity
from .networks import Network, build_network
from .nullspace import Mode, ModeBasis, make_mode, sort_modes

log = logging.getLogger(__name__)

#: A candidate mode must violate no constraint by more than this.
RESIDUAL_TOL = 1e-8

# Linear-independence threshold when assembling candidate modes.
_INDEP_TOL = 1e-6


class Component(NamedTuple):
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass
class HingeDecomposition:
    components: list[Component]
    articulation_nodes: set[int]
    component_tree: dict[int, set[int]]   # component index -> touching components


def _bond_graph(network: Network) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(network.n_nodes))
    g.add_edges_from((e.a, e.b) for e in network.edges)
    return g


def find_hinges(network: Network) -> HingeDecomposition:
    """Biconnected components and articulation nodes of the bond graph.

    Components cover every edge exactly once; nodes lying in two or more
    components are the articulation (hinge) nodes.  Isolated nodes belong to
    no component.
    """
    g = _bond_graph(network)
    comps = []
    for edge_set in nx.biconnected_component_edges(g):
        edges = tuple(sorted(tuple(sorted(e)) for e in edge_set))
        nodes = tuple(sorted({v for e in edges for v in e}))
        comps.append(Component(nodes, edges))
    comps.sort(key=lambda c: (c.nodes[0], len(c.nodes), c.nodes))
    articulation = set(nx.articulation_points(g))
    tree: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if set(comps[i].nodes) & set(comps[j].nodes):
                tree[i].add(j)
                tree[j].add(i)
    return HingeDecomposition(comps, articulation, tree)


def _rotation_about(network: Network, center: int, section) -> np.ndarray:
    """Infinitesimal rotation of ``section`` about node ``center``."""
    v = np.zeros(network.n_coords)
    c = network.positions[center]
    for u in section:
        dx, dy = network.positions[u] - c
        v[2 * u], v[2 * u + 1] = -dy, dx
    return v


def _distal_section(adjacency: list[list[int]], hinge: int, fixed: list[bool]):
    """Pick the side of ``hinge`` that should rotate.

    The sides are the connected components of the bond graph (neighbour lists
    ``adjacency``) once the hinge is removed.  Prefer sides containing no
    fixed node; among those (or among all sides if none qualifies) take the
    smallest, breaking ties by lowest node id.
    """
    seen = [False] * len(adjacency)
    seen[hinge] = True
    best = best_unfixed = None
    for start in range(len(adjacency)):
        if seen[start]:
            continue
        seen[start] = True
        side, stack = [start], [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    side.append(w)
                    stack.append(w)
        # sides are found in order of their lowest node, so the first
        # smallest one wins ties
        if best is None or len(side) < len(best):
            best = side
        if not any(fixed[u] for u in side) and (
                best_unfixed is None or len(side) < len(best_unfixed)):
            best_unfixed = side
    pick = best_unfixed or best
    return sorted(pick) if pick else None


def _component_network(network: Network, comp: Component,
                       articulation: set[int]) -> tuple[Network, list[int]]:
    """Sub-network of one component with hinge and fixed nodes anchored."""
    nodes = list(comp.nodes)
    index = {u: k for k, u in enumerate(nodes)}
    positions = network.positions[nodes]
    fixed = np.array([network.fixed[u] or u in articulation for u in nodes])
    rest = {(e.a, e.b): e.rest_length for e in network.edges}
    edges = [(index[a], index[b], rest[(a, b)]) for a, b in comp.edges]
    return build_network(positions, edges, fixed), nodes


def _lift(vector: np.ndarray, nodes: list[int], n_coords: int) -> np.ndarray:
    v = np.zeros(n_coords)
    for k, u in enumerate(nodes):
        v[2 * u: 2 * u + 2] = vector[2 * k: 2 * k + 2]
    return v


def multiscale_basis(network: Network, zero_tol: float = nullspace.ZERO_TOL,
                     seed: int = 0) -> ModeBasis:
    """Whole-section rotational modes plus component-local modes.

    Candidate rotations that are pinned by other paths fail the null-space
    residual test and are dropped.  If the assembled set does not span the
    whole null space the deficit is filled from a plain sparse decomposition.
    """
    R = rigidity.build(network)
    total = rigidity.dof(R)
    g = _bond_graph(network)
    decomp = find_hinges(network)

    candidates: list[Mode] = []

    # free-floating isolated nodes move one coordinate at a time
    for u in sorted(nx.isolates(g)):
        if network.fixed[u]:
            continue
        for axis in (0, 1):
            v = np.zeros(network.n_coords)
            v[2 * u + axis] = 1.0
            candidates.append(make_mode(v, zero_tol, tag="component-local"))

    # one rotation candidate per hinge; fixed nodes act as hinges to ground
    hinge_nodes = sorted(decomp.articulation_nodes
                         | set(np.flatnonzero(network.fixed)))
    adjacency = [list(g[u]) for u in range(network.n_nodes)]
    fixed = network.fixed.tolist()
    for hinge in hinge_nodes:
        if g.degree(hinge) == 0:
            continue
        section = _distal_section(adjacency, hinge, fixed)
        if not section:
            continue
        v = _rotation_about(network, hinge, section)
        if np.linalg.norm(v) == 0.0:
            continue
        mode = make_mode(v, zero_tol, tag="rotational")
        if mode.max_residual(R) <= RESIDUAL_TOL:
            candidates.append(mode)

    # component-local modes with articulation and fixed nodes anchored
    for ci, comp in enumerate(decomp.components):
        sub, nodes = _component_network(network, comp, decomp.articulation_nodes)
        if sub.fixed.all():
            continue
        sub_basis = nullspace.snd_basis(rigidity.build(sub), zero_tol,
                                        shuffle_seed=seed + ci)
        for m in sub_basis.modes:
            lifted = make_mode(_lift(m.vector, nodes, network.n_coords),
                               zero_tol, tag="component-local")
            if lifted.max_residual(R) <= RESIDUAL_TOL:
                candidates.append(lifted)

    accepted: list[Mode] = []
    ortho: list[np.ndarray] = []

    def try_accept(mode: Mode) -> bool:
        if len(accepted) >= total:
            return False
        r = mode.vector.copy()
        for q in ortho:
            r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm <= _INDEP_TOL:
            return False
        accepted.append(mode)
        ortho.append(r / norm)
        return True

    for mode in candidates:
        try_accept(mode)

    if len(accepted) < total:
        log.info("multiscale-incomplete: %d of %d modes assembled; "
                 "filling from plain decomposition", len(accepted), total)
        for m in nullspace.snd_basis(R, zero_tol, shuffle_seed=seed).modes:
            fallback = Mode(m.vector, m.support, m.size_s, m.node_support,
                            tag="component-local")
            try_accept(fallback)
            if len(accepted) == total:
                break

    return ModeBasis(sort_modes(accepted), "multiscale", seed)
