"""Multi-scale decomposition: hinge detection plus per-component bases.

Articulation nodes of the bond graph are hinges around which one section can
rotate rigidly with respect to the rest.  Emitting those whole-section
rotations first and then decomposing each biconnected component with its
articulation nodes anchored yields a basis whose hierarchy mirrors the
graph structure.

The bond graph is a plain list of neighbour lists.  The components and
hinges come from one iterative Hopcroft–Tarjan depth-first pass over it,
and the isolated-node loop and the side search read the same lists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import nullspace, rigidity
from .networks import Network
from .nullspace import Mode, ModeBasis, make_mode, sort_modes

log = logging.getLogger(__name__)

# Linear-independence threshold when assembling candidate modes.
_INDEP_TOL = 1e-6


class Component(NamedTuple):
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass
class HingeDecomposition:
    components: list[Component]
    articulation_nodes: set[int]


def _neighbours(network: Network) -> list[list[int]]:
    """Neighbour lists of the bond graph, in edge order."""
    adjacency: list[list[int]] = [[] for _ in range(network.n_nodes)]
    for a, b, _ in network.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def find_hinges(network: Network) -> HingeDecomposition:
    """Biconnected components and articulation nodes of the bond graph.

    Components cover every edge exactly once; nodes lying in two or more
    components are the articulation (hinge) nodes.  Isolated nodes belong to
    no component.  One depth-first pass (Hopcroft & Tarjan, CACM 16(6), 1973)
    finds both, with explicit node and edge stacks in place of recursion:
    when a child's subtree reaches back no higher than its parent
    (``low[child] >= disc[parent]``), the edges pushed since the tree edge
    into that child form one component, and the parent is a hinge unless it
    is a root with a single child.  Edges within a component and the
    components themselves are returned sorted.
    """
    adjacency = _neighbours(network)
    disc = [0] * len(adjacency)  # discovery order from 1; 0 is unvisited
    low = [0] * len(adjacency)
    comps = []
    articulation = set()
    clock = 0
    for root in range(len(adjacency)):
        if disc[root] or not adjacency[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        root_children = 0
        edges: list[tuple[int, int]] = []
        # frames: node, parent, unread neighbours, edge-stack height
        # before the tree edge into the node
        stack = [(root, -1, iter(adjacency[root]), 0)]
        while stack:
            u, parent, rest, cut = stack[-1]
            for w in rest:
                if w == parent:
                    continue
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, u, iter(adjacency[w]), len(edges)))
                    edges.append((u, w))
                    break
                if disc[w] < disc[u]:  # back edge to an ancestor
                    low[u] = min(low[u], disc[w])
                    edges.append((u, w))
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    if parent == root:
                        root_children += 1
                    else:
                        articulation.add(parent)
                    comp = sorted((a, b) if a < b else (b, a) for a, b in edges[cut:])
                    del edges[cut:]
                    nodes = tuple(sorted({v for e in comp for v in e}))
                    comps.append(Component(nodes, tuple(comp)))
        if root_children >= 2:
            articulation.add(root)
    comps.sort(key=lambda c: (c.nodes[0], len(c.nodes), c.nodes))
    return HingeDecomposition(comps, articulation)


def _rotation_about(network: Network, center: int, section) -> np.ndarray:
    """Infinitesimal rotation of ``section`` about node ``center``."""
    v = np.zeros(network.n_coords)
    c = network.positions[center]
    for u in section:
        dx, dy = network.positions[u] - c
        v[2 * u], v[2 * u + 1] = -dy, dx
    return v


def _distal_section(adjacency: list[list[int]], hinge: int, fixed: list[bool]):
    """The side of ``hinge`` that should rotate, or ``None``.

    The sides are the pieces of the bond graph (neighbour lists
    ``adjacency``) left once the hinge is removed that hold a neighbour of
    the hinge; pieces that never touch it are no side of it.  Every bar
    leaving a side ends at the hinge, so turning a side that holds no fixed
    node stretches no bar.  Take the smallest such side, breaking ties by
    lowest node id; ``None`` if there is none.
    """
    seen = [False] * len(adjacency)
    seen[hinge] = True
    best = None
    for start in adjacency[hinge]:
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
        if any(fixed[u] for u in side):
            continue
        side.sort()
        if best is None or (len(side), side[0]) < (len(best), best[0]):
            best = side
    return best


def multiscale_basis(network: Network, seed: int = 0) -> ModeBasis:
    """Whole-section rotational modes plus component-local modes.

    Both kinds are floppy by construction, so no candidate is tested against
    the rigidity matrix.  A rotation turns a side of a hinge that holds no
    fixed node, and every bar leaving that side ends at the hinge.  A
    component's modes come from every row its free nodes touch, with its
    hinges anchored.  Candidates are kept while they are linearly independent
    of those already kept.  If the assembled set does not span the whole null
    space the deficit is filled from a plain sparse decomposition.
    """
    R = rigidity.build(network)
    # an SVD count, not an up-front fallback SND: most arm calls never need that SND
    total = rigidity.dof(R)
    adjacency = _neighbours(network)
    decomp = find_hinges(network)

    accepted: list[Mode] = []
    ortho: list[np.ndarray] = []

    def try_accept(mode: Mode) -> None:
        if len(accepted) >= total:
            return
        r = mode.vector.copy()
        for q in ortho:
            r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm <= _INDEP_TOL:
            return
        accepted.append(mode)
        ortho.append(r / norm)

    # free-floating isolated nodes move one coordinate at a time
    for u in range(network.n_nodes):
        if adjacency[u] or network.fixed[u]:
            continue
        for axis in (0, 1):
            v = np.zeros(network.n_coords)
            v[2 * u + axis] = 1.0
            try_accept(make_mode(v, tag="component-local"))

    # one rotation per hinge; fixed nodes act as hinges to ground
    hinge_nodes = sorted(decomp.articulation_nodes
                         | set(np.flatnonzero(network.fixed)))
    fixed = network.fixed.tolist()
    for hinge in hinge_nodes:
        section = _distal_section(adjacency, hinge, fixed)
        if not section:
            continue
        try_accept(make_mode(_rotation_about(network, hinge, section),
                             tag="rotational"))

    # component-local modes with articulation and fixed nodes anchored
    anchored = network.fixed.copy()
    anchored[list(decomp.articulation_nodes)] = True
    for ci, comp in enumerate(decomp.components):
        nodes = np.array(comp.nodes)
        if anchored[nodes].all():
            continue
        pairs = np.searchsorted(nodes, comp.edges)
        R_comp = rigidity.assemble(network.positions[nodes], pairs, anchored[nodes])
        basis = nullspace.snd_basis(R_comp, shuffle_seed=seed + ci)
        if not basis.modes:
            continue
        lifted = np.zeros((len(basis), network.n_coords))
        lifted[:, (2 * nodes[:, None] + np.arange(2)).ravel()] = basis.vectors()
        for v in lifted:
            try_accept(make_mode(v, tag="component-local"))

    if len(accepted) < total:
        log.info("multiscale-incomplete: %d of %d modes assembled; "
                 "filling from plain decomposition", len(accepted), total)
        for m in nullspace.snd_basis(R, shuffle_seed=seed).modes:
            try_accept(replace(m, tag="component-local"))
        if len(accepted) < total:
            log.warning("multiscale-short: the basis holds %d modes, but the "
                        "SVD counts %d", len(accepted), total)

    return ModeBasis(sort_modes(accepted), "multiscale", seed)
