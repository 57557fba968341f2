"""Multi-scale decomposition: hinge detection plus per-component bases.

Articulation nodes of the bond graph are hinges around which one section can
rotate rigidly with respect to the rest.  Emitting those whole-section
rotations first and then decomposing each biconnected component with its
articulation nodes anchored yields a basis whose hierarchy mirrors the
graph structure.

The bond graph is a plain list of neighbour lists.  The components and
hinges come from one iterative Hopcroft–Tarjan depth-first pass over it,
and the side search reads the same lists.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nullspace, rigidity
from .networks import Network
from .nullspace import Mode, ModeBasis, sort_modes

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
    """The first linearly independent candidate modes, as many as the network
    has floppy modes.

    The count is the number of rows the plain sparse elimination of the whole
    network (``nullspace.eliminate``, shuffled by ``seed``) leaves.  One
    stream offers the candidates in order: whole-section rotations about
    hinges, then each component's modes with its hinges anchored, then that
    elimination's own modes, finalised and sorted.  A candidate is kept if
    modified Gram-Schmidt against the rows kept so far, in the order they
    were kept, leaves more than ``_INDEP_TOL`` of it.  The stream stops once
    the count is kept, so no later candidate is built, and none at all when
    the count is 0.  Rotations and component modes are floppy by
    construction, so no candidate is tested against the rigidity matrix: a
    rotation turns a side of a hinge that holds no fixed node, and every bar
    leaving that side ends at the hinge; a component's modes come from every
    row its free nodes touch.  An isolated free node lies in no constraint
    row, so its two unit coordinate modes come from the elimination's modes.
    """
    plain = nullspace.eliminate(rigidity.build(network), seed)
    accepted: list[Mode] = []

    def candidates():
        adjacency = _neighbours(network)
        decomp = find_hinges(network)
        # one rotation per hinge; fixed nodes act as hinges to ground
        hinge_nodes = sorted(decomp.articulation_nodes
                             | set(np.flatnonzero(network.fixed)))
        fixed = network.fixed.tolist()
        rotations = [_rotation_about(network, hinge, section) for hinge in hinge_nodes
                     if (section := _distal_section(adjacency, hinge, fixed))]
        for v in nullspace.finalise_rows(np.array(rotations).reshape(-1, network.n_coords)):
            yield Mode(v, tag="rotational")
        # component-local modes with articulation and fixed nodes anchored
        anchored = network.fixed.copy()
        anchored[list(decomp.articulation_nodes)] = True
        for ci, comp in enumerate(decomp.components):
            nodes = np.array(comp.nodes)
            if anchored[nodes].all():
                continue
            pairs = np.searchsorted(nodes, comp.edges)
            R_comp = rigidity.assemble(network.positions[nodes], pairs, anchored[nodes])
            coords = (2 * nodes[:, None] + np.arange(2)).ravel()
            for m in nullspace.snd_basis(R_comp, shuffle_seed=seed + ci).modes:
                # the lift only adds zeros, so the mode stays finalised
                v = np.zeros(network.n_coords)
                v[coords] = m.vector
                v.setflags(write=False)
                yield Mode(v, tag="component-local")
        log.info("multiscale-incomplete: %d of %d modes assembled; "
                 "filling from plain decomposition", len(accepted), len(plain))
        yield from sort_modes([Mode(v, tag="component-local")
                               for v in nullspace.finalise_rows(plain)])

    ortho = np.empty((len(plain), network.n_coords))  # the kept rows, orthonormal
    stream = candidates()
    while len(accepted) < len(plain) and (mode := next(stream, None)) is not None:
        r = mode.vector.copy()
        for q in ortho[:len(accepted)]:
            r -= (q @ r) * q
        norm = math.sqrt(r.dot(r))
        if norm > _INDEP_TOL:
            ortho[len(accepted)] = r / norm
            accepted.append(mode)
    return ModeBasis(sort_modes(accepted), "multiscale", seed)
