"""Stiffness-maximizing rigidification and the sequential tuning experiment.

The MS rule freezes the largest floppy mode: decompose, take the mode with
the most nonzero entries, find the node it displaces most, and tie that node
to one of its nearest unused lattice neighbours.  ``tune`` applies the rule
(or a random baseline) link by link, then measures the shear modulus after
every addition in one lockstep relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nullspace, rigidity, springsim
from .errors import AlreadyRigidError, NoCandidateLinkError
from .networks import Network, lattice_edges
from .springsim import SimConfig

#: Candidate links for non-lattice networks pair nodes closer than this
#: multiple of the mean edge length.
NEIGHBOUR_FACTOR = 1.2

# Grown networks ``tune`` relaxes per lockstep batch: its memory stays at
# one batch however long the run, and the curve is the same for any value,
# since members of a batch never interact.
_TUNE_CHUNK = 32


@dataclass
class TuningRun:
    protocol: str
    link_sequence: list[tuple[int, int]]
    g_curve: list[tuple[int, float]]     # (edge count, shear modulus)
    seed: int


def candidate_links(network: Network) -> list[tuple[int, int]]:
    """Unused links available for rigidification.

    Lattice networks draw from the unused bonds of the full underlying
    lattice; other networks from node pairs within ``NEIGHBOUR_FACTOR`` times
    the mean edge length.
    """
    existing = network.edge_set()
    if network.metadata.get("generator") == "triangular_lattice":
        pool = lattice_edges(int(network.metadata["nx"]), int(network.metadata["ny"]))
    else:
        cutoff = NEIGHBOUR_FACTOR * float(network.edge_lengths().mean())
        pool = []
        for i in range(network.n_nodes):
            for j in range(i + 1, network.n_nodes):
                if np.linalg.norm(network.positions[i] - network.positions[j]) <= cutoff:
                    pool.append((i, j))
    return [e for e in pool if e not in existing]


def ms_select_link(network: Network, seed: int = 0,
                   candidates: list[tuple[int, int]] | None = None) -> tuple[int, int]:
    """One application of the stiffness-maximizing selection rule."""
    rng = np.random.default_rng(seed)
    basis = nullspace.snd_basis(rigidity.build(network),
                                shuffle_seed=int(rng.integers(2 ** 32)))
    if not basis.modes:
        raise AlreadyRigidError("network has no floppy modes")
    if candidates is None:
        candidates = candidate_links(network)
    if not candidates:
        raise NoCandidateLinkError("no unused candidate links")
    by_node: dict[int, list[tuple[int, int]]] = {}
    for e in candidates:
        by_node.setdefault(e[0], []).append(e)
        by_node.setdefault(e[1], []).append(e)

    disp = {id(m): np.linalg.norm(m.vector.reshape(-1, 2), axis=1) for m in basis.modes}
    largest = max(basis.modes,
                  key=lambda m: (m.size_s, float(disp[id(m)].max()), m.support))
    node_disp = disp[id(largest)]

    for node in np.argsort(-node_disp, kind="stable"):
        node = int(node)
        if network.fixed[node]:
            continue        # a fixed node never moves; never link fixed pairs
        links = by_node.get(node)
        if not links:
            continue
        lengths = np.array([
            np.linalg.norm(network.positions[e[0]] - network.positions[e[1]])
            for e in links])
        nearest = [e for e, l in zip(links, lengths) if l <= lengths.min() + 1e-9]
        return nearest[int(rng.integers(len(nearest)))]
    raise NoCandidateLinkError("every displaced node has exhausted its links")


def single_link_experiment(network: Network, candidates: list[tuple[int, int]],
                           config: SimConfig) -> list[tuple[tuple[int, int], float]]:
    """Shear-modulus gain from adding each candidate link independently.

    The network and every trial relax together in one lockstep batch.
    """
    trials = [network.with_edges(list(network.edge_set()) + [link])
              for link in candidates]
    base, *results = springsim.shear_moduli([network] + trials, config)
    return [(tuple(link), float(res.shear_modulus - base.shear_modulus))
            for link, res in zip(candidates, results)]


def tune(network: Network, protocol: str, seed: int = 0,
         stop_at: int | None = None, config: SimConfig | None = None) -> TuningRun:
    """Add links one at a time, then measure G after every addition.

    ``protocol`` is ``"MS"`` or ``"random"``.  The run stops after ``stop_at``
    additions or when every candidate link has been used.  No selection reads
    G (MS reads only the network, random only the run's generator), so links
    are chosen ahead of the measurement: the start network and the grown
    networks are relaxed in lockstep, a fixed-size chunk of them at a time.
    A reduced-step relaxation keeps sequential runs affordable; pass an
    explicit ``config`` for full-length measurements.
    """
    if protocol not in ("MS", "random"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if config is None:
        config = SimConfig(steps=5000)
    rng = np.random.default_rng(seed)
    net = network
    remaining = candidate_links(net)
    sequence: list[tuple[int, int]] = []
    chunk = [net]
    curve: list[tuple[int, float]] = []

    def measure():
        results = springsim.shear_moduli(chunk, config)
        curve.extend((n.n_edges, float(r.shear_modulus)) for n, r in zip(chunk, results))
        chunk.clear()

    while remaining and (stop_at is None or len(sequence) < stop_at):
        if protocol == "MS":
            try:
                link = ms_select_link(net, seed=int(rng.integers(2 ** 32)),
                                      candidates=remaining)
            except AlreadyRigidError:
                link = remaining[int(rng.integers(len(remaining)))]
        else:
            link = remaining[int(rng.integers(len(remaining)))]
        remaining.remove(link)
        net = net.with_edges(list(net.edge_set()) + [link])
        sequence.append(link)
        chunk.append(net)
        if len(chunk) == _TUNE_CHUNK:
            measure()
    measure()
    return TuningRun(protocol, sequence, curve, seed)
