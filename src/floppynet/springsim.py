"""Finite-stiffness spring relaxation and derived elastic measurements.

Networks relax under overdamped dynamics with per-coordinate uniform noise;
the stretching energy of the final state gives the shear modulus under the
top-row shear protocol, and per-edge extensions under radial stretching of a
circular boundary.  One kernel holds the spring force arithmetic: ``forces``
wraps it, and ``relax_all`` calls it at every step on the networks' edge
arrays, which are built once when each network is constructed.

A relax step costs a few numpy calls, and ``relax_all`` pays them once for
a whole batch: K networks that share their node count and fixed mask step in
lockstep, as one ``(K, n, 2)`` array whose network ``k`` owns the flat
coordinates ``2 * (k * n + node) + axis``.  ``relax`` is a batch of one, and
``shear_moduli`` shears a batch and relaxes it in one call.  Every member
ends bit for bit where it would alone:

- the kernel gathers and scatters on flat coordinates, so two ``bincount``
  calls sum every (node, axis) bin over its own network's edges, in edge
  order, and the elementwise arithmetic does not depend on the neighbours;
- the drift and the noise are added in place under the free-node mask, so
  fixed nodes are never written, and a member with no edges gets no drift;
- every member draws the same noise, since they share ``config.seed`` and the
  free-node count: one ``(n, 2)`` noise row per step is broadcast over the
  batch.  The noise is drawn for a block of steps at a time from that
  stream; ``Generator.uniform`` maps the stream to the same values however
  the draws are split, so every trajectory matches a per-step draw;
- energy, extensions, ``max_free_force`` and the noise-floor flag are taken
  per member, on its own slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryRowsError, IntegrationDiverged, ParameterError
from .networks import ROW_SPACING, Network, lattice_dims

#: Energy at or below this many noise-variance units per edge is considered
#: indistinguishable from the noise floor.
NOISE_FLOOR_FACTOR = 100.0

#: Steps of noise drawn per ``rng.uniform`` call in ``relax``.
_NOISE_BLOCK = 256


@dataclass
class SimConfig:
    stiffness: float = 1.0          # spring constant k
    dt: float = 0.05                # time step (drag coefficient is 1)
    steps: int = 20000
    noise_amplitude: float = 1e-4   # uniform displacement noise, per coordinate
    seed: int = 0
    strain: float = 0.08            # shear strain gamma

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ParameterError(f"dt must be positive and finite, not {self.dt}")
        if not 0 < self.stiffness < math.inf:
            raise ParameterError(f"stiffness must be positive and finite, "
                                 f"not {self.stiffness}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, not {self.steps}")
        if not 0 <= self.noise_amplitude < math.inf:
            raise ParameterError(f"noise_amplitude must be non-negative and "
                                 f"finite, not {self.noise_amplitude}")
        if not math.isfinite(self.strain):
            raise ParameterError(f"strain must be finite, not {self.strain}")


@dataclass
class SimResult:
    positions: np.ndarray
    energy: float
    per_edge_extension: np.ndarray
    scaled_extension: np.ndarray
    shear_modulus: float | None = None
    noise_floor_flagged: bool = False
    energy_trace: np.ndarray | None = None
    max_free_force: float = 0.0     # largest free-node force norm at the end


def _spring_energy(x, a, b, rest, stiffness) -> float:
    d = x[a] - x[b]
    lengths = np.sqrt((d * d).sum(axis=1))
    return float(0.5 * stiffness * ((lengths - rest) ** 2).sum())


def _flat_ends(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Flat coordinate indices ``2 * node + axis`` of each edge's two ends."""
    axes = np.arange(2)
    return (2 * a[:, None] + axes).ravel(), (2 * b[:, None] + axes).ravel()


def _spring_forces(x, ia, ib, rest, stiffness) -> np.ndarray:
    """The force kernel: per-node negative gradient of the stretching energy.

    ``ia`` and ``ib`` come from ``_flat_ends``; each (node, axis) bin of the
    two scatters adds its edges' terms in edge order.
    """
    xf = x.ravel()
    d = xf[ia] - xf[ib]
    dd = d * d
    lengths = np.sqrt(dd[0::2] + dd[1::2])
    pair = (-stiffness * (lengths - rest) / lengths).repeat(2) * d
    out = np.bincount(ia, weights=pair, minlength=xf.size)
    out -= np.bincount(ib, weights=pair, minlength=xf.size)
    return out.reshape(x.shape)


def stretching_energy(positions: np.ndarray, network: Network,
                      config: SimConfig) -> float:
    return _spring_energy(positions, *network.edge_arrays(), config.stiffness)


def forces(positions: np.ndarray, network: Network, config: SimConfig) -> np.ndarray:
    """Negative gradient of the stretching energy, per node."""
    a, b, rest = network.edge_arrays()
    return _spring_forces(positions, *_flat_ends(a, b), rest, config.stiffness)


def _scaled(extension: np.ndarray, diameter: float) -> np.ndarray:
    """Extensions divided by ``diameter``, or a copy when it is 0."""
    return extension / diameter if diameter > 0 else extension.copy()


def _diverged(x, free, step, config) -> IntegrationDiverged:
    """Name the first network of the batch ``x`` with a non-finite position."""
    k = next(k for k, xk in enumerate(x) if not np.isfinite(xk).all())
    bad = int((~np.isfinite(x[k][free])).sum())
    member = f"network {k} of a batch of {len(x)}: " if len(x) > 1 else ""
    return IntegrationDiverged(
        f"{member}positions diverged at step {step} of {config.steps}"
        f" (dt={config.dt}): {bad} of {2 * int(free.sum())} free coordinates"
        " are non-finite")


def relax(network: Network, config: SimConfig,
          record_energy: bool = False) -> SimResult:
    """Run the overdamped integration of one network: a batch of one."""
    return relax_all([network], config, record_energy=record_energy)[0]


def relax_all(networks: list[Network], config: SimConfig,
              record_energy: bool = False) -> list[SimResult]:
    """Run the overdamped integration of every network in lockstep.

    The networks must share their node count and fixed mask (a
    ``ValueError`` otherwise); fixed nodes are held exactly.  Every step
    moves the free nodes by ``dt`` times the force kernel, then adds the
    noise; both adds are in place under the free-node mask.  The noise comes
    from one ``rng.uniform`` call per block of steps, which yields the same
    values as one call per step.  Each network's result equals a run of that
    network alone, bit for bit.  The reported energy is evaluated on the
    final positions as-is, with no extra noise applied in the measurement,
    and ``max_free_force`` is the largest free-node force norm there (0.0
    when no node is free).  Each network's extensions are also reported
    scaled by its diameter.
    """
    if not networks:
        return []
    fixed = networks[0].fixed
    for k, net in enumerate(networks):
        if not np.array_equal(net.fixed, fixed):
            raise ValueError(f"network {k} of the batch differs from network 0"
                             " in its node count or fixed mask")
    x = np.stack([net.positions for net in networks])
    free = ~fixed
    free_xy = np.repeat(free[:, None], 2, axis=1)
    n_free = int(free.sum())
    arrays = [net.edge_arrays() for net in networks]
    # network k owns nodes k * n to (k + 1) * n - 1 of the stacked batch
    offset = [k * len(fixed) for k in range(len(networks))]
    ia, ib = _flat_ends(np.concatenate([a + o for (a, _, _), o in zip(arrays, offset)]),
                        np.concatenate([b + o for (_, b, _), o in zip(arrays, offset)]))
    rest = np.concatenate([r for _, _, r in arrays])
    # a network without edges is never written by the drift, as when alone
    moved_xy = free_xy & np.array([len(a) > 0 for a, _, _ in arrays])[:, None, None]
    stiffness = config.stiffness
    amp = config.noise_amplitude
    noisy = amp > 0 and n_free > 0
    if noisy:
        noise = np.zeros((min(_NOISE_BLOCK, config.steps), len(fixed), 2))
    rng = np.random.default_rng(config.seed)
    trace = np.empty((len(networks), config.steps)) if record_energy else None

    # overflow during a blow-up is expected; divergence is caught explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            if len(rest):
                drift = _spring_forces(x, ia, ib, rest, stiffness)
                drift *= config.dt
                np.add(x, drift, out=x, where=moved_xy)
            if noisy:
                row = step % _NOISE_BLOCK
                if row == 0:
                    block = min(_NOISE_BLOCK, config.steps - step)
                    noise[:block, free] = rng.uniform(-amp, amp, (block, n_free, 2))
                np.add(x, noise[row], out=x, where=free_xy)
            if record_energy:
                for k, (a, b, r) in enumerate(arrays):
                    trace[k, step] = _spring_energy(x[k], a, b, r, stiffness)
            if step % 500 == 499 and not np.isfinite(x).all():
                raise _diverged(x, free, step + 1, config)
    if not np.isfinite(x).all():
        raise _diverged(x, free, config.steps, config)

    final = _spring_forces(x, ia, ib, rest, stiffness)
    results = []
    for k, (net, (a, b, r)) in enumerate(zip(networks, arrays)):
        extension = np.linalg.norm(x[k][a] - x[k][b], axis=1) - r
        energy = float(0.5 * stiffness * (extension ** 2).sum())
        floor = NOISE_FLOOR_FACTOR * len(a) * stiffness * amp ** 2
        max_free_force = (float(np.linalg.norm(final[k][free], axis=1).max())
                          if n_free else 0.0)
        results.append(SimResult(
            x[k], energy, extension, _scaled(extension, net.diameter()),
            noise_floor_flagged=bool(energy <= floor),
            energy_trace=None if trace is None else trace[k],
            max_free_force=max_free_force))
    return results


def _row_nodes(network: Network, row_y: float) -> np.ndarray:
    return np.flatnonzero(np.abs(network.positions[:, 1] - row_y) < 0.25 * ROW_SPACING)


def shear_modulus(network: Network, config: SimConfig) -> SimResult:
    """Shear the top lattice row sideways, relax, and report G: a batch of one."""
    return shear_moduli([network], config)[0]


def shear_moduli(networks: list[Network], config: SimConfig) -> list[SimResult]:
    """Shear every network, relax them in lockstep, and report each G = (2/A) E/g^2.

    Top-row nodes are displaced rightwards by ``strain`` times the lattice
    height and held there together with the bottom row; A is the undeformed
    bounding area of the lattice.  The sheared networks must share their node
    count and fixed mask (see ``relax_all``).  A strain of 0 is a
    ``ParameterError``, since G divides by it.
    """
    if config.strain == 0:
        raise ParameterError("strain must be non-zero to measure a shear "
                             f"modulus, not {config.strain}")
    sheared, areas = [], []
    for network in networks:
        nx, ny = lattice_dims(network)
        if nx < 2 or ny < 2:
            raise BoundaryRowsError("network has no identifiable rows")
        y0 = float(network.positions[:, 1].min())
        y1 = float(network.positions[:, 1].max())
        bottom = _row_nodes(network, y0)
        top = _row_nodes(network, y1)
        if len(bottom) == 0 or len(top) == 0 or y1 - y0 < 0.5 * ROW_SPACING:
            raise BoundaryRowsError("network has no identifiable top/bottom rows")

        height = (ny - 1) * ROW_SPACING
        positions = network.positions.copy()
        positions[top, 0] += config.strain * height
        fixed = network.fixed.copy()
        fixed[top] = True
        fixed[bottom] = True
        sheared.append(Network(positions, network.edges, fixed, network.metadata))
        areas.append((nx - 1) * height)

    results = relax_all(sheared, config)
    for result, area in zip(results, areas):
        result.shear_modulus = float(2.0 / area * result.energy / config.strain ** 2)
    return results


def radial_stretch(network: Network, config: SimConfig,
                   stretch: float = 0.10) -> SimResult:
    """Displace the fixed boundary radially outward and relax the interior.

    Extensions are also reported scaled by the pre-stretch boundary diameter.
    """
    boundary = np.flatnonzero(network.fixed)
    if len(boundary) == 0:
        raise BoundaryRowsError("network has no fixed boundary nodes")
    centre = network.positions[boundary].mean(axis=0)
    radii = np.linalg.norm(network.positions[boundary] - centre, axis=1)
    diameter = 2.0 * float(radii.max())

    positions = network.positions.copy()
    positions[boundary] = centre + (1.0 + stretch) * (network.positions[boundary] - centre)
    result = relax(network.with_positions(positions), config)
    result.scaled_extension = _scaled(result.per_edge_extension, diameter)
    return result
