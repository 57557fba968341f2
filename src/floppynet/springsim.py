"""Finite-stiffness spring relaxation and derived elastic measurements.

Networks relax under overdamped dynamics with per-coordinate uniform noise;
the stretching energy of the final state gives the shear modulus under the
top-row shear protocol, and per-edge extensions under radial stretching of a
circular boundary.  One kernel holds the spring force arithmetic: ``forces``
wraps it, and ``relax`` calls it at every step on the network's edge arrays,
which are built once when the network is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryRowsError, IntegrationDiverged
from .networks import ROW_SPACING, Network

#: Energy at or below this many noise-variance units per edge is considered
#: indistinguishable from the noise floor.
NOISE_FLOOR_FACTOR = 100.0


@dataclass
class SimConfig:
    stiffness: float = 1.0          # spring constant k
    l0: float = 1.0                 # reference rest length in the energy prefactor
    dt: float = 0.05                # time step (drag coefficient is 1)
    steps: int = 20000
    noise_amplitude: float = 1e-4   # uniform displacement noise, per coordinate
    seed: int = 0
    strain: float = 0.08            # shear strain gamma

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.noise_amplitude < 0:
            raise ValueError("noise_amplitude must be >= 0")


@dataclass
class SimResult:
    positions: np.ndarray
    energy: float
    per_edge_extension: np.ndarray
    scaled_extension: np.ndarray
    shear_modulus: float | None = None
    noise_floor_flagged: bool = False
    energy_trace: np.ndarray | None = None


def _spring_energy(x, a, b, rest, k_over_l0) -> float:
    d = x[a] - x[b]
    lengths = np.sqrt((d * d).sum(axis=1))
    return float(0.5 * k_over_l0 * ((lengths - rest) ** 2).sum())


def _spring_forces(x, a, b, rest, k_over_l0) -> np.ndarray:
    """The force kernel: per-node negative gradient of the stretching energy."""
    n = len(x)
    d = x[a] - x[b]
    lengths = np.sqrt((d * d).sum(axis=1))
    pair = (-k_over_l0 * (lengths - rest) / lengths)[:, None] * d
    out = np.empty((n, 2))
    for axis in (0, 1):
        out[:, axis] = (np.bincount(a, weights=pair[:, axis], minlength=n)
                        - np.bincount(b, weights=pair[:, axis], minlength=n))
    return out


def stretching_energy(positions: np.ndarray, network: Network,
                      config: SimConfig) -> float:
    return _spring_energy(positions, *network.edge_arrays(), config.stiffness / config.l0)


def forces(positions: np.ndarray, network: Network, config: SimConfig) -> np.ndarray:
    """Negative gradient of the stretching energy, per node."""
    return _spring_forces(positions, *network.edge_arrays(), config.stiffness / config.l0)


def relax(network: Network, config: SimConfig, record_energy: bool = False,
          diameter: float | None = None) -> SimResult:
    """Run the overdamped integration; fixed nodes are held exactly.

    Every step moves the free nodes by ``dt`` times the force kernel, then
    adds the noise.  The reported energy is evaluated on the final positions
    as-is, with no extra noise applied in the measurement.
    """
    x = network.positions.copy()
    free = ~network.fixed
    n_free = int(free.sum())
    a, b, rest = network.edge_arrays()
    k_over_l0 = config.stiffness / config.l0
    rng = np.random.default_rng(config.seed)
    trace = np.empty(config.steps) if record_energy else None

    # overflow during a blow-up is expected; divergence is caught explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            if len(a):
                x[free] += config.dt * _spring_forces(x, a, b, rest, k_over_l0)[free]
            if config.noise_amplitude > 0 and n_free:
                x[free] += rng.uniform(-config.noise_amplitude,
                                       config.noise_amplitude, (n_free, 2))
            if record_energy:
                trace[step] = _spring_energy(x, a, b, rest, k_over_l0)
            if step % 500 == 499 and not np.isfinite(x).all():
                raise IntegrationDiverged(
                    f"positions diverged at dt={config.dt}")
    if not np.isfinite(x).all():
        raise IntegrationDiverged(f"positions diverged at dt={config.dt}")

    energy = _spring_energy(x, a, b, rest, k_over_l0)
    extension = np.linalg.norm(x[a] - x[b], axis=1) - rest
    if diameter is None:
        diameter = network.diameter()
    scaled = extension / diameter if diameter > 0 else extension.copy()
    floor = NOISE_FLOOR_FACTOR * len(a) * k_over_l0 * config.noise_amplitude ** 2
    return SimResult(x, energy, extension, scaled,
                     noise_floor_flagged=bool(energy <= floor),
                     energy_trace=trace)


def _lattice_dims(network: Network) -> tuple[int, int]:
    meta = network.metadata
    if "nx" in meta and "ny" in meta:
        return int(meta["nx"]), int(meta["ny"])
    ys = np.unique(np.round(network.positions[:, 1] / ROW_SPACING).astype(int))
    ny = len(ys)
    nx = int((network.positions[:, 1] < 0.5 * ROW_SPACING).sum())
    return nx, ny


def _row_nodes(network: Network, row_y: float) -> np.ndarray:
    return np.flatnonzero(np.abs(network.positions[:, 1] - row_y) < 0.25 * ROW_SPACING)


def shear_modulus(network: Network, config: SimConfig) -> SimResult:
    """Shear the top lattice row sideways, relax, and report G = (2/A) E/g^2.

    Top-row nodes are displaced rightwards by ``strain`` times the lattice
    height and held there together with the bottom row; A is the undeformed
    bounding area of the lattice.
    """
    nx, ny = _lattice_dims(network)
    if nx < 2 or ny < 2:
        raise BoundaryRowsError("network has no identifiable rows")
    y0 = float(network.positions[:, 1].min())
    y1 = float(network.positions[:, 1].max())
    bottom = _row_nodes(network, y0)
    top = _row_nodes(network, y1)
    if len(bottom) == 0 or len(top) == 0 or y1 - y0 < 0.5 * ROW_SPACING:
        raise BoundaryRowsError("network has no identifiable top/bottom rows")

    height = (ny - 1) * config.l0 * ROW_SPACING
    sheared = network.copy()
    sheared.positions[top, 0] += config.strain * height
    sheared.fixed[top] = True
    sheared.fixed[bottom] = True

    result = relax(sheared, config)
    area = (nx - 1) * config.l0 * height
    g = 2.0 / area * result.energy / config.strain ** 2
    result.shear_modulus = float(g)
    return result


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

    stretched = network.copy()
    stretched.positions[boundary] = (
        centre + (1.0 + stretch) * (network.positions[boundary] - centre))
    return relax(stretched, config, diameter=diameter)
