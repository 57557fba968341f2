"""Finite-stiffness spring relaxation and derived elastic measurements.

Networks relax under overdamped dynamics with per-coordinate uniform noise;
the stretching energy of the final state gives the shear modulus under the
top-row shear protocol, and per-edge extensions under radial stretching of a
circular boundary.  One kernel holds the spring force arithmetic: ``forces``
wraps it, and ``relax`` calls it at every step on the network's edge arrays,
which are built once when the network is constructed.

A relax step costs a few numpy calls.  The kernel gathers and scatters on
flat ``2 * node + axis`` coordinates, so two ``bincount`` calls sum every
(node, axis) bin over its edges in edge order.  The drift and the noise are
added in place under the free-node mask, so fixed nodes are never written.
The noise is drawn for a block of steps at a time from the same stream;
``Generator.uniform`` maps the stream to the same values however the draws
are split, so every trajectory matches a per-step draw bit for bit.
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

#: Steps of noise drawn per ``rng.uniform`` call in ``relax``.
_NOISE_BLOCK = 256


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
    max_free_force: float = 0.0     # largest free-node force norm at the end


def _spring_energy(x, a, b, rest, k_over_l0) -> float:
    d = x[a] - x[b]
    lengths = np.sqrt((d * d).sum(axis=1))
    return float(0.5 * k_over_l0 * ((lengths - rest) ** 2).sum())


def _flat_ends(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Flat coordinate indices ``2 * node + axis`` of each edge's two ends."""
    axes = np.arange(2)
    return (2 * a[:, None] + axes).ravel(), (2 * b[:, None] + axes).ravel()


def _spring_forces(x, ia, ib, rest, k_over_l0) -> np.ndarray:
    """The force kernel: per-node negative gradient of the stretching energy.

    ``ia`` and ``ib`` come from ``_flat_ends``; each (node, axis) bin of the
    two scatters adds its edges' terms in edge order.
    """
    xf = x.ravel()
    d = xf[ia] - xf[ib]
    dd = d * d
    lengths = np.sqrt(dd[0::2] + dd[1::2])
    pair = (-k_over_l0 * (lengths - rest) / lengths).repeat(2) * d
    out = np.bincount(ia, weights=pair, minlength=xf.size)
    out -= np.bincount(ib, weights=pair, minlength=xf.size)
    return out.reshape(-1, 2)


def stretching_energy(positions: np.ndarray, network: Network,
                      config: SimConfig) -> float:
    return _spring_energy(positions, *network.edge_arrays(), config.stiffness / config.l0)


def forces(positions: np.ndarray, network: Network, config: SimConfig) -> np.ndarray:
    """Negative gradient of the stretching energy, per node."""
    a, b, rest = network.edge_arrays()
    return _spring_forces(positions, *_flat_ends(a, b), rest,
                          config.stiffness / config.l0)


def _diverged(x, free, step, config) -> IntegrationDiverged:
    bad = int((~np.isfinite(x[free])).sum())
    return IntegrationDiverged(
        f"positions diverged at step {step} of {config.steps} (dt={config.dt}):"
        f" {bad} of {2 * int(free.sum())} free coordinates are non-finite")


def relax(network: Network, config: SimConfig, record_energy: bool = False,
          diameter: float | None = None) -> SimResult:
    """Run the overdamped integration; fixed nodes are held exactly.

    Every step moves the free nodes by ``dt`` times the force kernel, then
    adds the noise; both adds are in place under the free-node mask.  The
    noise comes from one ``rng.uniform`` call per block of steps, which
    yields the same values as one call per step.  The reported energy is
    evaluated on the final positions as-is, with no extra noise applied in
    the measurement, and ``max_free_force`` is the largest free-node force
    norm there (0.0 when no node is free).
    """
    x = network.positions.copy()
    free = ~network.fixed
    free_xy = np.repeat(free[:, None], 2, axis=1)
    n_free = int(free.sum())
    a, b, rest = network.edge_arrays()
    ia, ib = _flat_ends(a, b)
    k_over_l0 = config.stiffness / config.l0
    amp = config.noise_amplitude
    noisy = amp > 0 and n_free > 0
    if noisy:
        noise = np.zeros((min(_NOISE_BLOCK, config.steps), len(x), 2))
    rng = np.random.default_rng(config.seed)
    trace = np.empty(config.steps) if record_energy else None

    # overflow during a blow-up is expected; divergence is caught explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            if len(a):
                drift = _spring_forces(x, ia, ib, rest, k_over_l0)
                drift *= config.dt
                np.add(x, drift, out=x, where=free_xy)
            if noisy:
                row = step % _NOISE_BLOCK
                if row == 0:
                    block = min(_NOISE_BLOCK, config.steps - step)
                    noise[:block, free] = rng.uniform(-amp, amp, (block, n_free, 2))
                np.add(x, noise[row], out=x, where=free_xy)
            if record_energy:
                trace[step] = _spring_energy(x, a, b, rest, k_over_l0)
            if step % 500 == 499 and not np.isfinite(x).all():
                raise _diverged(x, free, step + 1, config)
    if not np.isfinite(x).all():
        raise _diverged(x, free, config.steps, config)

    energy = _spring_energy(x, a, b, rest, k_over_l0)
    extension = np.linalg.norm(x[a] - x[b], axis=1) - rest
    if diameter is None:
        diameter = network.diameter()
    scaled = extension / diameter if diameter > 0 else extension.copy()
    floor = NOISE_FLOOR_FACTOR * len(a) * k_over_l0 * amp ** 2
    final = _spring_forces(x, ia, ib, rest, k_over_l0)
    max_free_force = float(np.linalg.norm(final[free], axis=1).max()) if n_free else 0.0
    return SimResult(x, energy, extension, scaled,
                     noise_floor_flagged=bool(energy <= floor),
                     energy_trace=trace, max_free_force=max_free_force)


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
