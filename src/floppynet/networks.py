"""Network construction: domain types, procedural generators, fixtures, JSON io.

A :class:`Network` is an embedded 2D graph with node coordinates, fixed-node
flags, and edges carrying rest lengths.  Generators produce the triangular
lattices and jammed bidisperse packings used throughout the experiments;
``fixture`` returns the small hand-built robot arm and molecule networks.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    GeneratorSpecError,
    PackingNotConverged,
    SchemaError,
    SelfLoopError,
)
from . import rigidity

#: Vertical spacing between triangular-lattice rows for unit bond length.
ROW_SPACING = math.sqrt(3.0) / 2.0

#: A rest length defaulted to at most this joins coincident nodes.
REST_LENGTH_ATOL = 1e-9

#: Small and large disk radii for bidisperse packings (ratio 1:1.4).
DISK_RADII = (0.5, 0.7)

#: Relative gap below which a disk pair counts as a contact.
CONTACT_TOL = 0.02


class Edge(NamedTuple):
    a: int
    b: int
    rest_length: float


class Network:
    """Embedded 2D graph with per-node fixed flags and per-edge rest lengths.

    Node ids are the row indices of ``positions`` (contiguous from 0).
    ``edges`` holds ``(a, b)`` pairs or ``(a, b, rest_length)`` triples and
    ``fixed`` defaults to no fixed node.  The constructor is the one place
    edges are checked and defaulted: each edge is checked for a self-loop and
    a missing node, a missing or ``None`` rest length becomes the endpoints'
    distance, and the edge is stored with ``a < b``; unordered duplicates,
    non-finite positions and rest lengths that are not positive and finite
    are rejected.  A network never changes: ``positions``, ``fixed`` and the
    edge arrays are read-only copies it owns, the edges a tuple, and
    :meth:`with_positions` and :meth:`with_edges` derive new networks.
    ``metadata`` is a plain dict each network owns.
    """

    def __init__(self, positions, edges, fixed=None, metadata=None):
        self.positions = _read_only(positions, float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise SchemaError("positions must be an (N, 2) array")
        _check_finite(self.positions)
        self.fixed = _read_only(np.zeros(self.n_nodes) if fixed is None else fixed, bool)
        if self.fixed.shape != (self.n_nodes,):
            raise SchemaError("fixed must be a length-N boolean array")
        self.metadata: dict[str, str] = dict(metadata or {})
        seen: set[tuple[int, int]] = set()
        canonical = []
        for a, b, rest in (e if len(e) == 3 else (*e, None) for e in edges):
            a, b = int(a), int(b)
            if a == b:
                raise SelfLoopError(f"edge ({a},{b}) is a self-loop")
            if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes):
                raise SchemaError(f"edge ({a},{b}) references a missing node")
            if rest is None:
                rest = float(np.linalg.norm(self.positions[a] - self.positions[b]))
                if rest <= REST_LENGTH_ATOL:
                    raise SchemaError(f"edge ({a},{b}) joins coincident nodes")
            rest = float(rest)
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                raise DuplicateEdgeError(f"edge ({a},{b}) appears twice")
            seen.add((a, b))
            if not 0.0 < rest < math.inf:
                raise SchemaError(f"edge ({a},{b}) rest_length {rest} is not positive and finite")
            canonical.append(Edge(a, b, rest))
        self.edges: tuple[Edge, ...] = tuple(canonical)
        self._edge_arrays = (_read_only([e.a for e in canonical], int),
                             _read_only([e.b for e in canonical], int),
                             _read_only([e.rest_length for e in canonical], float))

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def n_coords(self) -> int:
        return 2 * self.n_nodes

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only endpoint index arrays and rest lengths, built at construction."""
        return self._edge_arrays

    def edge_lengths(self) -> np.ndarray:
        a, b, _ = self.edge_arrays()
        return np.linalg.norm(self.positions[a] - self.positions[b], axis=1)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(e.a, e.b) for e in self.edges}

    def with_positions(self, positions: np.ndarray) -> "Network":
        """This network at a read-only copy of same-shape ``positions``,
        sharing ``fixed`` and its edges unchecked; ``metadata`` is copied."""
        positions = _read_only(positions, float)
        if positions.shape != self.positions.shape:
            raise SchemaError(f"positions must have shape {self.positions.shape}")
        _check_finite(positions)
        out = copy.copy(self)
        out.positions = positions
        out.metadata = dict(self.metadata)
        return out

    def with_edges(self, edges: Iterable[tuple]) -> "Network":
        """This network holding a different edge list, in the given order.

        A pair given without a rest length keeps the one this network holds
        for it; a new pair defaults to geometry (see :class:`Network`).
        """
        held = {(e.a, e.b): e.rest_length for e in self.edges}
        edges = [e if len(e) == 3 else (*e, held.get((min(e), max(e)))) for e in edges]
        return Network(self.positions, edges, self.fixed, self.metadata)

    def diameter(self) -> float:
        """Largest pairwise node distance (0 for a single node)."""
        if self.n_nodes < 2:
            return 0.0
        d = self.positions[:, None, :] - self.positions[None, :, :]
        return float(np.sqrt((d ** 2).sum(axis=2)).max())


def _read_only(values, dtype) -> np.ndarray:
    """A read-only array copy of ``values``."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_finite(positions: np.ndarray) -> None:
    if not np.isfinite(positions).all():
        bad = np.argmin(np.isfinite(positions).all(axis=1))
        raise SchemaError(f"node {bad} has a non-finite position")


# -- JSON file format ------------------------------------------------------

def to_dict(network: Network) -> dict:
    """Canonical JSON-ready representation (nodes by id, edges sorted)."""
    nodes = [
        {"id": i, "x": float(network.positions[i, 0]),
         "y": float(network.positions[i, 1]), "fixed": bool(network.fixed[i])}
        for i in range(network.n_nodes)
    ]
    edges = [
        {"a": e.a, "b": e.b, "rest_length": e.rest_length}
        for e in sorted(network.edges)
    ]
    return {"nodes": nodes, "edges": edges, "metadata": dict(network.metadata)}


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool); else a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} {value!r} is not a JSON integer")
    return value


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number (not a bool); else a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} {value!r} is not a JSON number")
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(f"{what} is too large for a float") from exc


def from_dict(data: dict) -> Network:
    """Read :func:`to_dict`'s layout, taking every value only as its JSON type:
    integer ids and edge ends, numeric coordinates and rest lengths (a
    missing or null rest length defaults), and a boolean ``fixed``."""
    if not isinstance(data, dict):
        raise SchemaError("top-level value must be an object")
    for key in ("nodes", "edges"):
        if key not in data:
            raise SchemaError(f"missing field '{key}'")
    raw_nodes = data["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise SchemaError("field 'nodes' must be a non-empty list")
    n = len(raw_nodes)
    positions = np.zeros((n, 2))
    fixed = np.zeros(n, dtype=bool)
    seen_ids = set()
    edges = []
    try:
        for entry in raw_nodes:
            for key in ("id", "x", "y"):
                if key not in entry:
                    raise SchemaError(f"node entry missing field '{key}'")
            i = json_int(entry["id"], "node id")
            if not 0 <= i < n:
                raise SchemaError(f"node id {i!r} not contiguous from 0")
            if i in seen_ids:
                raise SchemaError(f"duplicate node id {i}")
            seen_ids.add(i)
            positions[i] = (json_number(entry["x"], f"node {i} x"),
                            json_number(entry["y"], f"node {i} y"))
            is_fixed = entry.get("fixed", False)
            if not isinstance(is_fixed, bool):
                raise SchemaError(f"node {i} fixed {is_fixed!r} is not a JSON bool")
            fixed[i] = is_fixed
        for entry in data["edges"]:
            for key in ("a", "b"):
                if key not in entry:
                    raise SchemaError(f"edge entry missing field '{key}'")
            a, b = json_int(entry["a"], "edge end"), json_int(entry["b"], "edge end")
            rest = entry.get("rest_length")
            edges.append((a, b, None if rest is None
                          else json_number(rest, f"edge ({a},{b}) rest_length")))
    except (AttributeError, TypeError) as exc:
        # an entry that is not an object, or edges that are not a list
        raise SchemaError(f"malformed node or edge entry ({exc})") from exc
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("field 'metadata' must be an object")
    metadata = {str(k): str(v) for k, v in metadata.items()}
    return Network(positions, edges, fixed, metadata)


def read_json(path, what: str):
    """The JSON value in ``path``; a SchemaError naming the file if it does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise SchemaError(f"{what} {path} is not valid JSON: {exc}") from exc


def write_json(data, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save(network: Network, path) -> None:
    write_json(to_dict(network), path)


def load(path) -> Network:
    return from_dict(read_json(path, "network"))


# -- generators ------------------------------------------------------------

@dataclass
class GeneratorSpec:
    """Parameters for procedural network generation.

    ``dilution_fraction`` is the fraction of candidate edges kept; ``None``
    selects a kind-specific default (1.0 for lattices, 0.65 for packings,
    i.e. roughly 35% of interior contacts removed).
    """

    kind: str
    dimensions: tuple[int, int] = (4, 4)
    dilution_fraction: float | None = None
    seed: int = 0
    boundary: str = "open"
    n_disks: int = 48
    target_dof: int | None = 18

    def __post_init__(self):
        if self.dilution_fraction is not None and not (0.0 <= self.dilution_fraction <= 1.0):
            raise GeneratorSpecError("dilution_fraction must lie in [0, 1]")
        if self.boundary not in ("open", "fixed_circle", "fixed_rows",
                                 "fixed_bottom_row"):
            raise GeneratorSpecError(f"unknown boundary {self.boundary!r}")


def generate(spec: GeneratorSpec) -> Network:
    """Dispatch on ``spec.kind``."""
    if spec.kind == "triangular_lattice":
        return generate_triangular(spec)
    if spec.kind == "bidisperse_packing":
        return generate_bidisperse_packing(spec)
    if spec.kind in ("robot_arm", "molecule_fixture"):
        return fixture(spec.kind)
    raise GeneratorSpecError(f"unknown generator kind {spec.kind!r}")


def lattice_positions(nx: int, ny: int) -> np.ndarray:
    """Node positions of an ``nx`` x ``ny`` triangular lattice, unit spacing."""
    pos = np.zeros((nx * ny, 2))
    for j in range(ny):
        for i in range(nx):
            pos[j * nx + i] = (i + 0.5 * (j % 2), j * ROW_SPACING)
    return pos


def lattice_edges(nx: int, ny: int) -> list[tuple[int, int]]:
    """All nearest-neighbour bonds of the full triangular lattice."""
    def node(i, j):
        return j * nx + i

    edges = []
    for j in range(ny):
        for i in range(nx - 1):
            edges.append((node(i, j), node(i + 1, j)))
    for j in range(ny - 1):
        for i in range(nx):
            edges.append((node(i, j), node(i, j + 1)))
            if j % 2 == 0:
                if i > 0:
                    edges.append((node(i, j), node(i - 1, j + 1)))
            else:
                if i < nx - 1:
                    edges.append((node(i, j), node(i + 1, j + 1)))
    return sorted(tuple(sorted(e)) for e in edges)


def lattice_dims(network: Network) -> tuple[int, int]:
    """Columns and rows of a triangular lattice, read from its geometry.

    Rows are the distinct node heights in units of ``ROW_SPACING``, and
    columns the nodes of the bottom row; the metadata is not consulted.
    """
    # a set, not np.unique, which imports numpy.ma (about 1 MB) on first use
    ny = len(set(np.round(network.positions[:, 1] / ROW_SPACING).astype(int).tolist()))
    nx = int((network.positions[:, 1] < 0.5 * ROW_SPACING).sum())
    return nx, ny


def generate_triangular(spec: GeneratorSpec) -> Network:
    """Diluted triangular lattice; keeps ``round(dilution * total)`` edges."""
    if spec.kind != "triangular_lattice":
        raise GeneratorSpecError(f"expected triangular_lattice, got {spec.kind!r}")
    nx, ny = spec.dimensions
    if not (isinstance(nx, int) and isinstance(ny, int)) or nx < 2 or ny < 2:
        raise GeneratorSpecError(f"lattice dimensions must be integers >= 2, got {spec.dimensions}")
    dilution = 1.0 if spec.dilution_fraction is None else spec.dilution_fraction

    positions = lattice_positions(nx, ny)
    all_edges = lattice_edges(nx, ny)
    rng = np.random.default_rng(spec.seed)
    n_keep = int(round(dilution * len(all_edges)))
    keep_idx = np.sort(rng.choice(len(all_edges), size=n_keep, replace=False))
    edges = [all_edges[i] for i in keep_idx]

    fixed = np.zeros(nx * ny, dtype=bool)
    if spec.boundary == "fixed_rows":
        fixed[:nx] = True
        fixed[(ny - 1) * nx:] = True
    elif spec.boundary == "fixed_bottom_row":
        fixed[:nx] = True
    elif spec.boundary == "fixed_circle":
        raise GeneratorSpecError("fixed_circle boundary applies to packings only")

    metadata = {
        "generator": "triangular_lattice",
        "nx": str(nx), "ny": str(ny),
        "dilution": repr(dilution), "seed": str(spec.seed),
        "boundary": spec.boundary,
    }
    return Network(positions, edges, fixed, metadata)


def _relax_disks(x, radii, container_radius, sweeps, step=0.15):
    """Overdamped descent on soft-disk overlap energy inside a circular wall.

    ``x`` is moved in place.  Each sweep works on flat ``(n * n)`` per-axis
    differences and adds the pair forces of the overlapping pairs only, found
    in row-major order, with one ``bincount`` per axis.  So every disk adds
    its partners' terms in ascending partner order, as a dense sum over the
    partner axis does, and the terms left out are exact zeros: packings are
    bit-identical to that dense sweep.  Returns the worst pair- or
    wall-overlap ratio at exit.
    """
    n = len(radii)
    sum_r = radii[:, None] + radii[None, :]
    sum_r.ravel()[:: n + 1] = -np.inf      # a disk never overlaps itself
    sum_r = sum_r.ravel()
    rows = np.repeat(np.arange(n), n)
    x0 = x[:, 0]
    x1 = x[:, 1]
    for _ in range(sweeps):
        dx = (x0[:, None] - x0).ravel()
        dy = (x1[:, None] - x1).ravel()
        dist = np.sqrt(dx * dx + dy * dy)
        overlap = sum_r - dist
        pairs = np.flatnonzero(overlap > 0)
        if len(pairs):
            pair_overlap = overlap[pairs]
            mag = pair_overlap / dist[pairs]
            row = rows[pairs]
            fx = np.bincount(row, mag * dx[pairs], minlength=n)
            fy = np.bincount(row, mag * dy[pairs], minlength=n)
            worst = float((pair_overlap / sum_r[pairs]).max())
        else:
            fx, fy = np.zeros(n), np.zeros(n)
            worst = 0.0
        r_c = np.sqrt(x0 * x0 + x1 * x1)
        out = r_c + radii - container_radius
        pressed = np.flatnonzero(out > 0)
        if len(pressed):
            push = out[pressed]
            reach = np.maximum(r_c[pressed], 1e-12)
            fx[pressed] += push * (-x0[pressed] / reach)
            fy[pressed] += push * (-x1[pressed] / reach)
        x0 += step * fx
        x1 += step * fy
        wall_worst = float((push / radii[pressed]).max()) if len(pressed) else 0.0
        if worst < 5e-4 and wall_worst < 5e-4:
            break
    return max(worst, wall_worst)


def _pack_disks(spec: GeneratorSpec, rng: np.random.Generator):
    """Jam bidisperse disks in a circular container by slow inflation."""
    n = spec.n_disks
    if n < 3:
        raise GeneratorSpecError("packing needs at least 3 disks")
    radii = np.empty(n)
    radii[: n // 2] = DISK_RADII[0]
    radii[n // 2:] = DISK_RADII[1]
    rng.shuffle(radii)

    # Size the container so full-scale disks would overshoot jamming; the
    # inflation then stalls at the jammed scale.
    packing_fraction = 0.91
    container_radius = math.sqrt((radii ** 2).sum() / packing_fraction)

    theta = rng.uniform(0, 2 * math.pi, n)
    rad = 0.85 * container_radius * np.sqrt(rng.uniform(0, 1, n))
    x = np.column_stack([rad * np.cos(theta), rad * np.sin(theta)])

    scale = 0.55
    for s in np.linspace(0.55, 1.0, 46):
        scale = s
        worst = _relax_disks(x, radii * s, container_radius, sweeps=300)
        if worst > 0.018:
            break               # overlaps no longer relax: over-pressed
    # descend in fine steps until the pressed state sits just past jamming,
    # with residual overlaps small enough that contacts stay within the
    # contact-length tolerance
    descents, descent_sweeps, polish_sweeps = 60, 600, 2000
    for _ in range(descents):
        worst = _relax_disks(x, radii * scale, container_radius,
                             sweeps=descent_sweeps)
        if worst <= 0.015:
            break
        scale *= 0.998
    else:
        raise PackingNotConverged(
            f"seed {spec.seed}: residual overlap {worst:.3g} at disk scale "
            f"{scale:.4f} after {descents} descents of {descent_sweeps} sweeps")
    worst = _relax_disks(x, radii * scale, container_radius,
                         sweeps=polish_sweeps)
    if worst > 0.018:
        raise PackingNotConverged(
            f"seed {spec.seed}: final polish left overlap {worst:.3g} at disk "
            f"scale {scale:.4f} after {polish_sweeps} sweeps")
    return x, radii * scale, container_radius, scale


def generate_bidisperse_packing(spec: GeneratorSpec) -> Network:
    """Jammed bidisperse contact network, diluted to a target DoF count.

    Disk centres become nodes and near-touching pairs become edges; disks
    pressed against the circular wall are marked fixed.  Interior edges are
    then removed at random (roughly 35% by default) and the removal is
    re-drawn until the rigidity null space has ``spec.target_dof`` dimensions.
    """
    if spec.kind != "bidisperse_packing":
        raise GeneratorSpecError(f"expected bidisperse_packing, got {spec.kind!r}")
    if spec.boundary not in ("open", "fixed_circle"):
        raise GeneratorSpecError(f"a packing's boundary is fixed_circle, "
                                 f"not {spec.boundary!r}")
    rng = np.random.default_rng(spec.seed)
    x, radii, container_radius, scale = _pack_disks(spec, rng)

    n = len(radii)
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    sum_r = radii[:, None] + radii[None, :]
    contact = dist <= (1.0 + CONTACT_TOL) * sum_r
    np.fill_diagonal(contact, False)

    wall_gap = container_radius - (np.linalg.norm(x, axis=1) + radii)
    boundary = wall_gap <= CONTACT_TOL * radii

    degree = contact.sum(axis=1)
    keep_nodes = np.flatnonzero(degree > 0)
    if len(keep_nodes) < 4:
        raise PackingNotConverged("contact network almost empty")
    remap = -np.ones(n, dtype=int)
    remap[keep_nodes] = np.arange(len(keep_nodes))

    all_edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if contact[i, j]:
                all_edges.append((int(remap[i]), int(remap[j])))
    positions = x[keep_nodes]
    fixed = boundary[keep_nodes]

    metadata = {
        "generator": "bidisperse_packing",
        "seed": str(spec.seed), "n_disks": str(spec.n_disks),
        "container_radius": repr(container_radius),
        "disk_scale": repr(scale),
        "radii": json.dumps([float(r) for r in radii[keep_nodes]]),
        "boundary": "fixed_circle",
    }
    full = Network(positions, all_edges, fixed, metadata)

    keep_fraction = 0.65 if spec.dilution_fraction is None else spec.dilution_fraction
    interior = [e for e in full.edges if not (full.fixed[e.a] and full.fixed[e.b])]
    n_remove = int(round((1.0 - keep_fraction) * len(interior)))
    if spec.target_dof is None:
        chosen = rng.choice(len(interior), size=n_remove, replace=False)
        removed = {(interior[i].a, interior[i].b) for i in chosen}
        net = full.with_edges([e for e in full.edges if (e.a, e.b) not in removed])
        net.metadata["removed_edges"] = str(len(removed))
        return net

    # Re-draw removal sets, nudging the count, until the DoF target is hit;
    # removing edges never lowers the DoF, so a target below the full
    # contact network's DoF is out of reach
    full_dof = rigidity.dof(rigidity.build(full))
    if full_dof > spec.target_dof:
        raise PackingNotConverged(
            f"seed {spec.seed}: the full contact network already has DoF "
            f"{full_dof}, above target DoF {spec.target_dof}")

    adjust = 0
    draws = 400
    for _ in range(draws):
        count = int(np.clip(n_remove + adjust, 1, len(interior) - 1))
        chosen = rng.choice(len(interior), size=count, replace=False)
        removed = {(interior[i].a, interior[i].b) for i in chosen}
        net = full.with_edges([e for e in full.edges if (e.a, e.b) not in removed])
        dof = rigidity.dof(rigidity.build(net))
        if dof == spec.target_dof:
            net.metadata["removed_edges"] = str(count)
            net.metadata["target_dof"] = str(spec.target_dof)
            return net
        # each additional non-redundant removal frees about one DoF
        adjust += spec.target_dof - dof
    raise PackingNotConverged(
        f"seed {spec.seed}: could not reach target DoF {spec.target_dof} "
        f"in {draws} draws of edge removals; the last removed {count} edges "
        f"and left DoF {dof}")


# -- fixtures ----------------------------------------------------------------

ARM_SEGMENTS = (1.1, 1.1, 0.55)          # upper arm, forearm, finger length
ARM_DEFAULT_ANGLES = (0.5236, 0.4363)    # shoulder, elbow (relative)
FINGER_ANGLES = (-0.6109, 0.6109)        # finger spread relative to forearm


def make_robot_arm(shoulder: float = ARM_DEFAULT_ANGLES[0],
                   elbow: float = ARM_DEFAULT_ANGLES[1]) -> Network:
    """Model arm: fixed shoulder, elbow, wrist, and two finger tips.

    ``shoulder`` is the absolute upper-arm angle; ``elbow`` is the forearm
    angle relative to the upper arm.  Finger geometry is fixed relative to
    the forearm.  Keep ``elbow`` away from 0 and pi so the chain is not
    collinear (collinear joints gain a spurious infinitesimal mode).
    """
    l1, l2, lf = ARM_SEGMENTS
    d1 = shoulder
    d2 = shoulder + elbow
    base = np.zeros(2)
    elbow_p = base + l1 * np.array([math.cos(d1), math.sin(d1)])
    wrist_p = elbow_p + l2 * np.array([math.cos(d2), math.sin(d2)])
    fa = wrist_p + lf * np.array([math.cos(d2 + FINGER_ANGLES[0]),
                                  math.sin(d2 + FINGER_ANGLES[0])])
    fb = wrist_p + lf * np.array([math.cos(d2 + FINGER_ANGLES[1]),
                                  math.sin(d2 + FINGER_ANGLES[1])])
    positions = np.array([base, elbow_p, wrist_p, fa, fb])
    edges = [(0, 1), (1, 2), (2, 3), (2, 4)]
    fixed = np.array([True, False, False, False, False])
    return Network(positions, edges, fixed, {"generator": "robot_arm"})


def _molecule() -> Network:
    # Fixed backbone chain; a three-atom dangling side chain hangs off the
    # leftmost backbone atom, and one lone side-chain atom sits bottom right.
    positions = np.array([
        (-1.2, 0.0), (-0.4, -0.15), (0.4, -0.05), (1.2, 0.1),   # backbone
        (-1.55, 0.85), (-1.15, 1.65), (-0.35, 2.0),             # left chain
        (1.5, -0.9),                                            # lone atom
    ])
    edges = [(0, 1), (1, 2), (2, 3),     # backbone bonds (between fixed atoms)
             (0, 4), (4, 5), (5, 6)]     # attachment + side-chain bonds
    fixed = np.array([True, True, True, True, False, False, False, False])
    return Network(positions, edges, fixed, {"generator": "molecule_fixture"})


def fixture(kind: str) -> Network:
    """Hard-coded demonstration networks: ``robot_arm`` or ``molecule_fixture``."""
    if kind == "robot_arm":
        return make_robot_arm()
    if kind == "molecule_fixture":
        return _molecule()
    raise GeneratorSpecError(f"unknown fixture kind {kind!r}")


# Frozen instance of the 4x4 diluted-lattice demo network (bottom row
# anchored, connected, exactly 4 DoF).  The seed was chosen by searching
# generate_triangular outputs for those properties.
LATTICE_4X4_KEPT_EDGES = 21
LATTICE_4X4_SEED = 40


def lattice_fixture_4x4() -> Network:
    spec = GeneratorSpec(
        kind="triangular_lattice", dimensions=(4, 4),
        dilution_fraction=LATTICE_4X4_KEPT_EDGES / 33.0, seed=LATTICE_4X4_SEED,
        boundary="fixed_bottom_row",
    )
    net = generate_triangular(spec)
    net.metadata["fixture"] = "lattice_4x4"
    return net


def hinged_fixture() -> Network:
    """Rigid block with a rigid flag hinged to it, plus floppy decorations.

    The left 3x3 triangulated block is anchored; a triangulated flag shares
    one node with it (a hinge it can rotate about); a two-link chain and a
    pendulum dangle off the block.
    """
    block_pos = lattice_positions(3, 3)
    block_edges = lattice_edges(3, 3)
    hinge = 5                                    # right end of the middle row
    flag_pos = np.array([(3.5, 0.6), (3.5, 1.4), (4.4, 1.0)])
    chain_pos = np.array([(-0.8, 2.2), (-1.2, 3.0)])
    pend_pos = np.array([(-0.9, 0.5)])
    positions = np.vstack([block_pos, flag_pos, chain_pos, pend_pos])
    p1, p2, p3 = 9, 10, 11
    c1, c2 = 12, 13
    pend = 14
    edges = list(block_edges) + [
        (hinge, p1), (hinge, p2), (p1, p2), (p1, p3), (p2, p3),
        (6, c1), (c1, c2),
        (0, pend),
    ]
    fixed = np.zeros(15, dtype=bool)
    fixed[[0, 1]] = True
    return Network(positions, edges, fixed, {"generator": "hinged_fixture"})
