"""Sparse floppy-mode analysis and control of under-constrained 2D networks."""

__version__ = "0.1.0"

from .networks import Network, Edge, GeneratorSpec, fixture, generate
from .rigidity import build, dof, numeric_rank
from .nullspace import Mode, ModeBasis, snd_basis, svd_basis

__all__ = [
    "Network", "Edge", "GeneratorSpec", "fixture", "generate",
    "build", "dof", "numeric_rank",
    "Mode", "ModeBasis", "snd_basis", "svd_basis",
]
