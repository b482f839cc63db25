"""Multi-modes Monte Carlo IP-DG solver for time-harmonic Maxwell equations
in weakly random media on the unit cube."""

__version__ = "0.1.0"

from .mesh import HexMesh, build_uniform_mesh
from .dg_core import DGField, l2_norm, dg_norm
from .driver import RunConfig, MCResult, run_standard, run_multimodes, compare_algorithms
