"""Coarse PDE solves corrected by a small network, with the coarse mesh
itself trained through zeroth-order estimates of the solver's VJP."""

# bench/test_bench.py imports these three from the package; they go once
# ROADMAP item 1 moves that import to the modules.
from .grid import ScenarioParams, uniform_mesh
from .solver import solve_poisson
