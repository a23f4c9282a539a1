"""Deterministic low-rank matrix completion on certified expander sampling sets.

The package is organized as a small numpy/scipy library:

* ``kernels`` -- truncated SVD of a dense or sparse matrix (LAPACK or
  Lanczos), operator norm, Procrustes alignment
* ``graphs`` -- biregular bipartite generators (algebraic Cayley-graph and
  random configuration-model) with spectral certification
* ``sampling`` -- observation operator, ground-truth bundles, incoherence
  diagnostics, MatrixMarket I/O
* ``pgd`` / ``scaled_pgd`` -- factored gradient solvers
* ``ialm`` -- nuclear-norm baseline
* ``metrics`` -- alignment-aware error metrics and rate fitting
* ``theory`` -- numerical margin checks for the recovery inequalities
* ``bench`` -- experiment driver
* ``cli`` -- command-line entry point (``detmc``)
"""

from . import bench, graphs, ialm, kernels, metrics, pgd, sampling, scaled_pgd, theory
from .errors import (
    DivergenceError,
    FormatError,
    GenerationError,
    InputError,
    ParameterError,
)

__version__ = "0.1.0"

__all__ = [
    "bench",
    "graphs",
    "ialm",
    "kernels",
    "metrics",
    "pgd",
    "sampling",
    "scaled_pgd",
    "theory",
    "DivergenceError",
    "FormatError",
    "GenerationError",
    "InputError",
    "ParameterError",
    "__version__",
]
