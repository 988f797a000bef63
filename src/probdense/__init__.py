"""Kernel methods under convergence-in-probability metrics.

Bounded kernels and their Gram machinery, Ky Fan / integrated-psi metrics
over paired samples, representer-form RKHS functions, regularized ERM
solvers, and an empirical denseness lab showing smooth kernel models
approximating discontinuous targets in probability while the uniform gap
stays large.
"""

__version__ = "0.1.0"

# each module's __all__ is its public surface; the package re-exports them all
from . import denseness, erm, kernels, metrics, rkhs
from .denseness import *
from .erm import *
from .kernels import *
from .metrics import *
from .rkhs import *
from .util import ConfigError, NumericalError, derive_rng

__all__ = [
    "__version__",
    "ConfigError",
    "NumericalError",
    "derive_rng",
    *kernels.__all__,
    *metrics.__all__,
    *rkhs.__all__,
    *erm.__all__,
    *denseness.__all__,
]
