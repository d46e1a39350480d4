"""Nonlocal diffusion with heavy-tailed jump kernels, plus its certificates.

The package simulates d_t u = D u for the principal-value jump operator
D u(x) = p.v. int (u(x + z) - u(x)) J(z) dz on a uniform 1D grid with a
monotone explicit scheme, and packages the quantitative checks that certify
the qualitative theory: kernel envelope validation, discrete comparison,
half-line persistence of plateau data, an explicit subsolution residual
certificate, and the algebraic tail-flattening lower bound.
"""

from . import evolution, kernels, mesh, operator
from . import quadrature, reference, subsolution, verification
from .evolution import *
from .kernels import *
from .mesh import *
from .operator import *
from .quadrature import *
from .reference import *
from .subsolution import *
from .verification import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the package re-exports their union
__all__ = [
    "__version__",
    *evolution.__all__,
    *kernels.__all__,
    *mesh.__all__,
    *operator.__all__,
    *quadrature.__all__,
    *reference.__all__,
    *subsolution.__all__,
    *verification.__all__,
]
