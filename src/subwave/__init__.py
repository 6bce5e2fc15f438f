"""Spectral solver and verification harness for damped wave equations.

The operators are the sub-Laplacian on the Heisenberg group H^n, handled
through an operator-valued Fourier transform with Hermite-basis matrix
coefficients, and homogeneous elliptic operators on R^n, handled through the
ordinary FFT.  On top of the mode-wise damped-oscillator calculus sit a
linear propagator with decay-rate verification, a Duhamel/Picard solver for
semilinear problems, a finite-difference oracle for cross-validation, and a
Gagliardo-Nirenberg inequality checker.  Both backends reach the solvers
through one model in `subwave.propagator`, which is also the one home of the
homogeneous Sobolev norms ||R^{a/nu} u||.  The package root re-exports each
library module's `__all__`; the command line lives in `subwave.cli`.
"""

from .group import *
from .hermite import *
from .spectral import *
from .transform import *
from .propagator import *
from .abelian import *
from .semilinear import *
from .fdoracle import *
from .gn import *

__version__ = "0.1.0"
