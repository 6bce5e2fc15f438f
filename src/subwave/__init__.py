"""Spectral solver and verification harness for damped wave equations.

The operators are the sub-Laplacian on the Heisenberg group H^n, handled
through an operator-valued Fourier transform with Hermite-basis matrix
coefficients, and homogeneous elliptic operators on R^n, handled through the
ordinary FFT.  On top of the mode-wise damped-oscillator calculus sit a
linear propagator with decay-rate verification, a Duhamel/Picard solver for
semilinear problems, a finite-difference oracle for cross-validation, and a
Gagliardo-Nirenberg inequality checker.  Both backends reach the solvers
through one model in `subwave.propagator`, which is also the one home of the
homogeneous Sobolev norms ||R^{a/nu} u||.
"""

from .group import (GroupElement, group_multiply, group_inverse,
                    group_identity, dilate, homogeneous_dimension,
                    oscillator_eigenvalue, enumerate_multi_indices)
from .hermite import gauss_hermite_rule
from .spectral import (
    ModeGrid,
    SpectralField,
    SubLaplacianSymbol,
    AbelianSymbol,
    build_grid,
)
from .transform import (
    SpatialGrid,
    SpatialField,
    from_function,
    representation_matrix,
    forward_transform,
    inverse_transform,
    synthesize_on_grid,
    calibrate_plancherel,
)
from .propagator import (
    decay_rate,
    LinearTrajectory,
    evolve_linear,
    verify_decay,
)
from .abelian import (
    AbelianGrid,
    AbelianField,
    AbelianCoefficients,
    abelian_from_function,
    abelian_forward,
    abelian_inverse,
)
from .semilinear import (
    PowerNonlinearity,
    GeneralNonlinearity,
    ZNormConfig,
    NumericalFailure,
    PicardStatus,
    PicardDiagnostics,
    apply_nonlinearity,
    picard_solve,
    verify_semilinear_decay,
)
from .fdoracle import (
    apply_sublaplacian,
    cfl_limit,
    step_leapfrog,
    run_leapfrog,
    compare_with_spectral,
    mms_fields,
)
from .gn import (
    GNExponents,
    gn_exponent_heisenberg,
    gn_exponent_graded,
    gn_exponent_corollary,
    verify_inequality_abelian,
    verify_inequality_heisenberg,
)

__version__ = "0.1.0"
