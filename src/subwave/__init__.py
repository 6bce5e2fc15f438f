"""Spectral solver and verification harness for damped wave equations.

The operators are the sub-Laplacian on the Heisenberg group H^n, handled
through an operator-valued Fourier transform with Hermite-basis matrix
coefficients, and homogeneous elliptic operators on R^n, handled through the
ordinary FFT.  On top of the mode-wise damped-oscillator calculus sit a
linear propagator with decay-rate verification, a Duhamel/Picard solver for
semilinear problems, a finite-difference oracle for cross-validation, and a
Gagliardo-Nirenberg inequality checker.
"""

from .group import (GroupElement, group_multiply, group_inverse,
                    group_identity, dilate, homogeneous_dimension,
                    oscillator_eigenvalue, enumerate_multi_indices)
from .hermite import (hermite_function_table, hermite_function,
                      gauss_hermite_rule, HermiteEvaluator)
from .spectral import (
    ModeGrid,
    SpectralField,
    SubLaplacianSymbol,
    AbelianSymbol,
    build_grid,
    l2_norm,
    sobolev_norm,
    homogeneous_sobolev_norm,
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
    DampedModeParams,
    Regime,
    classify_regime,
    propagate_mode,
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
    abelian_l2_norm,
    abelian_sobolev_norm,
    abelian_homogeneous_norm,
)
from .semilinear import (
    PowerNonlinearity,
    GeneralNonlinearity,
    check_admissible,
    ZNormConfig,
    z_norm,
    NumericalFailure,
    PicardStatus,
    PicardDiagnostics,
    apply_nonlinearity,
    duhamel_step,
    picard_solve,
    find_epsilon0,
    verify_semilinear_decay,
)
from .fdoracle import (
    apply_sublaplacian,
    cfl_limit,
    step_leapfrog,
    run_leapfrog,
    staggered_energy,
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
    empirical_constant,
)

__version__ = "0.1.0"
