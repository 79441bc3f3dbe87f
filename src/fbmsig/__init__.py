"""Expected signatures, grid approximation and cubature for fractional
Brownian motion with Hurst parameter above one half."""

from .cubature import (
    AnsatzSolution,
    CubatureFormula,
    empirical_degree,
    formula_from_solution,
    rescale_formula,
    solve_ansatz,
    system_residuals,
    three_path_formula,
    verify_formula,
    word_weight,
    words_of_degree,
)
from .expected import (
    DecayReport,
    QuadratureToleranceError,
    check_hurst,
    closed_form_value,
    decay_bound_check,
    expected_tensor,
    expected_word,
)
from .gridapprox import (
    BoundReport,
    SlopeFit,
    approx_expected_word,
    coefficient_bound_check,
    constant_A,
    constant_Atilde,
    convergence_slope,
    gap_rows,
    sample_fbm_batch,
)
from .matchings import (
    compatible_matchings,
    decomposition_bijection_check,
    enumerate_matchings,
    permutation_count,
    refined_count_bound,
)
from .sde import (
    ErrorBoundParams,
    cubature_weak_value,
    error_bound_shape,
    mc_weak_value,
)
from .simplexquad import CertifiedValue, QuadConfig, matching_simplex_integral
from .tensor import Word

__version__ = "0.1.0"
