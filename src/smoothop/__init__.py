"""Asymmetric generalized translation on [-1, 1] and the approximation
theory it induces: weighted norms, best polynomial approximation, the
generalized modulus of smoothness, and the converse-inequality experiments
connecting them."""

from .orthopoly import (
    JACOBI_22,
    LEGENDRE,
    CoefficientSequence,
    JacobiBasis,
    QuadratureRule,
    fourier_jacobi_coeff,
    fourier_jacobi_series,
    gauss_chebyshev,
    gauss_legendre,
    jacobi_eval,
)
from .translation import (
    EDGE_EPS,
    Multiplier,
    calibrate_multiplier,
    default_multiplier,
    fit_multiplier,
    kernel_eval,
    multiplier_eval,
    translate,
    translate_trig,
)
from .weighted_space import (
    ParamVerdict,
    SampledFunction,
    WeightedSpace,
    as_sampled,
    sup_grid,
    validate_params,
    weighted_norm,
)
from .approx import BestApproxResult, best_approx, best_approx_sequence
from .modulus import ModulusReport, modulus_curve, modulus_omega
from .harness import (
    ClassFitResult,
    ConverseTableRow,
    DyadicDecomposition,
    Lemma1Report,
    choose_block_level,
    class_fit,
    converse_table,
    dyadic_bound,
    get_test_function,
    verify_lemma1,
)

__version__ = "0.1.0"
