"""Numerical library for evolution equations driven by fractional and
pseudodifferential operators: subordination integrals, spectral symbol
evolution, Hermite-series solutions of the relativistic Schrodinger
equation, Heisenberg-picture observables, and Clifford-matrix
parametrizations of operator square roots.
"""
from .clifford import (
    GENERATOR_KINDS,
    KAPPA_VARIANTS,
    POSITION_PARAMETRIZATIONS,
    Mat2,
    Mat4,
    PauliVector,
    bloch_evolve,
    dirac2_evolution,
    dirac4_evolution,
    exp_pauli,
    generators,
    kappa_parametrization,
    pauli_line_power,
    pauli_sqrt_identity,
    position_evolution,
    sqrt_symbol_check,
)
from .errors import ConvergenceError, PseudoflowError, TruncationError
from .evolution import (
    SymbolSpec,
    apply_inv_sqrt_shift,
    pseudoheat_gaussian,
    solve_affine_sqrt,
    solve_half_derivative,
    solve_pseudoheat,
    solve_symbol_spectral,
)
from .relativistic import (
    DHAT_METHODS,
    ObservableInputs,
    commutator_xt_x0,
    dhat_apply,
    f2k,
    f_function,
    iterated_series,
    linear_potential_trajectory,
    packet_width,
    phi_transform,
    r_function,
    series_solution,
    spectral_schrodinger,
)
from .special import (
    HALFLINE_RULES,
    REALLINE_RULES,
    IntegralResult,
    QuadratureConfig,
    bessel,
    hermite2,
    integrate_halfline,
    integrate_realline,
)
from .transforms import (
    Field,
    doetsch_weight,
    exp_sqrt_via_doetsch,
    gauss_weierstrass,
    glaisher,
    laplace_inv_power,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PseudoflowError",
    "ConvergenceError",
    "TruncationError",
    # special
    "QuadratureConfig",
    "IntegralResult",
    "HALFLINE_RULES",
    "REALLINE_RULES",
    "hermite2",
    "bessel",
    "integrate_halfline",
    "integrate_realline",
    # transforms
    "Field",
    "doetsch_weight",
    "exp_sqrt_via_doetsch",
    "gauss_weierstrass",
    "glaisher",
    "laplace_inv_power",
    # evolution
    "SymbolSpec",
    "solve_half_derivative",
    "solve_pseudoheat",
    "pseudoheat_gaussian",
    "solve_symbol_spectral",
    "solve_affine_sqrt",
    "apply_inv_sqrt_shift",
    # relativistic
    "ObservableInputs",
    "DHAT_METHODS",
    "f2k",
    "series_solution",
    "spectral_schrodinger",
    "dhat_apply",
    "phi_transform",
    "iterated_series",
    "r_function",
    "f_function",
    "packet_width",
    "commutator_xt_x0",
    "linear_potential_trajectory",
    # clifford
    "Mat2",
    "Mat4",
    "PauliVector",
    "GENERATOR_KINDS",
    "POSITION_PARAMETRIZATIONS",
    "KAPPA_VARIANTS",
    "generators",
    "pauli_sqrt_identity",
    "exp_pauli",
    "dirac2_evolution",
    "bloch_evolve",
    "dirac4_evolution",
    "position_evolution",
    "sqrt_symbol_check",
    "kappa_parametrization",
    "pauli_line_power",
]
