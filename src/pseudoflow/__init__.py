"""Numerical library for evolution equations driven by fractional and
pseudodifferential operators: subordination integrals, spectral symbol
evolution, Hermite-series solutions of the relativistic Schrodinger
equation, Heisenberg-picture observables, and Clifford-matrix
parametrizations of operator square roots.

The public names load on first use (PEP 562): ``import pseudoflow`` reads
no numpy, and ``pseudoflow.Field`` imports the module that defines it.
"""
import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; each submodule's __all__ is its row
_EXPORTS = {
    "errors": ("PseudoflowError", "ConvergenceError", "TruncationError"),
    "special": (
        "QuadratureConfig",
        "IntegralResult",
        "HALFLINE_RULES",
        "REALLINE_RULES",
        "hermite2",
        "bessel",
        "integrate_halfline",
        "integrate_realline",
    ),
    "transforms": (
        "Field",
        "doetsch_weight",
        "exp_sqrt_via_doetsch",
        "gauss_weierstrass",
        "glaisher",
        "laplace_inv_power",
    ),
    "evolution": (
        "SymbolSpec",
        "solve_half_derivative",
        "solve_pseudoheat",
        "pseudoheat_gaussian",
        "solve_symbol_spectral",
        "solve_affine_sqrt",
        "apply_inv_sqrt_shift",
    ),
    "relativistic": (
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
    ),
    "clifford": (
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
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as after an eager import
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
