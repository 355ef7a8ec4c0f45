"""Names of the matrix variants that ``clifford`` accepts.

They live here, free of numpy, so that the command-line parser can offer
them as choices before any solver module loads; ``clifford`` re-exports
them.
"""

POSITION_PARAMETRIZATIONS = ("dirac", "beta_diagonal")
KAPPA_VARIANTS = ("i_delta", "plain_delta")
