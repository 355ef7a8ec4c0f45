"""Names of the matrix generators and variants that ``clifford`` accepts.

They live here, free of numpy, so that the command-line parser can offer
them as choices before any solver module loads; ``clifford`` re-exports
the variants, and a test holds its own ``GENERATOR_KINDS`` equal to these.
"""

GENERATOR_KINDS = (
    "sigma1", "sigma2", "sigma3",
    "alpha1", "alpha2", "alpha3", "beta", "gamma1", "gamma2", "gamma3",
    "kappa1", "kappa2", "kappa3", "delta",
    "identity2", "identity4",
)
POSITION_PARAMETRIZATIONS = ("dirac", "beta_diagonal")
KAPPA_VARIANTS = ("i_delta", "plain_delta")
