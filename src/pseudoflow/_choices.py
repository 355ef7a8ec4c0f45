"""Names and domains that the command line and the library share.

They live here, free of numpy, so that the command-line parser can offer
the matrix generators and variants as choices, and check each flag against
the library's domain table, before any solver loads; ``clifford``
re-exports the variants, and a test holds its ``GENERATOR_KINDS`` equal.
"""
import cmath

GENERATOR_KINDS = (
    "sigma1", "sigma2", "sigma3",
    "alpha1", "alpha2", "alpha3", "beta", "gamma1", "gamma2", "gamma3",
    "kappa1", "kappa2", "kappa3", "delta",
    "identity2", "identity4",
)
POSITION_PARAMETRIZATIONS = ("dirac", "beta_diagonal")
KAPPA_VARIANTS = ("i_delta", "plain_delta")


def _finite(value) -> bool:
    # ints unconverted: 10**400 is finite but has no float
    return isinstance(value, int) or cmath.isfinite(value)


# every scalar domain of the package: domain -> test of a finite value
DOMAINS = {
    "finite": lambda v: True,
    "positive and finite": lambda v: v > 0,
    "nonnegative and finite": lambda v: v >= 0,
    "at least 2": lambda v: v >= 2,
    "a nonnegative integer": lambda v: type(v) is not bool and hasattr(v, "__index__") and v >= 0,
    "finite with a finite square": lambda v: _finite(v * v),
}


def require(domain: str, **named) -> None:
    """Raise ValueError("<names> must be <domain>") unless every named value
    is finite and in the domain, a sequence or 1-D array element by element;
    names join as "x", "x and y", "x, y and z"."""
    test = DOMAINS[domain]
    rows = (v if isinstance(v, (tuple, list)) or getattr(v, "ndim", 0) else (v,)
            for v in named.values())
    if not all(_finite(v) and test(v) for row in rows for v in row):
        *rest, last = named
        names = f"{', '.join(rest)} and {last}" if rest else last
        raise ValueError(f"{names} must be {domain}")
