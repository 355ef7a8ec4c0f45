"""Names and domains that the command line and the library share.

They live here, free of numpy, so that the command-line parser can offer
the matrix generators and variants as choices, and check each flag against
the library's domain table, before any solver loads. ``GENERATOR_KINDS``
is the only list of generator names; ``clifford`` binds its matrices to it
and re-exports it. ``require`` refuses a value outside its domain (a number
must have a finite float, so an int past float range is refused like inf)
and ``require_one_of`` a name outside its choices, each with one ValueError
wording, and ``in_float_range`` a result that leaves float range at inputs
inside their domains, with the package's one such wording
(``past_float_range``); it loads numpy only when called.
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
    try:  # an int past float range has no float
        return cmath.isfinite(value)
    except OverflowError:
        return False


# every scalar domain of the package: domain -> test of a finite value
DOMAINS = {
    "finite": lambda v: True,
    "positive and finite": lambda v: v > 0,
    "nonnegative and finite": lambda v: v >= 0,
    "at least 2": lambda v: v >= 2,
    "a nonnegative integer": lambda v: type(v) is not bool and hasattr(v, "__index__") and v >= 0,
    "finite with a finite square": lambda v: _finite(v * v),
}


def _dims(value) -> int:
    if isinstance(value, (tuple, list)):
        return 1 + max(map(_dims, value), default=0)
    return getattr(value, "ndim", 0)


def _join(items, word: str) -> str:
    *rest, last = items
    return f"{', '.join(rest)} {word} {last}" if rest else last


def require(domain: str, **named) -> None:
    """Raise ValueError("<names> must be <domain>") unless every named value
    has a finite float and is in the domain, a sequence or 1-D array element
    by element; names join as "x", "x and y", "x, y and z". A value of more
    than one dimension raises ValueError("<name> must be a number or 1-D")."""
    test = DOMAINS[domain]
    rows = []
    for name, value in named.items():
        dims = _dims(value)
        if dims > 1:
            raise ValueError(f"{name} must be a number or 1-D")
        rows.append(value if dims else (value,))
    if not all(_finite(v) and test(v) for row in rows for v in row):
        raise ValueError(f"{_join(named, 'and')} must be {domain}")


def require_one_of(choices, **named) -> None:
    """Raise ValueError("<names> must be one of a, b or c") unless every
    named value is one of the string choices; names join as in ``require``."""
    if not all(isinstance(v, str) and v in choices for v in named.values()):
        raise ValueError(f"{_join(named, 'and')} must be one of {_join(choices, 'or')}")


def past_float_range(what: str, **named) -> ValueError:
    """ValueError("<what> is past float range at <name> = <value>, ..."),
    with each named input's repr; a named value that is callable is called
    here, so a detail such as the data's peak costs nothing until a refusal."""
    values = (value() if callable(value) else value for value in named.values())
    at = ", ".join(f"{name} = {value!r}" for name, value in zip(named, values))
    return ValueError(f"{what} is past float range at {at}")


def in_float_range(value, what: str, **named):
    """value, a number or an array, where every entry is finite; else raise
    past_float_range(what, **named)."""
    import numpy as np

    if not np.isfinite(value).all():
        raise past_float_range(what, **named)
    return value
