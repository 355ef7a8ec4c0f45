"""Names and domains that the command line and the library share.

They live here, free of numpy, so that the command-line parser can offer
the matrix generators and variants as choices, and check each flag against
the library's domain table, before any solver loads. ``GENERATOR_KINDS``
is the only list of generator names; ``clifford`` binds its matrices to it
and re-exports it. ``require`` refuses a value outside its domain (a number
must have a finite float, so an int past float range is refused like inf)
and returns what it accepts as the float, complex or int that the package
computes with; ``require_one_of`` refuses a name outside its choices, each
with one ValueError wording, and ``in_float_range`` a result that leaves
float range at inputs inside their domains, with the package's one such
wording (``past_float_range``); it loads numpy only when called.
"""
import cmath
import operator

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


def _float(value):
    """value as a float, or a complex where it is complex; a numpy scalar or
    0-d array gives the number it holds. TypeError for text, OverflowError
    for an int past float range."""
    return (value.item() if hasattr(value, "item") else value) * 1.0


def _int(value):  # a bool is no integer here (NaN fails every domain), nor a float
    return cmath.nan if type(value) is bool else operator.index(value)


# every scalar domain of the package: domain -> (conversion, test of the
# finite converted value); a real or ordered one refuses a complex value
DOMAINS = {
    "finite": (_float, lambda v: True),
    "real and finite": (_float, lambda v: isinstance(v, float)),
    "positive and finite": (_float, lambda v: v > 0),
    "nonnegative and finite": (_float, lambda v: v >= 0),
    "at least 2": (_int, lambda v: v >= 2),
    "a nonnegative integer": (_int, lambda v: v >= 0),
    "finite with a finite square": (_float, lambda v: _finite(v * v)),
}


def _dims(value) -> int:
    if isinstance(value, (tuple, list)):
        return 1 + max(map(_dims, value), default=0)
    return getattr(value, "ndim", 0)


def _join(items, word: str) -> str:
    *rest, last = items
    return f"{', '.join(rest)} {word} {last}" if rest else last


def require(domain: str, **named):
    """The named values, each number as its domain converts it (a sequence or
    1-D array unchanged): one name gives its value, several a tuple. Raise
    ValueError("<names> must be <domain>") unless every number, or element
    of a sequence or 1-D array, is in the domain; names join as "x", "x and
    y", "x, y and z", and a value of more dimensions raises
    ValueError("<name> must be a number or 1-D")."""
    convert, test = DOMAINS[domain]
    shaped = []
    for name, value in named.items():
        dims = _dims(value)
        if dims > 1:
            raise ValueError(f"{name} must be a number or 1-D")
        shaped.append((value, dims))
    try:  # TypeError: not a number of the domain's kind; OverflowError: an int with no float
        rows = [[convert(v) for v in (value if dims else (value,))] for value, dims in shaped]
        ok = all(_finite(v) and test(v) for row in rows for v in row)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{_join(named, 'and')} must be {domain}")
    values = tuple(value if dims else row[0] for (value, dims), row in zip(shaped, rows))
    return values[0] if len(values) == 1 else values


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
