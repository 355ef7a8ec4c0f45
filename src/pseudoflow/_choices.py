"""Names and domains that the command line and the library share.

They live here, free of numpy, so that the command-line parser can offer
the matrix generators and variants as choices, and check each flag against
the library's domain table, before any solver loads. ``GENERATOR_KINDS``
is the only list of generator names; ``clifford`` binds its matrices to it
and re-exports it. ``require`` refuses a value outside its domain (a number
must have a finite float, so an int past float range is refused like inf,
and text is none) and returns what it accepts as the numbers the package
computes with: a float, complex or int, or a float64 or complex128 array
for a sequence or 1-D array; ``require_one_of`` refuses a name outside its
choices, each with one ValueError wording, and ``in_float_range`` a result
that leaves float range at inputs inside their domains, with the package's
one such wording (``past_float_range``). Only arrays load numpy.
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
    """value, or the number a numpy scalar or 0-d array holds, as a float or
    complex; TypeError for text, OverflowError for an int past float range."""
    return (value.item() if hasattr(value, "item") else value) * 1.0


def _int(value):  # a bool is no integer here (NaN fails every domain), nor a float
    return cmath.nan if type(value) is bool else operator.index(value)


# every domain: domain -> (conversion, test of the finite converted number).
# A domain with a test is real; an array passes it where its least and
# largest entries do. "finite" admits the complex values of exp_pauli's y,
# PauliVector's c0 and v, a Field and the spectral and iterated-series tau.
DOMAINS = {
    "finite": (_float, None),
    "real and finite": (_float, lambda v: True),
    "positive and finite": (_float, lambda v: v > 0),
    "nonnegative and finite": (_float, lambda v: v >= 0),
    "at least 2": (_int, lambda v: v >= 2),
    "a nonnegative integer": (_int, lambda v: v >= 0),
    "finite with a finite square": (_float, lambda v: _finite(v * v)),
}


def _join(items, word: str) -> str:
    *rest, last = items
    return f"{', '.join(rest)} {word} {last}" if rest else last


def _array(convert, test, value):
    """value as float64 (complex128 where complex) and whether it is in the domain."""
    import numpy as np

    arr = np.asarray(value)  # ValueError for a ragged sequence
    if arr.ndim > 1:
        raise ValueError
    if arr.dtype.kind == "O":  # Python numbers one by one: an int past float range has no float
        arr = np.array([convert(v) for v in arr])
    kind = arr.dtype.kind
    if convert is _int or kind not in "biufc" or (kind == "c" and test):
        return arr, False
    arr = arr.astype(np.complex128 if kind == "c" else np.float64)
    if test is None or not arr.size:
        return arr, bool(np.isfinite(arr).all())
    lo, hi = float(np.minimum.reduce(arr)), float(np.maximum.reduce(arr))  # a NaN is both
    return arr, -cmath.inf < lo and hi < cmath.inf and test(lo) and test(hi)


def require(domain: str, **named):
    """The named values as their domain converts them (one name gives its
    value, several a tuple); ValueError("<names> must be <domain>") unless
    every number, or entry of a sequence or 1-D array, is in it. Names join
    as "x", "x and y", "x, y and z"; a value of more dimensions raises
    ValueError("<name> must be a number or 1-D")."""
    convert, test = DOMAINS[domain]
    values, ok = [], True
    for name, value in named.items():
        try:  # TypeError: not a number of the domain's kind; OverflowError: an int with no float
            if isinstance(value, (tuple, list)) or getattr(value, "ndim", 0):
                value, good = _array(convert, test, value)
            else:
                value = convert(value)
                good = _finite(value) and (not test or not isinstance(value, complex) and test(value))
        except (TypeError, OverflowError):
            good = False
        except ValueError:
            raise ValueError(f"{name} must be a number or 1-D") from None
        ok = good and ok
        values.append(value)
    if not ok:
        raise ValueError(f"{_join(named, 'and')} must be {domain}")
    return values[0] if len(values) == 1 else tuple(values)


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
