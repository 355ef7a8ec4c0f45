"""The compiled scipy modules loaded alone (pseudoflow._scipy): the same
functions as scipy's public imports, and the same bits where the direct
load fails and the loader falls back to them."""
import importlib.util
import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import jn_zeros

from pseudoflow._scipy import flapack, special_ufuncs, specfun

from conftest import child_env

# Runs in a fresh interpreter. The first argument says how the loader's
# direct load is made to fail, if at all: "load fails" (loading the found
# file raises ImportError) or "no file" (no extension suffix matches). It
# prints the module names the accessors first return; the SHA-256 of K0's
# dhat_apply, a spline's coefficient rows (real and complex), the
# half-derivative flow (a spline), the J0 operator and bessel(); the scipy
# modules then loaded; and, after the public imports, whether these share
# the objects the accessors return, and whether sys.modules holds those.
_PROBE = """
import hashlib, importlib, importlib.machinery, importlib.util, json, sys
mode = sys.argv[1]
if mode == "load fails":
    def fail(spec):
        raise ImportError("forced")
    importlib.util.module_from_spec = fail
elif mode == "no file":
    importlib.machinery.EXTENSION_SUFFIXES = []
import numpy as np
import pseudoflow as pf
from pseudoflow import _scipy
from pseudoflow.evolution import _coefficients
first = [_scipy.flapack(), _scipy.special_ufuncs(), _scipy.specfun()]
f = pf.Field.from_function(-8.0, 8.0, 129, lambda x: np.exp(-x * x) * (1.0 + 0.3 * x))
x = np.linspace(-3.0, 3.0, 40) ** 3
parts = [
    pf.dhat_apply(f, "kernel_k0").values,
    _coefficients(x, np.sin(x)),
    _coefficients(x, np.exp(1j * x)),
    pf.solve_half_derivative(f, 0.5).values,
    pf.apply_inv_sqrt_shift(f).values,
    np.array([pf.bessel("J0", 2.1), pf.bessel("K0", 1.3)]),
]
digest = hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
lapack, ufuncs, zeros = first
import scipy.linalg.lapack, scipy.special, scipy.special._basic
shared = [
    scipy.special.k0 is ufuncs.k0,
    scipy.special.j0 is ufuncs.j0,
    scipy.linalg.lapack.dgtsv is lapack.dgtsv,
    scipy.linalg.lapack.zgtsv is lapack.zgtsv,
    scipy.special._basic._specfun.jyzo is zeros.jyzo,
    *(sys.modules[m.__name__] is m for m in first),
]
print(json.dumps([digest, [m.__name__ for m in first], loaded, shared]))
"""

_DIRECT = ["scipy.linalg._flapack", "scipy.special._special_ufuncs", "scipy.special._specfun"]


def _probe(tmp_path, mode):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, mode], capture_output=True, text=True,
        env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def direct(tmp_path_factory):
    return _probe(tmp_path_factory.mktemp("direct"), "direct")


def test_direct_loads_skip_the_scipy_packages(direct):
    _digest, names, loaded, shared = direct
    assert names == _DIRECT
    assert set(_DIRECT) <= set(loaded)
    for package in ("scipy.linalg", "scipy.linalg.lapack", "scipy.special", "scipy.special._basic"):
        assert package not in loaded, package
    # a later public import finds the loaded modules and shares their objects
    assert shared == [True] * 8


@pytest.mark.parametrize("mode", ["load fails", "no file"])
def test_fallback_to_the_public_imports_gives_the_same_bits(tmp_path, direct, mode):
    digest, names, loaded, shared = _probe(tmp_path, mode)
    assert names == ["scipy.linalg.lapack", "scipy.special", "scipy.special._specfun"]
    assert "scipy.special._basic" in loaded
    assert digest == direct[0]
    assert shared == [True] * 8


@pytest.mark.parametrize("m", [1, 4, 7, 50, 333, 2050])
def test_jyzo_gives_the_zeros_of_j0(m):
    assert np.array_equal(specfun().jyzo(0, m)[0], jn_zeros(0, m))


def test_a_loaded_module_is_returned_as_it_is(monkeypatch):
    # every call after the first finds its module in sys.modules, with no
    # file lookup
    accessors = (flapack, special_ufuncs, specfun)
    first = [accessor() for accessor in accessors]

    def never(*args, **kwargs):
        raise AssertionError("the loader looked for a file")

    monkeypatch.setattr(importlib.util, "spec_from_file_location", never)
    for accessor, module, name in zip(accessors, first, _DIRECT):
        assert accessor() is module is sys.modules[name]
