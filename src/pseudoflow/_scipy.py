"""The three compiled scipy modules the package calls, each loaded alone.

``from scipy.special import k0`` or ``from scipy.linalg.lapack import dgtsv``
runs the whole package's ``__init__``: 0.15-0.22 s and about 0.04 s of a
cold start (``-X importtime`` after numpy, on a 2-CPU host), to reach a
handful of compiled functions. Each accessor below loads the one extension
module that holds them from scipy's directory and registers it in
``sys.modules`` under its own name, so a later public import finds it there
and shares its objects (though the package then holds no attribute for it:
``scipy.linalg._flapack`` is reached through ``sys.modules`` or an import).
A module already in ``sys.modules`` is returned as it is, so no extension is
ever loaded twice. Where the file cannot be found or loaded (another scipy
layout: ``_special_ufuncs`` is recent), the accessor returns the public
module, which holds the same functions.
"""
from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType


def _load(name: str, public: str) -> ModuleType:
    """scipy's extension module ``name``, else the module ``public``."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy

    package, _, leaf = name.rpartition(".")
    directory = os.path.join(scipy.__path__[0], *package.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, leaf + suffix)
        if os.path.isfile(path):
            break
    else:
        return importlib.import_module(public)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return importlib.import_module(public)
    sys.modules[name] = module
    return module


def flapack() -> ModuleType:
    """LAPACK's ``dgtsv`` and ``zgtsv``."""
    return _load("scipy.linalg._flapack", "scipy.linalg.lapack")


def special_ufuncs() -> ModuleType:
    """The Bessel ufuncs ``j0`` and ``k0``."""
    return _load("scipy.special._special_ufuncs", "scipy.special")


def specfun() -> ModuleType:
    """``jyzo``, whose ``jyzo(0, m)[0]`` is ``scipy.special.jn_zeros(0, m)``."""
    return _load("scipy.special._specfun", "scipy.special._specfun")
