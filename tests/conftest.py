"""Shared helpers for tests that run ``python -m pseudoflow`` in a subprocess."""
import os
from pathlib import Path

import pseudoflow

# Directory holding the pseudoflow package this test process imported.
PACKAGE_ROOT = Path(pseudoflow.__file__).resolve().parents[1]


def child_env():
    """Environment for a CLI subprocess that must run the package under test.

    The subprocesses run with ``cwd=tmp_path``, where a relative
    ``PYTHONPATH`` such as ``src`` no longer finds the package, and an
    installed copy elsewhere could be picked up instead. So the absolute
    ``PACKAGE_ROOT`` goes first on ``PYTHONPATH``.
    """
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env
