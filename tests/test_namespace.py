"""The package namespace: every public name loads on first use."""
import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import pseudoflow
from conftest import child_env

# Runs in a fresh interpreter: after each step on the bare package, whether
# numpy has loaded, as one JSON object.
_NAMESPACE_PROBE = """
import json, sys
import pseudoflow
steps = {"import": "numpy" in sys.modules}
missing = sorted(set(pseudoflow.__all__) - set(dir(pseudoflow)))
steps["dir"] = ["numpy" in sys.modules, missing]
try:
    pseudoflow.no_such_name
except AttributeError as exc:
    steps["unknown"] = ["numpy" in sys.modules, str(exc)]
pseudoflow.Field
steps["control"] = "numpy" in sys.modules
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    proc = subprocess.run(
        [sys.executable, "-c", _NAMESPACE_PROBE],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path_factory.mktemp("namespace"),
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    # the probe sees numpy once a public name needs it
    assert steps["control"] is True
    return steps


def test_import_loads_no_numpy(probe):
    assert probe["import"] is False


def test_dir_covers_all_without_loading(probe):
    assert probe["dir"] == [False, []]


def test_unknown_attribute_raises_attribute_error(probe):
    assert probe["unknown"] == [False, "module 'pseudoflow' has no attribute 'no_such_name'"]
    assert not hasattr(pseudoflow, "no_such_name")


def test_every_public_name_is_its_home_modules_object():
    assert pseudoflow.__all__ == ["__version__", *pseudoflow._HOME]
    assert pseudoflow.__version__ == "0.1.0"
    for name, module in pseudoflow._HOME.items():
        home = importlib.import_module(f"pseudoflow.{module}")
        obj = getattr(pseudoflow, name)
        assert obj is getattr(home, name), name
        # a class or function of the package is defined where the table says
        defined_in = getattr(obj, "__module__", None) or ""
        if defined_in.startswith("pseudoflow."):
            assert defined_in == home.__name__, name
    # the submodules stay reachable as attributes, as after an eager import
    for module in pseudoflow._EXPORTS:
        assert getattr(pseudoflow, module) is importlib.import_module(f"pseudoflow.{module}")


@pytest.mark.parametrize("module", list(pseudoflow._EXPORTS))
def test_each_modules_all_is_its_row_of_the_table(module):
    home = importlib.import_module(f"pseudoflow.{module}")
    assert home.__all__ == list(pseudoflow._EXPORTS[module])


def _calls(node, names) -> bool:
    """Whether ``node`` holds a call of a function or method named in ``names``."""
    return any(
        isinstance(sub, ast.Call) and getattr(sub.func, "id", getattr(sub.func, "attr", None)) in names
        for sub in ast.walk(node)
    )


def test_only_choices_words_or_guards_a_result_past_float_range():
    # one refusal for a result that leaves float range: _choices words it
    # (past_float_range) and guards it (in_float_range). No other module
    # writes the wording, builds a ValueError about float range by hand,
    # defines a helper of its own, or tests finiteness inline before
    # raising past_float_range.
    found = []
    for path in sorted(Path(pseudoflow.__file__).parent.glob("*.py")):
        if path.name == "_choices.py":
            continue
        source = path.read_text()
        if "is past float range" in source:
            found.append(f"{path.name}: the wording")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and "float_range" in node.name:
                found.append(f"{path.name}: def {node.name}")
            if isinstance(node, ast.Raise) and _calls(node, {"ValueError"}) and any(
                isinstance(c, ast.Constant) and "float range" in str(c.value) for c in ast.walk(node)
            ):
                found.append(f"{path.name}:{node.lineno}: a ValueError about float range")
            if isinstance(node, ast.If) and _calls(node.test, {"isfinite", "isinf"}) and any(
                isinstance(sub, ast.Raise) and _calls(sub, {"past_float_range"})
                for stmt in node.body for sub in ast.walk(stmt)
            ):
                found.append(f"{path.name}:{node.lineno}: an inline finiteness refusal")
    assert found == []


def test_every_checked_argument_is_computed_with_as_require_returns_it():
    # require returns a checked number as the float, complex or int the
    # package computes with; a call whose result is dropped leaves the
    # arithmetic to the caller's own type (a wrapping numpy int, say)
    found = []
    for path in sorted(Path(pseudoflow.__file__).parent.glob("*.py")):
        if path.name == "_choices.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            call = node.value if isinstance(node, ast.Expr) else None
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "require":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _power_of_two(node) -> bool:
    """Whether node is a constant power of two other than 1, or 2 ** k."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return isinstance(node.left, ast.Constant) and node.left.value == 2
    value = getattr(node, "value", None) if isinstance(node, ast.Constant) else None
    return type(value) in (int, float) and value not in (0, 1) and math.frexp(abs(value))[0] == 0.5


def test_only_the_homogeneous_helper_scales_a_fields_data():
    # every field route commutes with 2^e, and one helper scales its data
    # (transforms._homogeneous, through _ldexp): no other code calls ldexp,
    # or multiplies or divides a field's .values by a power of two, as the
    # per-route 2^-8 retries did
    found = []
    for path in sorted(Path(pseudoflow.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.name == "transforms.py" and getattr(top, "name", None) in {"_homogeneous", "_ldexp"}:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "ldexp" in ast.unparse(node.func):
                    found.append(f"{path.name}:{node.lineno}: ldexp")
                if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
                    for data, factor in ((node.left, node.right), (node.right, node.left)):
                        if _power_of_two(factor) and any(
                            isinstance(sub, ast.Attribute) and sub.attr == "values" for sub in ast.walk(data)
                        ):
                            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
