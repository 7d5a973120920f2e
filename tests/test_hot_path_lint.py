"""The per-call paths reduce through the ufuncs themselves.

np.sum, np.max, np.min, np.all and np.any wrap np.add.reduce,
np.maximum.reduce, np.minimum.reduce and the ndarray methods .all() and
.any() in a few microseconds of Python dispatch each, which is most of
a small-n call. Finiteness is judged by min and max on vectors and by
math.isfinite on Python floats, so np.isfinite has no use there either.

The engine takes no exp2 or power itself: every per-entry exp2 runs in
a kernel it reaches through backends.active_kernels(), which a tracer
swaps to time each kernel (perfbench/tracing.py reports them under
backends.*).
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "inforcer"
HOT = ("core.py", "engine.py", "backends.py", "registry.py")
BANNED = {"sum", "max", "min", "all", "any", "isfinite"}
ENGINE_BANNED = {"exp2", "power"}


def banned_calls(source: str, banned=BANNED) -> list:
    """(line, "np.name") for each call of a banned numpy function."""
    found = []

    def visit(node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and node.func.attr in banned
        ):
            found.append((node.lineno, f"np.{node.func.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_lint_sees_a_banned_call():
    sample = "def f(x):\n    return np.sum(x)\n\ndef _ref_g(x):\n    return np.max(x)\n"
    assert banned_calls(sample) == [(2, "np.sum"), (5, "np.max")]


@pytest.mark.parametrize("name", HOT)
def test_no_wrapped_reductions_on_hot_paths(name):
    assert banned_calls((SRC / name).read_text()) == []


def test_lint_sees_an_exp2_or_power():
    sample = "t = np.exp2(x)\nu = numpy.power(x, 2)\nv = np.exp2.reduce(x)\n"
    assert banned_calls(sample, ENGINE_BANNED) == [(1, "np.exp2"), (2, "np.power")]


def test_engine_takes_every_exp2_and_power_through_the_kernels():
    assert banned_calls((SRC / "engine.py").read_text(), ENGINE_BANNED) == []
