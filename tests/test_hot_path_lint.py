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

The package starts threads at one place only, the engine's worker for
the second half of a split walk, and imports no pool: importing concurrent.futures adds a
few milliseconds to every cold start of the CLI.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "inforcer"
HOT = ("core.py", "engine.py", "backends.py", "registry.py")
BANNED = {"sum", "max", "min", "all", "any", "isfinite"}
ENGINE_BANNED = {"exp2", "power"}
POOLS = ("concurrent", "multiprocessing")


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


def pool_imports(source: str) -> list:
    """(line, module) for each import of a process or thread pool module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
            [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        found += [(node.lineno, name) for name in names if name.split(".")[0] in POOLS]
    return found


def thread_starts(source: str) -> list:
    """The line of each threading.Thread(...) call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "Thread" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "threading"]


def test_lint_sees_a_pool_and_a_thread():
    sample = ("import concurrent.futures\nfrom multiprocessing import Pool\nimport threading\n"
              "t = threading.Thread(target=f)\n")
    assert pool_imports(sample) == [(1, "concurrent.futures"), (2, "multiprocessing")]
    assert thread_starts(sample) == [4]


def test_no_pool_and_one_thread_start_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [(name, hit) for name, text in sources.items() for hit in pool_imports(text)] == []
    assert [(name, len(thread_starts(text))) for name, text in sources.items() if thread_starts(text)] == [
        ("engine.py", 1)]
