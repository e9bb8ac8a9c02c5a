"""Source checks that keep lomlab's zero tests in ``numeric``.

Every SVD goes through ``numeric.svd`` (which retries where LAPACK's
``gesdd`` fails), no pseudo-inverse bypasses it, and every cutoff is taken by
a ``Tolerance`` method, so a reader learns when lomlab calls a number zero
from one class.  An algebra's commutant is computed in ``engine`` only, by the
transitivity certificate, and read off its report everywhere else.  Every
error class is raised somewhere.
"""

import ast
from pathlib import Path

from lomlab import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "lomlab"


def dotted(node):
    """``np.linalg.svd`` for the expression node of that name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def calls(tree, function=None):
    """Yield ``(enclosing function name, call node)`` for every call in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls(node, node.name)
            continue
        if isinstance(node, ast.Call):
            yield function, node
        yield from calls(node, function)


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_svd_goes_through_numeric_svd():
    offenders = []
    for name, tree in modules():
        for function, call in calls(tree):
            if dotted(call.func).endswith("linalg.svd") \
                    and (name, function) != ("numeric.py", "svd"):
                offenders.append(f"{name}:{call.lineno} in {function}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") \
                    and any(alias.name == "svd" for alias in node.names):
                offenders.append(f"{name}:{node.lineno} imports svd from {node.module}")
    assert not offenders, offenders


def test_cutoff_is_taken_only_in_numeric():
    offenders = [
        f"{name}:{call.lineno}"
        for name, tree in modules() if name != "numeric.py"
        for _, call in calls(tree)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "cutoff"
    ]
    assert not offenders, offenders


def test_pinv_is_not_called_outside_numeric():
    # numpy's pinv runs its own SVD, outside numeric.svd's retry and Tolerance.rank.
    offenders = [
        f"{name}:{call.lineno} in {function}"
        for name, tree in modules() if name != "numeric.py"
        for function, call in calls(tree)
        if dotted(call.func).endswith("linalg.pinv")
    ]
    assert not offenders, offenders


def test_commutant_is_computed_only_in_engine():
    # the bindings other modules keep for the benchmark tracer are imports, not calls
    offenders = [
        f"{name}:{call.lineno} in {function}"
        for name, tree in modules() if name != "engine.py"
        for function, call in calls(tree)
        if dotted(call.func).split(".")[-1] == "commutant"
    ]
    assert not offenders, offenders


def test_every_error_class_is_raised():
    raised = {
        dotted(node.exc.func if isinstance(node.exc, ast.Call) else node.exc).split(".")[-1]
        for name, tree in modules() if name != "errors.py"
        for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None
    }
    unraised = [cls for cls in errors.__all__ if cls != "LomlabError" and cls not in raised]
    assert not unraised, unraised
