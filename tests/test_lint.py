"""Source checks that keep lomlab's zero tests in ``numeric``.

Every SVD goes through ``numeric.svd`` (which retries where LAPACK's
``gesdd`` fails), no pseudo-inverse bypasses it, and every cutoff is taken by
a ``Tolerance`` method, so a reader learns when lomlab calls a number zero
from one class; every input is checked to be finite in ``numeric``, whose
``as_stack`` reads every matrix stack; every kernel is cut in one place,
``numeric.nullspace_of``, and every span is complemented in one place,
``numeric.orthonormal_rows``, and an algebra's orthonormal span is factored in
one place, ``engine.MatrixAlgebra``.
An algebra's commutant is computed in ``engine`` only, by the transitivity
certificate, and read off its report everywhere else; no module builds a
Kronecker stack.  Every error class is raised somewhere.  The CLI turns a bad
instance field into a ``ParseError`` in one guard, ``cli._malformed``.
``scipy`` and ``mpmath`` are imported only inside the functions that call them,
never at module level, and every imported name, in the tests too, is read or
exported.  No function takes a private (underscore) parameter, and a frozen
dataclass with a field that may hold an ``np.ndarray`` compares by identity
(``eq=False``).
"""

import ast
import builtins
from pathlib import Path

from lomlab import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "lomlab"
TESTS = Path(__file__).resolve().parent


def dotted(node):
    """``np.linalg.svd`` for the expression node of that name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def nodes(tree, function=None):
    """Yield ``(enclosing function name, node)`` for every node in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from nodes(node, node.name)
            continue
        yield function, node
        yield from nodes(node, function)


def calls(tree):
    """Yield ``(enclosing function name, call node)`` for every call in ``tree``."""
    return ((function, node) for function, node in nodes(tree) if isinstance(node, ast.Call))


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


def test_finiteness_is_checked_only_in_numeric():
    # as_matrix, as_vector and as_stack copy and check an input once; a module that
    # tests np.isfinite itself is a second copy of that rule
    offenders = [
        f"{name}:{call.lineno} in {function}"
        for name, tree in modules() if name != "numeric.py"
        for function, call in calls(tree)
        if dotted(call.func).split(".")[-1] == "isfinite"
    ]
    assert not offenders, offenders


def test_kernel_is_cut_only_in_nullspace_of():
    # a slice that starts at a rank count, like vt[tol.rank(s):], keeps the kernel rows of
    # an SVD factor; numeric.nullspace_of is the one helper that takes it
    offenders = [
        f"{name}:{node.lineno} in {function}"
        for name, tree in modules()
        for function, node in nodes(tree)
        if isinstance(node, ast.Slice) and isinstance(node.lower, ast.Call)
        and isinstance(node.lower.func, ast.Attribute) and node.lower.func.attr == "rank"
        and (name, function) != ("numeric.py", "nullspace_of")
    ]
    assert not offenders, offenders


def test_span_is_complemented_only_in_orthonormal_rows():
    # a `for _ in range(2)` loop is the two-pass projection off a span; the closure
    # and the greedy pick take it from orthonormal_rows(m, tol, against=span)
    offenders = [
        f"{name}:{node.lineno} in {function}"
        for name, tree in modules()
        for function, node in nodes(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
        and dotted(node.iter.func) == "range"
        and [getattr(arg, "value", None) for arg in node.iter.args] == [2]
        and (name, function) != ("numeric.py", "orthonormal_rows")
    ]
    assert not offenders, offenders


def test_algebra_span_is_factored_only_in_matrix_algebra():
    # MatrixAlgebra.span is the algebra's orthonormal span: generate_algebra hands over the
    # rows it built and an explicit basis factors it once; orthonormal_rows(vec_basis())
    # anywhere else would factor it again
    offenders = []
    for name, tree in modules():
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "MatrixAlgebra"
                  for node in ast.walk(cls)}
        offenders += [
            f"{name}:{call.lineno} in {function}"
            for function, call in calls(tree)
            if dotted(call.func).split(".")[-1] == "orthonormal_rows" and id(call) not in inside
            and any(isinstance(node, ast.Call) and dotted(node.func).split(".")[-1] == "vec_basis"
                    for node in ast.walk(call))
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


def test_no_kronecker_stack_is_built():
    # commutants are spun on vectors in R^n; a kron call would bring back an
    # n^2 x n^2 system
    offenders = [
        f"{name}:{call.lineno} in {function}"
        for name, tree in modules()
        for function, call in calls(tree)
        if dotted(call.func).split(".")[-1] == "kron"
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


def test_cli_catches_field_errors_only_in_its_parse_guard():
    # a handler that catches KeyError, TypeError or ValueError (or a builtin sub- or
    # superclass of one) outside cli._malformed would be a second parse policy
    field_errors = (KeyError, TypeError, ValueError)
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    offenders = []
    for function, node in nodes(tree):
        if not isinstance(node, ast.ExceptHandler) or function == "_malformed":
            continue
        if node.type is None:
            caught = [BaseException]
        else:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught = [getattr(builtins, dotted(n), None) for n in names]
        if any(isinstance(cls, type) and (issubclass(cls, field_errors)
                                          or any(issubclass(e, cls) for e in field_errors))
               for cls in caught):
            offenders.append(f"cli.py:{node.lineno} in {function}")
    assert not offenders, offenders


def test_scipy_and_mpmath_are_imported_only_where_called():
    # importing either at module level costs most of a cold start, and no
    # corpus instance reaches the three functions that call them
    deferred = ("scipy", "mpmath")
    importers = set()
    for name, tree in modules():
        for function, node in nodes(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module or ""]
            else:
                continue
            if any(target.split(".")[0] in deferred for target in targets):
                importers.add((name, function))
    assert importers == {("engine.py", "riesz_projection"), ("numeric.py", "svd"),
                         ("ranges.py", "_floor_power_of")}, importers


def test_every_import_is_used_or_exported():
    # a name imported into a module is read in it or listed in its __all__; a line
    # marked `# noqa: F401` keeps a binding that only something outside reads.  The
    # test modules are held to it too.
    offenders = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        name = f"{path.parent.name}/{path.name}"
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and bound not in exported \
                        and "# noqa: F401" not in lines[alias.lineno - 1]:
                    offenders.append(f"{name}:{alias.lineno} imports {bound}")
    assert not offenders, offenders


def test_no_function_takes_a_private_parameter():
    # a parameter named _x is private plumbing in a signature: callers see it, and a
    # fact one caller hands another belongs in the function that computes it
    offenders = [
        f"{name}:{node.lineno} {getattr(node, 'name', 'lambda')}({arg.arg}=)"
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        + [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
        if arg.arg.startswith("_")
    ]
    assert not offenders, offenders


def may_hold_an_array(annotation):
    """Whether a field annotation names ``np.ndarray``, or a bare ``tuple`` or ``list``,
    which does not say what its items are; ``tuple[int, int, str]`` says so."""
    subscripted = {id(node.value) for node in ast.walk(annotation)
                   if isinstance(node, ast.Subscript)}
    return any(dotted(part) == "np.ndarray"
               or (isinstance(part, ast.Name) and part.id in ("tuple", "list")
                   and id(part) not in subscripted)
               for part in ast.walk(annotation))


def test_array_holding_dataclasses_compare_by_identity():
    # a generated __eq__ compares an np.ndarray field with ==, whose array result has no
    # truth value, and the generated __hash__ hashes it: a frozen dataclass that may hold
    # one, directly or in a tuple or list, says eq=False, so == and hash are by identity
    offenders = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                if not (isinstance(deco, ast.Call) and dotted(deco.func) == "dataclass"):
                    continue
                options = {kw.arg: kw.value for kw in deco.keywords}
                frozen, eq = options.get("frozen"), options.get("eq")
                if not (isinstance(frozen, ast.Constant) and frozen.value is True) or (
                        isinstance(eq, ast.Constant) and eq.value is False):
                    continue
                if any(isinstance(field, ast.AnnAssign) and may_hold_an_array(field.annotation)
                       for field in node.body):
                    offenders.append(f"{name}:{node.lineno} {node.name}")
    assert not offenders, offenders
