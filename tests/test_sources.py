"""Static checks over the hopfex sources."""

import ast
import pathlib

import pytest

import hopfex.errors
import hopfex.scalars

SRC = pathlib.Path(hopfex.errors.__file__).parent
ERROR_CLASSES = {name for name, v in vars(hopfex.errors).items()
                 if isinstance(v, type) and issubclass(v, Exception)}


def module_bindings(tree):
    """Names bound at module level: imports, defs, classes, assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def error_names_used(tree):
    """(name, line) of every hopfex.errors class raised or caught by bare name.

    Other names (a local variable such as structfile's cls) are not
    error classes and are left out.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found = [exc]
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            found = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
        else:
            continue
        for n in found:
            if isinstance(n, ast.Name) and n.id in ERROR_CLASSES:
                yield n.id, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_raised_and_caught_errors_are_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = module_bindings(tree)
    missing = [f"{path.name}:{line} {name}"
               for name, line in error_names_used(tree) if name not in bound]
    assert not missing, "error classes used but never imported: " + ", ".join(missing)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts; the modules check invariants with require()
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}; use require()"


def code_runner_calls(node, func=None):
    """(innermost enclosing function, name) of every call of exec, eval
    or compile by bare name under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from code_runner_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                and child.func.id in ("exec", "eval", "compile"):
            yield func, child.func.id
        yield from code_runner_calls(child, func)


def test_exec_runs_only_in_the_kernel_generator():
    # scalars._extension_kernels compiles the source it writes from the
    # ints of a reduction table; no other code of hopfex runs text
    sites = [(path.name, func, name) for path in sorted(SRC.glob("*.py"))
             for func, name in code_runner_calls(ast.parse(path.read_text()))]
    assert sites == [("scalars.py", "_extension_kernels", "exec")]


SCALAR_VECTOR_HELPERS = {"zero_vec", "unit_vec", "vec_add", "vec_sub",
                         "vec_scale", "vec_is_zero"}


def test_extension_runs_on_raw_vectors():
    # extension.py holds vectors and tensors as sparse raw dicts, so it
    # needs no Scalar-vector or Scalar-tensor helper of linalg
    tree = ast.parse((SRC / "extension.py").read_text())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    helpers = sorted(name for name in imported
                     if name in SCALAR_VECTOR_HELPERS or name.startswith("t2_"))
    assert not helpers, f"extension.py imports {helpers}"
    linalg = ast.parse((SRC / "linalg.py").read_text())
    defined = {node.name for node in linalg.body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"t2_add", "t2_sub", "t2_scale"}


def test_splitting_runs_on_raw_vectors():
    # the splitting of algebra.py takes and returns sparse raw vectors, so
    # it needs no Scalar-vector helper and no boxed elimination, and the
    # boxed linear combination that served it is gone from linalg
    tree = ast.parse((SRC / "algebra.py").read_text())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & {"combine", "rref_rows", "vec_add", "vec_sub",
                           "vec_is_zero", "zero_vec"}
    linalg = ast.parse((SRC / "linalg.py").read_text())
    defined = {node.name for node in linalg.body
               if isinstance(node, ast.FunctionDef)}
    assert "combine" not in defined


def called_names(node):
    """The names of the functions and methods called inside node."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def method(tree, cls, name):
    owner = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(node for node in owner.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def unboxed_views(tree):
    """(line, view) of every unit, counit or grouplike view passed to
    read_vector or _box inside tree."""
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(
                call.func, (ast.Name, ast.Attribute)) and (
                getattr(call.func, "id", None) or call.func.attr) in {
                "read_vector", "_box"}:
            for arg in call.args:
                if isinstance(arg, ast.Attribute) and arg.attr in {
                        "unit", "counit", "grouplike"}:
                    yield call.lineno, arg.attr


def class_members(tree, cls):
    """(methods, attributes): the names def'd in class cls and the
    attributes its methods assign on self."""
    owner = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    methods = {node.name for node in owner.body
               if isinstance(node, ast.FunctionDef)}
    attributes = {t.attr for node in ast.walk(owner)
                  if isinstance(node, ast.Assign)
                  for target in node.targets for t in ast.walk(target)
                  if isinstance(t, ast.Attribute)
                  and isinstance(t.value, ast.Name) and t.value.id == "self"}
    return methods, attributes


def test_structure_tables_reach_of_raw_unboxed():
    # the builders hand raw tables to of_raw: none reads the boxed
    # product table or boxes constants only to have them unboxed again
    zoo = ast.parse((SRC / "zoo.py").read_text())
    assert "scalar_constants" not in called_names(zoo)
    # a quotient or subalgebra takes its unit from the parent's raw one,
    # and the one projection of a quotient is raw: nothing boxes
    algebra = ast.parse((SRC / "algebra.py").read_text())
    assert "box" not in called_names(method(algebra, "QuotientMap", "project"))
    for path, cls, name in (("algebra.py", "QuotientMap", "__init__"),
                            ("algebra.py", "SubalgebraMap", "__init__"),
                            ("extension.py", "_Grower", "adjoin")):
        tree = ast.parse((SRC / path).read_text())
        called = called_names(method(tree, cls, name))
        assert "box" not in called, (cls, name)
    coalgebra = ast.parse((SRC / "coalgebra.py").read_text())
    imported = {a.name for node in ast.walk(coalgebra)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "t2_add_term" not in imported
    # the unit, the counit and the group-likes are read raw: no module
    # unboxes their views, and the second raw copy of the counit is gone
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not list(unboxed_views(tree)), path.name
        assert "_eps" not in {node.name for node in ast.walk(tree)
                              if isinstance(node, ast.FunctionDef)}, path.name
    # no private method of Coalgebra is named as another member less its
    # underscore, as _counit_raw(pairs) once was beside counit_raw (a
    # private attribute caching the view of the same name is the one
    # pattern allowed)
    methods, attributes = class_members(coalgebra, "Coalgebra")
    clashes = sorted(m for m in methods if m.startswith("_")
                     and m[1:] in methods | attributes)
    assert not clashes


def test_structure_files_run_on_raw_values():
    # the text edge reads, builds and writes raw values: structfile boxes
    # nothing, no text reaches Fraction outside scalars.parse_rational,
    # and the boxed copies of the tables and of the subspace operations
    # are gone
    structfile = ast.parse((SRC / "structfile.py").read_text())
    assert not called_names(structfile) & {"box", "parse", "format",
                                           "as_scalar", "Scalar"}
    for path in ("cli.py", "structfile.py"):
        assert "Fraction" not in called_names(
            ast.parse((SRC / path).read_text())), path
    for path, gone in (("algebra.py", {"scalar_constants"}),
                       ("linalg.py", {"coords_of", "contains_vector"})):
        defined = {node.name for node in ast.walk(
            ast.parse((SRC / path).read_text()))
            if isinstance(node, ast.FunctionDef)}
        assert not defined & gone, path


def mat_constructions(node):
    """(line, name) of every Mat(...), Mat.identity(...) and
    Mat.from_columns(...) call inside node."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if isinstance(f, ast.Name) and f.id == "Mat":
            yield call.lineno, "Mat"
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and f.value.id == "Mat"):
            yield call.lineno, f"Mat.{f.attr}"


def test_matrices_over_h_run_on_raw_values():
    # matforms boxes only through the entries view and the returned
    # remainder, and builds a Mat only where counit() returns one
    tree = ast.parse((SRC / "matforms.py").read_text())
    called = called_names(tree)
    assert not called & {"box", "combine", "zero_vec", "vec_add",
                         "solve_columns"}
    counit = method(tree, "MatrixOverH", "counit")
    inside = set(mat_constructions(counit))
    assert inside and set(mat_constructions(tree)) == inside
    # the Scalar solvers and tensor helpers live in the tests
    for path in SRC.glob("*.py"):
        defined = {node.name for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.FunctionDef)}
        assert not defined & {"solve", "solve_columns", "vec_dot",
                              "t2_add_term"}, path.name
    # extend_coalgebra hands its witness grids to MatrixOverH.of_raw
    extension = ast.parse((SRC / "extension.py").read_text())
    extend = next(node for node in extension.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "extend_coalgebra")
    loop = next(node for node in ast.walk(extend) if isinstance(node, ast.For)
                and isinstance(node.iter, ast.Attribute)
                and node.iter.attr == "grids")
    assert "_box" not in called_names(loop)


def test_one_polynomial_derivative():
    # the squarefree test of the exponent search reads mu' from poly, the
    # one polynomial toolkit; no other module differentiates on its own
    for path in SRC.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        derivatives = sorted(n for n in defined if "deriv" in n.lower())
        if path.name == "poly.py":
            assert derivatives == ["derivative"]
        else:
            assert not derivatives, (path.name, derivatives)
    hopf = ast.parse((SRC / "hopf.py").read_text())
    assert "has_repeated_factor" in called_names(method(hopf, "HopfAlgebra",
                                                        "exponent"))


CROSSING_CALLS = {"box", "box_sparse", "Scalar", "read_vector"}

# The functions outside scalars.py that turn raw values into Scalars, or
# Scalars into raw values: the views boxed at their first read and the
# public entry points that take or return vectors of Scalars.  Everything
# else hands raw values on, so a new crossing is a new line here.
CROSSINGS = {
    ("algebra.py", "FiniteAlgebra.unit"),
    ("algebra.py", "FiniteAlgebra.mult"),
    ("algebra.py", "FiniteAlgebra.left_mult_mat"),
    ("algebra.py", "FiniteAlgebra._mult_mat"),
    ("algebra.py", "FiniteAlgebra.power"),
    ("algebra.py", "FiniteAlgebra.left_traces"),
    ("coalgebra.py", "Element.__init__"),
    ("coalgebra.py", "Element.vec"),
    ("coalgebra.py", "Element.delta"),
    ("coalgebra.py", "Element.eps"),
    ("coalgebra.py", "Coalgebra.comul"),
    ("coalgebra.py", "Coalgebra.counit"),
    ("coalgebra.py", "Coalgebra.format_element"),
    ("coalgebra.py", "IdempotentFamily.functionals"),
    ("extension.py", "DeltaExpansion.middle"),
    ("hopf.py", "HopfAlgebra.antipode_vec"),
    ("hopf.py", "HopfAlgebra._columns"),
    ("hopf.py", "HopfAlgebra.hopf_power"),
    ("linalg.py", "Mat.identity"),
    ("linalg.py", "rref_rows"),
    ("linalg.py", "SubspaceBasis.__init__"),
    ("linalg.py", "SubspaceBasis.rows"),
    ("matforms.py", "MatrixOverH.entries"),
    ("matforms.py", "MatrixOverH.counit"),
}


def crossing_functions(node, prefix=""):
    """The qualified names of the functions under node that call one of
    CROSSING_CALLS by name or as an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from crossing_functions(child, prefix + child.name + ".")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if called_names(child) & CROSSING_CALLS:
                yield prefix + child.name


def test_scalars_cross_only_at_the_views_and_the_boxed_entry_points():
    found = {(path.name, name) for path in SRC.glob("*.py")
             if path.name != "scalars.py"
             for name in crossing_functions(ast.parse(path.read_text()))}
    assert found == CROSSINGS
    # the helpers that boxed a raw result for the next routine to unbox,
    # the coercions that FieldSpec.raw and read_vector replaced, and the
    # dense elimination that rref_sparse replaced are gone
    for path in SRC.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)}
        assert not defined & {"_box", "as_scalar", "lift_functional",
                              "_pairs", "raw_values", "nonzero_raw",
                              "as_raw", "rref_raw"}, path.name


def qualified_functions(node, prefix=""):
    """(qualified name, function node) of every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from qualified_functions(child, prefix + child.name + ".")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from qualified_functions(child, prefix + child.name + ".")


def own_nodes(func):
    """The nodes of func outside the functions nested in it."""
    for child in ast.iter_child_nodes(func):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from own_nodes(child)


def is_accumulate(node) -> bool:
    """Whether node is acc[k] = add(acc[k], y) if k in acc else y."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.IfExp)):
        return False
    target, value = node.targets[0], node.value
    acc, key = ast.dump(target.value), ast.dump(target.slice)
    test, body = value.test, value.body
    return (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.In)
            and ast.dump(test.left) == key
            and ast.dump(test.comparators[0]) == acc
            and isinstance(body, ast.Call) and len(body.args) == 2
            and isinstance(body.args[0], ast.Subscript)
            and ast.dump(body.args[0].value) == acc
            and ast.dump(body.args[0].slice) == key
            and ast.dump(body.args[1]) == ast.dump(value.orelse))


def is_settled_reduce(node) -> bool:
    """Whether node is a call of settle on a functools.reduce(...)."""
    def named(call, name):
        return isinstance(call, ast.Call) and name in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))

    return named(node, "settle") and any(named(a, "reduce") for a in node.args)


# The functions that may sum lifted products by hand: the two linear
# kernels, the bilinear and multi-output ones, the membership rebuild and
# the one sum of raw values.  Every other linear map is a combination or
# a dot.
HAND_WRITTEN_SUMS = {
    ("scalars.py", "combination"),
    ("scalars.py", "dot"),
    ("algebra.py", "FiniteAlgebra._lifted_product"),
    ("algebra.py", "FiniteAlgebra._basis_products"),
    ("algebra.py", "FiniteAlgebra._tensor_product"),
    ("algebra.py", "FiniteAlgebra._lifted_traces"),
    ("algebra.py", "FiniteAlgebra._trace_form"),
    ("algebra.py", "FiniteAlgebra.center"),
    ("coalgebra.py", "Coalgebra._hit"),
    ("hopf.py", "HopfAlgebra._convolve"),
    ("hopf.py", "HopfAlgebra.integral_dual_basis"),
    ("linalg.py", "SubspaceBasis.contains_raw"),
}


def test_linear_sums_run_on_combination_and_dot():
    accumulates, reduces = [], []
    for path in sorted(SRC.glob("*.py")):
        for name, func in qualified_functions(ast.parse(path.read_text())):
            for node in own_nodes(func):
                if is_accumulate(node):
                    accumulates.append((path.name, name))
                if is_settled_reduce(node):
                    reduces.append((path.name, name))
    outside = sorted(set(accumulates) - HAND_WRITTEN_SUMS)
    assert not outside, f"hand-written lifted sums outside the kernels: {outside}"
    assert len(accumulates) <= 12, accumulates
    assert reduces == [("scalars.py", "dot")]
    # lift_pairs is the one lift
    assert "lift" not in hopfex.scalars.FieldOps.__slots__
