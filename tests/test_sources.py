"""Source-level checks that need no import of the code they read."""

import ast
from pathlib import Path

import qrsgame

# The oldest Python that pyproject.toml's requires-python and the CI matrix
# admit.
OLDEST_PYTHON = (3, 10)


def test_package_parses_on_oldest_python():
    """Syntax newer than 3.10 (except*, type statements, PEP 695 generics)
    would break the package there even though every test here passes."""
    paths = sorted(Path(qrsgame.__file__).parent.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)


def _bound_names(statement):
    # The names a module-level statement defines.
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def _read_names(statement):
    # Every name and attribute a statement reads, at any depth.
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_name_is_used():
    """A module-level private name that nothing else in the package reads
    is a walk, form or constant that a change left behind. A reference is
    a name or attribute read anywhere in src/qrsgame outside the statement
    that defines the name; importing it is not a reference."""
    private, used = set(), set()
    for path in sorted(Path(qrsgame.__file__).parent.rglob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            own = _bound_names(statement)
            private |= {name for name in own if name.startswith("_") and not name.startswith("__")}
            used |= _read_names(statement) - own
    assert len(private) >= 40
    assert sorted(private - used) == []


# Public names that stay although nothing in the package or the bench reads
# them and __all__ does not export them, each with its reason.
_UNREACHED_PUBLIC = {
    # The writer of the CLI's --ensemble format, which load_ensemble reads.
    "save_ensemble",
}


def _bench_reads():
    # Every name, attribute and string constant in bench/*.py: the tracer
    # names the functions it wraps as strings.
    paths = sorted((Path(qrsgame.__file__).parents[2] / "bench").glob("*.py"))
    assert paths
    reads = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        reads |= _read_names(tree)
        reads |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return reads


def test_every_public_name_is_reached():
    """A module-level public name in src/qrsgame is exported in
    qrsgame.__all__, read elsewhere in src/qrsgame (outside the statement
    that defines it; importing it is not a read), read in bench/*.py, or
    on _UNREACHED_PUBLIC with its reason. Anything else is a generality
    that nothing constructs, kept with its checks, messages and docs."""
    public, used = set(), set()
    for path in sorted(Path(qrsgame.__file__).parent.rglob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            own = _bound_names(statement)
            public |= {name for name in own if not name.startswith("_")}
            used |= _read_names(statement) - own
    assert len(public) >= 80
    reached = used | set(qrsgame.__all__) | _bench_reads()
    assert sorted(public - reached - _UNREACHED_PUBLIC) == []
    assert sorted(_UNREACHED_PUBLIC - public) == []
    assert sorted(_UNREACHED_PUBLIC & reached) == []


def test_one_stream_rule():
    """Every random stream comes from game._substream: `SeedSequence(`
    appears in src/qrsgame only inside that one function, so a sampler
    cannot seed its draws by a rule of its own."""
    found = []
    for path in sorted(Path(qrsgame.__file__).parent.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        spans = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(ast.parse(source, str(path)))
            if isinstance(node, ast.FunctionDef) and node.name == "_substream"
        ]
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "SeedSequence(" in line:
                found.append((path.name, lineno, any(a <= lineno <= b for a, b in spans)))
    assert found and all(inside for _, _, inside in found), found


# Functions other than qmath._as_numbers that convert an argument with a
# dtype, each with its reason.
_OTHER_CONVERSIONS = {
    # Rates that check_nonnegative passed, or the calibration's grid of them.
    ("states.py", "_top_eigenvalues"),
    # A JSON record: its own messages show the record, and the CLI tests pin them.
    ("states.py", "ensemble_from_dict"),
}


def _root(node):
    # The name an expression such as rec["n"] or a.b reads from, if any.
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_one_number_rule():
    """Every array a caller hands the package is converted by qmath._as_numbers,
    which owns the number rule and its message: no other function in
    src/qrsgame passes one of its arguments, or a name that a loop or a
    comprehension draws from one, to np.asarray or np.array, with a dtype
    or without one, except the functions on _OTHER_CONVERSIONS."""
    found = set()
    for path in sorted(Path(qrsgame.__file__).parent.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            arguments = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
            for node in ast.walk(fn):
                if (isinstance(node, (ast.For, ast.comprehension))
                        and {_root(n) for n in ast.walk(node.iter)} & arguments):
                    arguments |= {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
            found |= {(path.name, fn.name) for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("asarray", "array") and node.args
                      and _root(node.args[0]) in arguments}
    assert sorted(found - {("qmath.py", "_as_numbers")}) == sorted(_OTHER_CONVERSIONS)


# The package's modules in import order: each may import only those before it.
_LAYERS = ("qmath", "states", "game", "witness", "cli")


def _package_imports(node):
    # The package modules an import statement names ("" for the package itself).
    if isinstance(node, ast.Import):
        return [a.name.partition(".")[2] for a in node.names if a.name.split(".")[0] == "qrsgame"]
    if node.level == 0 and (node.module or "").split(".")[0] != "qrsgame":
        return []
    module = (node.module or "").partition(".")[2] if node.level == 0 else node.module
    return [module] if module else [a.name for a in node.names]


def test_imports_form_one_chain():
    """Every import in src/qrsgame is a module-level statement, and a
    module imports from the package only the modules before it in
    _LAYERS, so the imports form the chain qmath -> states -> game ->
    witness -> cli, with no cycle and no import deferred into a function.
    __init__ re-exports the public names and is exempt."""
    checked, found = set(), []
    for path in sorted(Path(qrsgame.__file__).parent.rglob("*.py")):
        if path.stem == "__init__":
            continue
        checked.add(path.stem)
        earlier = _LAYERS[:_LAYERS.index(path.stem)]
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if node not in tree.body:
                    found.append((path.name, node.lineno, "not at module level"))
                found += [(path.name, node.lineno, f"imports {name or 'qrsgame'}")
                          for name in _package_imports(node) if name not in earlier]
    assert checked == set(_LAYERS)
    assert found == []


def test_every_dataclass_is_frozen():
    """Every @dataclass in src/qrsgame says frozen=True, so no checked or
    compiled field can be reassigned after __post_init__ has passed it."""
    found = []
    for path in sorted(Path(qrsgame.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            for deco in node.decorator_list if isinstance(node, ast.ClassDef) else ():
                target = deco.func if isinstance(deco, ast.Call) else deco
                if isinstance(target, ast.Name) and target.id == "dataclass":
                    keywords = deco.keywords if isinstance(deco, ast.Call) else []
                    frozen = any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                                 and k.value.value is True for k in keywords)
                    found.append((path.name, node.name, frozen))
    assert len(found) >= 12
    assert [f for f in found if not f[2]] == []


_NUMPY_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def test_one_eigenvalue_routine():
    """numpy's eigensolver appears in src/qrsgame only inside
    qmath.eig_hermitian, and eig_hermitian is read only in
    is_density_matrix, for a failing check's message. Positivity is decided
    by Cholesky pivots and the witness's top eigenvalue by its closed form,
    so nothing else needs a solver."""
    solver, users = [], []
    for path in sorted(Path(qrsgame.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

        def owner(node):
            # The innermost function whose lines hold the node, or None at module level.
            spans = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            return max(spans, key=lambda f: f.lineno).name if spans else None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in _NUMPY_EIGENSOLVERS:
                solver.append((path.name, owner(node)))
            elif isinstance(node, ast.ImportFrom) and node.module and "linalg" in node.module:
                solver += [(path.name, f"import {alias.name}") for alias in node.names
                           if alias.name in _NUMPY_EIGENSOLVERS]
            elif (isinstance(node, ast.Name) and node.id == "eig_hermitian"
                  or isinstance(node, ast.Attribute) and node.attr == "eig_hermitian"):
                users.append((path.name, owner(node)))
    assert solver == [("qmath.py", "eig_hermitian")]
    assert users == [("qmath.py", "is_density_matrix")]


# Where a frozen value may be written: its own constructor, the count-table
# builder that skips a second check, and the honest click memo, keyed by the
# ensemble it was computed for.
_FROZEN_WRITERS = {("game.py", "CountTable", "_of_checked"), ("game.py", None, "_honest_clicks")}


def test_frozen_values_are_written_while_built():
    """`object.__setattr__` appears in src/qrsgame only inside `__init__`,
    `__post_init__`, CountTable._of_checked and game._honest_clicks, the one
    keyed memo. A value computed later on a frozen object is a
    functools.cached_property or a field set while it is built, never a
    write from another method."""
    found = []
    for path in sorted(Path(qrsgame.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        scopes = [(cls.name if isinstance(cls, ast.ClassDef) else None, fn)
                  for cls in ast.walk(tree)
                  if isinstance(cls, (ast.Module, ast.ClassDef))
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                owners = [(cls, fn.name) for cls, fn in scopes
                          if fn.lineno <= node.lineno <= fn.end_lineno]
                found.append((path.name, *(owners[0] if owners else (None, None))))
    assert len(found) >= 20
    assert {f for f in found if f[2] not in ("__init__", "__post_init__")} == _FROZEN_WRITERS
