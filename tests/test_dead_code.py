"""Every top-level function and class and every non-dunder method of the
package has a reference somewhere in the project outside its own definition,
and one outside the tests and the package's re-exports; every parameter with
a default is set by some call; every name that a module of the package, the
tests, the demos or the scripts imports is used in that module.

A reference is a name, an attribute, an import alias, or a string constant
made of dotted identifiers (the bench tracer names the functions it wraps
in strings).  A member that shares its name with a used member elsewhere
passes unnoticed, so the names shared between members are pinned: a new one
fails until it is checked by hand.  Calls are matched by
the same names: ``C(...)`` is a call of ``C.__init__`` (for a dataclass, of
its generated ``__init__`` over the annotated fields).  The per-structure
cache attributes are touched by ``hermitian`` alone, the compiled
operator tables are applied by three functions only, and no module of the
package asks ``json`` for an indent.
"""

import ast
import math
from collections import Counter, defaultdict
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgelab"
SEARCHED = ("src", "tests", "demos", "bench")
# a member only the tests call is not used; a re-export is not a use either
OUTSIDE_TESTS = ("src", "demos", "bench", "scripts")
REEXPORTS = PACKAGE / "__init__.py"
IMPORT_CHECKED = (PACKAGE, ROOT / "tests", ROOT / "demos", ROOT / "scripts")
CACHE_ATTRIBUTES = ("_cache", "_misc_cache", "_lambda_cache")
# bare names a function, class or method shares with another member; each is
# checked by hand, since the reference guards cannot tell the two apart
SHARED_NAMES = {
    "dim", "form", "kernel_rank", "norm_sq", "numerators", "space", "sparse_rows", "wedge",
}


def definitions(tree):
    """(name, first line, last line) of the members the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.lineno, member.end_lineno


def referenced_names(tree):
    """(identifier, line) for every reference in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                for part in parts:
                    yield part, node.lineno


def searched_trees(tops=SEARCHED, skip=None):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != skip:
                yield path, ast.parse(path.read_text())


def unreferenced_members(tops=SEARCHED, skip=None):
    references = defaultdict(list)
    for path, tree in searched_trees(tops, skip):
        for name, line in referenced_names(tree):
            references[name].append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, first, last in definitions(ast.parse(path.read_text())):
            name = qualname.rsplit(".", 1)[-1]
            if not any(
                where != path or not first <= line <= last
                for where, line in references[name]
            ):
                unused.append(f"{path.name}:{qualname}")
    return unused


def _name(node):
    """The called or decorating name: ``f`` of ``f`` and of ``x.f``."""
    return getattr(node, "id", getattr(node, "attr", None))


def _defaulted(func, skip):
    """(parameter, positional index or None) for each parameter with a
    default; ``skip`` drops ``self``/``cls`` from the index."""
    args = func.args.posonlyargs + func.args.args
    for i in range(len(args) - len(func.args.defaults), len(args)):
        yield args[i].arg, i - skip
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def defaulted_parameters(tree):
    """(callee name, qualified name, parameter, positional index or None) for
    every parameter with a default.  ``__init__`` and the fields of a
    dataclass are called by the class name."""
    methods = set()
    for node in ast.walk(tree):  # breadth first: a class comes before its methods
        if isinstance(node, ast.ClassDef):
            if "dataclass" in {_name(d) for d in node.decorator_list}:
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        yield node.name, node.name, f.target.id, i
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    methods.add(member)
                    callee = node.name if member.name == "__init__" else member.name
                    static = "staticmethod" in {_name(d) for d in member.decorator_list}
                    for param, index in _defaulted(member, 0 if static else 1):
                        yield callee, f"{node.name}.{member.name}", param, index
        elif isinstance(node, ast.FunctionDef) and node not in methods:
            for param, index in _defaulted(node, 0):
                yield node.name, node.name, param, index


def set_parameters(tops=SEARCHED):
    """callee name -> [most positional arguments, keyword names] over every
    call in the trees under ``tops``; a starred argument fills every
    position, and ``**mapping`` shows up as the keyword None, which sets
    every keyword."""
    calls = defaultdict(lambda: [0, set()])
    for _, tree in searched_trees(tops):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                seen = calls[_name(node.func)]
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                seen[0] = max(seen[0], math.inf if starred else len(node.args))
                seen[1].update(kw.arg for kw in node.keywords)
    return calls


def unset_parameters(tops=SEARCHED):
    calls = set_parameters(tops)
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for callee, qualname, param, index in defaulted_parameters(ast.parse(path.read_text())):
            positional, keywords = calls.get(callee, (0, set()))
            by_position = index is not None and positional > index
            if not (by_position or param in keywords or None in keywords):
                unset.append(f"{path.name}:{qualname}({param})")
    return unset


def test_every_member_has_a_reference():
    assert unreferenced_members() == []


def test_every_member_is_used_outside_the_tests():
    assert unreferenced_members(OUTSIDE_TESTS, REEXPORTS) == []


def test_every_defaulted_parameter_is_set_somewhere():
    assert unset_parameters() == []


def test_no_defaulted_parameter_is_left_to_the_tests():
    """A defaulted parameter that no call outside the tests sets is a knob
    only the tests turn; none may remain."""
    assert unset_parameters(OUTSIDE_TESTS) == []


def unused_imports():
    """path:name for every name a module of the package, the tests, the demos
    or the scripts imports and never uses; the re-exports of ``__init__`` and
    ``from __future__`` are not checked, and neither is ``bench/``, whose
    set-up probe imports the package for its side effect."""
    unused = []
    for path in sorted(chain.from_iterable(top.rglob("*.py") for top in IMPORT_CHECKED)):
        if path == REEXPORTS:
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        where = path.relative_to(ROOT)
        unused += [f"{where}:{name}" for name in sorted(imported - used)]
    return unused


def test_every_imported_name_is_used():
    assert unused_imports() == []


def cache_attribute_uses():
    """module:line of every read or write of a cache attribute outside hermitian."""
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "hermitian.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in CACHE_ATTRIBUTES:
                uses.append(f"{path.name}:{node.lineno}")
    return uses


def test_only_hermitian_touches_the_per_structure_cache():
    assert cache_attribute_uses() == []


def callers_of(name):
    """module:function of every function of the package that calls ``name``."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and _name(node.func) == name
                for node in ast.walk(func)
            ):
                callers.add(f"{path.name}:{func.name}")
    return callers


def test_one_kernel_applies_each_compiled_table():
    """A compiled table is applied once by ``_apply_compiled``, as the
    product of (curly_j^2 + k) factors by ``_lagrange``, and row by row by
    P_k; no second loop over it grows elsewhere."""
    assert callers_of("_compiled") == {
        "hermitian.py:_apply_compiled", "hermitian.py:_lagrange", "lefschetz.py:p_k",
    }


def test_one_elimination_of_the_torsion_constraints_per_check():
    """The structural torsion rows are built by the admissible basis and by
    the lemma-5.5 kernel, each eliminating them once; the eq-7 span check
    works on the admissible basis it is given and never rebuilds them."""
    assert callers_of("_structural_rows") == {
        "tensor_maps.py:admissible_torsion_basis", "tensor_maps.py:van_kernel_dimension",
    }


def test_skew_endo_checks_only_the_matrices_that_enter():
    """A ``SkewEndo`` is built from a JSON payload, a campaign's generated
    matrix and the form of ``decompose``; the matrices the library builds
    itself stay plain rows and are not checked again."""
    assert callers_of("SkewEndo") == {
        "campaigns.py:run_prop_4_2", "cli.py:_cmd_decompose",
        "jsonio.py:skew_endo_from_dict",
    }


def test_tensor_maps_builds_fractions_only_in_its_value_readers():
    """A form-valued map works on integer rows over one denominator; the
    dense matrix and the largest entry are the only functions of
    ``tensor_maps`` that build ``Fraction``s, one per value read."""
    assert {c for c in callers_of("Fraction") if c.startswith("tensor_maps.py:")} == {
        "tensor_maps.py:matrix", "tensor_maps.py:max_entry",
    }


def data_members(tree):
    """The ``__slots__`` entries and dataclass fields of a module's classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            dataclass = "dataclass" in {_name(d) for d in node.decorator_list}
            for member in node.body:
                if isinstance(member, ast.Assign) and "__slots__" in map(_name, member.targets):
                    yield from ast.literal_eval(member.value)
                elif dataclass and isinstance(member, ast.AnnAssign):
                    yield member.target.id


def shared_names():
    """Bare names of the functions, classes and methods that share their name
    with another member: one of those, a ``__slots__`` entry or a field."""
    defined, data = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [qualname.rsplit(".", 1)[-1] for qualname, _, _ in definitions(tree)]
        data += data_members(tree)
    counts = Counter(defined + data)
    return {name for name in defined if counts[name] > 1}


def test_names_shared_between_members_are_the_checked_ones():
    assert shared_names() == SHARED_NAMES


def indented_json_calls():
    """module:line of every call of ``dump``, ``dumps`` or ``JSONEncoder`` in
    the package that passes ``indent``: given an indent, ``json`` runs its
    pure-Python encoder, and ``jsonio.dumps`` writes the same bytes faster."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and _name(node.func) in ("dump", "dumps", "JSONEncoder")
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                calls.append(f"{path.name}:{node.lineno}")
    return calls


def test_no_module_asks_json_for_an_indent():
    assert indented_json_calls() == []
