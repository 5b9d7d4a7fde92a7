import ast
import importlib
import os
import pathlib
import subprocess
import sys

import twistcount

PACKAGE = pathlib.Path(twistcount.__file__).parent


def test_exported_names_resolve():
    # Every name in a module's __all__ exists, and every name the package
    # imports from its modules is one of that module's exports, so a
    # half-removed export fails here.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "twistcount" if path.stem == "__init__" else f"twistcount.{path.stem}"
        module = importlib.import_module(name)
        found += [
            f"{path.name}: {name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"twistcount.{node.module}").__all__
            found += [
                f"__init__.py: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in exported
            ]
    assert found == []


def test_no_bare_asserts_in_library():
    # python -O strips assert statements, so checks that guard a result
    # must raise explicitly.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _imports_oracles(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "twistcount.oracles" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = "." * node.level + (node.module or "")
    if module in ("twistcount.oracles", ".oracles"):
        return True
    return module in ("twistcount", ".") and any(a.name == "oracles" for a in node.names)


def test_no_library_module_imports_the_oracles():
    # twistcount.oracles holds the slow independent routines that the tests
    # check the library against; no library path may reach them.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "oracles.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _imports_oracles(node)
        ]
    assert found == []


def test_package_and_cli_leave_the_oracles_unloaded():
    code = (
        "import sys, twistcount, twistcount.cli; "
        "print('twistcount.oracles' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout == "False\n"


# Oracles that stay in exactalg because the benchmark (bench/workloads.py)
# calls them there; no other library module may call them.
ORACLES = {
    "hom_image_contains",
    "kernel_size_by_smith",
    "kernel_size_by_enumeration",
}


def test_oracles_stay_out_of_library_paths():
    # The slow or independent routines of exactalg check the library from
    # the tests and the benchmark; no other library module may call them.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exactalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            if name in ORACLES:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_branch_and_bound_is_the_only_vertex_permutation_search():
    # Canonical labels and shape automorphisms both come from the label
    # search; trying every permutation stays in the tests' oracles.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) == "permutations"
        ]
    assert found == []


def test_one_smith_elimination_loop():
    # smith_normal_form and smith_invariants share one elimination loop;
    # only that loop may search for pivots, so no second copy is forked.
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, _FUNCTIONS):
                continue
            if any(
                isinstance(node, ast.Call) and _name(node.func) == "_min_nonzero_position"
                for node in ast.walk(func)
            ):
                callers.append(f"{path.name}:{func.name}")
    assert callers == ["exactalg.py:_reduce"]


SMITH_ROUTINES = {"smith_normal_form", "smith_invariants", "_reduce", "_min_nonzero_position"}


def test_kernel_size_by_smith_stays_independent():
    # kernel_size_by_smith is the tests' check on the Smith reduction that
    # the library counts go through, so neither it nor any exactalg
    # function it calls may reach that reduction.
    tree = ast.parse((PACKAGE / "exactalg.py").read_text(encoding="utf-8"))
    calls = {
        func.name: {_name(node.func) for node in ast.walk(func) if isinstance(node, ast.Call)}
        for func in tree.body
        if isinstance(func, _FUNCTIONS)
    }
    assert SMITH_ROUTINES | {"kernel_size_by_smith"} <= calls.keys()
    reached, todo = set(), ["kernel_size_by_smith"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += calls[name] & calls.keys()
    assert reached & SMITH_ROUTINES == set()


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_library_caches_are_bounded():
    # Long sweeps must run in bounded memory, so every functools cache in
    # the library is an lru_cache whose maxsize is GRAPH_CACHE_SIZE.
    found, bounded = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for decorator in getattr(node, "decorator_list", []):
                if _name(decorator) in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{decorator.lineno} bare {_name(decorator)}")
            if not isinstance(node, ast.Call) or _name(node.func) not in ("lru_cache", "cache"):
                continue
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            where = f"{path.name}:{node.lineno}"
            if _name(node.func) == "lru_cache" and [_name(v) for v in sizes] == ["GRAPH_CACHE_SIZE"]:
                bounded.append(where)
            else:
                found.append(where)
    assert found == []
    assert bounded


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_no_self_referencing_nested_functions():
    # A nested function that calls itself holds itself through its closure
    # cell, so every call of the enclosing function leaves a reference cycle
    # that only the cyclic garbage collector frees.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer in ast.walk(tree):
            if not isinstance(outer, _FUNCTIONS):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, _FUNCTIONS):
                    continue
                names = (node.id for node in ast.walk(inner) if isinstance(node, ast.Name))
                if inner.name in names:
                    found.append(f"{path.name}:{inner.lineno} {inner.name}")
    assert found == []


PLAN_BUILDERS = {"canonical_form", "enumerate_stable_graphs"}


def test_label_plans_built_only_by_canonical_form_and_enumeration():
    # The enumeration builds one _LabelPlan per shape and hands it to
    # everything that reads the shape's parallel classes, automorphisms,
    # layouts or labels; canonical_form builds one per graph it labels.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, _FUNCTIONS) and func.name in PLAN_BUILDERS
            for node in ast.walk(func)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _name(node.func) == "_LabelPlan"
            and id(node) not in allowed
        ]
    assert found == []


_MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque",
}

# Module-level containers that are read-only tables of constants.
CONSTANT_TABLES = {
    # The generator of the reduced automorphism group of an elliptic curve,
    # per group order 2, 4 or 6: elliptic_torsion_orbits reads it and never
    # writes it.
    "orbits._TORSION_GENERATORS",
}


def test_no_module_level_mutable_containers():
    # Memos live for one call or in an lru_cache bounded by GRAPH_CACHE_SIZE
    # (test_library_caches_are_bounded); a module-level list, dict or set
    # would be a cache that only grows.  __all__ and the named constant
    # tables are the exceptions.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            value = node.value
            if isinstance(value, _MUTABLE_NODES) or (
                isinstance(value, ast.Call) and _name(value.func) in _MUTABLE_CALLS
            ):
                found.update(f"{path.stem}.{ast.unparse(t)}" for t in targets)
    held = {name for name in found if not name.endswith(".__all__")}
    assert held == CONSTANT_TABLES
