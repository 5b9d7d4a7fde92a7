import ast
import pathlib

import twistcount

PACKAGE = pathlib.Path(twistcount.__file__).parent


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


ORACLES = {
    "hom_image_contains",
    "kernel_size_by_smith",
    "kernel_size_by_enumeration",
    "image_size_by_enumeration",
}


def test_oracles_stay_out_of_library_paths():
    # The slow or independent routines of exactalg check the library from
    # the tests; no other library module may call them.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exactalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ORACLES:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
