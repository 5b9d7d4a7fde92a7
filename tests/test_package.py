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
