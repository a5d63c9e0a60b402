import ast
from pathlib import Path

import gaudin_potentials


def test_package_has_no_assert_statements():
    # correctness guards must raise real errors so that they survive python -O
    root = Path(gaudin_potentials.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
