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


def test_package_has_no_floating_point():
    # exact arithmetic only: no float literal anywhere (which rules out
    # `** 0.5` too) except the report's wall-clock timing default
    root = Path(gaudin_potentials.__file__).parent
    allowed = {("report.py", "elapsed_s: float = 0.0")}
    found = []
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))):
                continue
            if (path.name, lines[node.lineno - 1].strip()) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
