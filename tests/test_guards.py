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


# Module-level definitions that no package code calls, each kept on purpose.
UNREFERENCED_ALLOWED = {
    "casimir_apply": "north-star oracle for hamiltonian_apply, used by tests",
    "dumps_expr": "oracle for the streamed export",
    "alpha_count": "reference count that tests pin enumerate_alpha against",
    "loads_expr": "parser of the documented exchange format",
}


def test_package_has_no_unreferenced_definitions():
    # a function or class that only tests reach is surface no check needs;
    # a reference from inside its own body does not count
    root = Path(gaudin_potentials.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))]
    defined = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    referenced: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                referenced.setdefault(node.attr, []).append(node)
    unreferenced = []
    for definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        if not any(id(node) not in own for node in referenced.get(definition.name, [])):
            unreferenced.append(definition.name)
    assert sorted(set(unreferenced) - set(UNREFERENCED_ALLOWED)) == []
    # an allowance outlives its reason once the name is gone or called
    assert sorted(unreferenced) == sorted(UNREFERENCED_ALLOWED)
