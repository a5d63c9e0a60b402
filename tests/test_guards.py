import ast
import importlib
import importlib.util
import subprocess
import sys
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


# Definitions that no package code reaches, each kept on purpose: module-level
# functions and classes by name, and non-dunder methods and properties as
# Class.name.
UNREFERENCED_ALLOWED = {
    "casimir_apply": "north-star oracle for hamiltonian_apply, used by tests",
    "dumps_expr": "oracle for the streamed export",
    "alpha_count": "reference count that tests pin enumerate_alpha against",
    "loads_expr": "parser of the documented exchange format",
    "DerivativeCache.cached_count": "read by perfbench/trace_cli.py",
    "LogRationalExpr.logs": "read by perfbench/trace_cli.py",
}


def _definitions(trees):
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{node.name}.{item.name}", item


def test_package_has_no_unreferenced_definitions():
    # a function, class or method that only tests reach is surface no check
    # needs; a method counts as reached by any attribute of its name, a
    # module-level name by any name or attribute, and a reference from
    # inside the definition's own body does not count
    root = Path(gaudin_potentials.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))]
    names: dict[str, list[ast.AST]] = {}
    attributes: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(node)
    unreferenced = []
    for name, definition in _definitions(trees):
        _, dot, attr = name.rpartition(".")
        references = attributes.get(attr, []) + ([] if dot else names.get(attr, []))
        own = {id(node) for node in ast.walk(definition)}
        if not any(id(node) not in own for node in references):
            unreferenced.append(name)
    assert sorted(set(unreferenced) - set(UNREFERENCED_ALLOWED)) == []
    # an allowance outlives its reason once the name is gone or called
    assert sorted(unreferenced) == sorted(UNREFERENCED_ALLOWED)


def test_cli_import_stays_lean():
    # every CLI call is a fresh interpreter, and dataclasses with inspect
    # (which pulls in ast, dis and tokenize) adds about 10 ms to each
    probe = (
        "import sys; before = set(sys.modules); import gaudin_potentials.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "gaudin_potentials.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


def test_every_tracer_layer_resolves():
    # perfbench/trace_cli.py wraps these names when CI runs the benchmark
    # gate traced; resolve them the way its `install` does
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("trace_cli", path)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    for span, (module_name, attrs) in trace_cli.LAYERS.items():
        module = importlib.import_module(f"gaudin_potentials.{module_name}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert callable(getattr(module, cls_name).__dict__.get(meth)), (span, attr)
            else:
                assert callable(getattr(module, attr, None)), (span, attr)
