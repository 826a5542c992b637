"""No API that only its own test calls: every module-level function and class in
src/freematch_lab is referenced by the lab itself or by perfbench. One CSV
writer: only atomic.py imports `csv`. And one calling convention: no function
in src/ branches on whether it was handed a Tensor, and outside the tape
itself src/ never names one."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

# referenced only by tests, on purpose
ALLOWED = {}


def _names(node: ast.AST) -> set[str]:
    """Names that `node` references: Name and Attribute nodes, import aliases,
    and string constants spelling a dotted identifier (perfbench's tracer
    patches attributes by string)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update({n.name.split(".")[-1], n.asname} - {None})
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and re.fullmatch(r"[\w.]+", n.value):
            out.update(n.value.split("."))
    return out


def test_every_src_definition_is_referenced_outside_tests():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "freematch_lab").glob("*.py"))}
    perfbench = set().union(*(_names(ast.parse(p.read_text())) for p in (ROOT / "perfbench").glob("*.py")))
    unreferenced = []
    for mod, tree in modules.items():
        elsewhere = perfbench.union(*(_names(t) for m, t in modules.items() if m != mod))
        stmt_names = [_names(stmt) for stmt in tree.body]
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = set().union(*(names for j, names in enumerate(stmt_names) if j != i))
                if stmt.name not in elsewhere | own:
                    unreferenced.append(f"{mod}.{stmt.name}")
    assert sorted(set(unreferenced) - set(ALLOWED)) == []
    assert sorted(ALLOWED) == sorted(set(unreferenced) & set(ALLOWED)), "an allowlisted name is now referenced"


def test_only_atomic_imports_csv():
    """Every table goes through atomic.write_csv, so no other module needs `csv`."""
    importers = []
    for path in sorted((ROOT / "src" / "freematch_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "csv" in modules:
                importers.append(path.name)
    assert importers == ["atomic.py"]


def test_only_as_tensor_checks_for_a_tensor():
    """Loss heads, softmax and forward take arrays; only ndcore.as_tensor, which
    the tape's ops call on their operands, asks whether a value is a Tensor."""
    found = []
    for path in sorted((ROOT / "src" / "freematch_lab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                        and "Tensor" in _names(node.args[1])):
                    found.append(f"{path.stem}.{fn.name}")
    assert found == ["ndcore.as_tensor"]


# the autodiff tape: the class, its operand coercion and its gradient reduction
TAPE = {"ndcore.Tensor", "ndcore.as_tensor", "ndcore._unbroadcast"}


def test_only_the_tape_names_tensor():
    """Parameters, gradients and EMA parameters are arrays: no `src` statement
    outside the tape names `Tensor`, in code, annotations or imports."""
    found = set()
    for path in sorted((ROOT / "src" / "freematch_lab").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if "Tensor" in _names(stmt):
                found.add(f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}")
    assert sorted(found - TAPE) == []
