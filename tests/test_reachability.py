"""Every shipped definition is reached from the CLI or the acceptance gate.

A static walk over the package source: the roots are `cli.main`, the
module-level statements of every module (which run at import, so `cli`'s
command table counts), and the names `tests/test_acceptance.py` imports from
memheat. From a reached top-level function or class, every name it mentions
that resolves to another top-level definition (in its own module or through a
`from .module import name`) is reached too. A definition that only a unit
test calls fails the check: it is shipped code that produces no output and
guards no gate criterion.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "memheat"
GATE = ROOT / "tests" / "test_acceptance.py"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _relative_imports(tree):
    """Local name -> (module, name) for every `from .module import name`."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _package():
    """Per module: its top-level definitions, its imports, its import-time names."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        defs = {n.name: n for n in tree.body if isinstance(n, DEFINITIONS)}
        run_at_import = set()
        for node in tree.body:
            if not isinstance(node, DEFINITIONS + (ast.Import, ast.ImportFrom)):
                run_at_import |= _names(node)
        modules[path.stem] = (defs, _relative_imports(tree), run_at_import)
    return modules


def _resolve(modules, module, name, seen=()):
    """The (module, name) that defines `name` as seen from `module`, or None."""
    defs, imports, _ = modules[module]
    if name in defs:
        return module, name
    if name in imports and (module, name) not in seen:
        source, original = imports[name]
        if source in modules:
            return _resolve(modules, source, original, seen + ((module, name),))
    return None


def _reached(modules):
    gate = _parse(GATE)
    roots = [("cli", "main")]
    for module, (_, _, run_at_import) in modules.items():
        roots += [(module, name) for name in run_at_import]
    for node in gate.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("memheat"):
            source = node.module.partition(".")[2] or "__init__"
            roots += [(source, alias.name) for alias in node.names]
    reached = set()
    todo = [r for r in (_resolve(modules, m, n) for m, n in roots) if r]
    while todo:
        module, name = todo.pop()
        if (module, name) in reached:
            continue
        reached.add((module, name))
        for ref in _names(modules[module][0][name]):
            target = _resolve(modules, module, ref)
            if target:
                todo.append(target)
    return reached


def test_every_definition_is_reached_from_cli_or_gate():
    modules = _package()
    reached = _reached(modules)
    unreached = sorted(
        f"{module}.{name}"
        for module, (defs, _, _) in modules.items()
        if module != "__init__"
        for name in defs
        if (module, name) not in reached
    )
    assert unreached == []

