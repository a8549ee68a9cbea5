"""Every shipped definition and class member is reached from the CLI or the gate.

A static walk over the package source: the roots are `cli.main`, the
module-level statements of every module (which run at import, so `cli`'s
command table counts), and the names `tests/test_acceptance.py` imports from
memheat. From a reached top-level function, every name it mentions that
resolves to another top-level definition (in its own module or through a
`from .module import name`) is reached too. A reached class contributes the
names in its body outside its methods: bases, decorators and field
declarations.

Class members (methods, properties, classmethods and dataclass fields) are
matched by attribute name, which is conservative: a member of a reached class
is reached when a reached body, a module-level statement or the gate mentions
`.name` anywhere. Dunders and abstract methods count as reached, since Python
or a subclass calls them. Methods are resolved to a fixpoint together with
the top-level definitions, so an unreached method's body reaches nothing.

A definition or member that only a unit test uses fails the check: it is
shipped code that produces no output and guards no gate criterion.

The same parse checks imports: every module-level import of a module is read
in that module. `__init__` is exempt, since its imports are the package
namespace, and so is a line marked `# noqa: F401`, a re-export that the
benchmark's tracer self-test reads from the importing module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "memheat"
GATE = ROOT / "tests" / "test_acceptance.py"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


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


def _mentions(nodes):
    """(names, attribute names) mentioned anywhere in the given nodes."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return names, attrs


def _own_body(node):
    """A function whole; a class without its methods (they are members)."""
    if isinstance(node, ast.ClassDef):
        return node.bases + node.keywords + node.decorator_list + [
            s for s in node.body if not isinstance(s, FUNCTIONS)
        ]
    return [node]


def _members(cls):
    """Member name -> its method node (None for a field) of a class body."""
    out = {}
    for s in cls.body:
        if isinstance(s, FUNCTIONS):
            out[s.name] = s
        elif isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name):
            out[s.target.id] = None
    return out


def _always_reached(name, method):
    if name.startswith("__") and name.endswith("__"):
        return True
    return method is not None and any(
        getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
        for d in method.decorator_list
    )


def _package():
    """Per module: its top-level definitions, its imports, its import-time statements."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        defs = {n.name: n for n in tree.body if isinstance(n, DEFINITIONS)}
        run_at_import = [
            n for n in tree.body if not isinstance(n, DEFINITIONS + (ast.Import, ast.ImportFrom))
        ]
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
    """(reached top-level definitions, reached (module, class, member) triples)."""
    gate = _parse(GATE)
    roots = [("cli", "main")]
    attrs = _mentions([gate])[1]
    for module, (_, _, run_at_import) in modules.items():
        names, more = _mentions(run_at_import)
        roots += [(module, name) for name in names]
        attrs |= more
    for node in gate.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("memheat"):
            source = node.module.partition(".")[2] or "__init__"
            roots += [(source, alias.name) for alias in node.names]

    reached, members = set(), set()
    todo = [(m, n, None) for m, n in roots]  # (module, name, member or None)
    while True:
        while todo:
            module, name, member = todo.pop()
            if member is None:
                target = _resolve(modules, module, name)
                if target is None or target in reached:
                    continue
                reached.add(target)
                module, name = target
                body = _own_body(modules[module][0][name])
            else:
                if (module, name, member) in members:
                    continue
                members.add((module, name, member))
                method = _members(modules[module][0][name])[member]
                body = [] if method is None else [method]
            names, more = _mentions(body)
            todo += [(module, n, None) for n in names]
            attrs |= more
        # A member joins once its class is reached and its name is mentioned;
        # its body may mention more, so repeat until nothing new is reached.
        for module, name in reached:
            node = modules[module][0][name]
            if not isinstance(node, ast.ClassDef):
                continue
            for member, method in _members(node).items():
                if (module, name, member) not in members and (
                    member in attrs or _always_reached(member, method)
                ):
                    todo.append((module, name, member))
        if not todo:
            return reached, members


def test_every_definition_is_reached_from_cli_or_gate():
    modules = _package()
    reached, _ = _reached(modules)
    unreached = sorted(
        f"{module}.{name}"
        for module, (defs, _, _) in modules.items()
        if module != "__init__"
        for name in defs
        if (module, name) not in reached
    )
    assert not unreached, f"reached only from unit tests: {unreached}"


def test_every_class_member_is_reached_from_cli_or_gate():
    modules = _package()
    reached, members = _reached(modules)
    unreached = sorted(
        f"{module}.{name}.{member}"
        for module, name in reached
        if isinstance(modules[module][0][name], ast.ClassDef)
        for member in _members(modules[module][0][name])
        if (module, name, member) not in members
    )
    assert not unreached, f"reached only from unit tests: {unreached}"


def _unread_imports(path):
    """`module: name` for each name a module imports at top level and never
    reads, past `from __future__` and lines marked `# noqa: F401`."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unread = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).partition(".")[0]
            if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unread.append(f"{path.stem}: {bound}")
    return unread


def test_every_import_is_read_in_its_module():
    unread = [
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for entry in _unread_imports(path)
    ]
    assert not unread, f"imported but never read: {unread}"
