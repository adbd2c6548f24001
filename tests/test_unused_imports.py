"""
Every module-level import in the package and the tests is read somewhere.

A name counts as read when its module uses it, or when another scanned
module imports it from this one or reads it as an attribute of this module
(a re-export). Package __init__ files, whose imports are the public
surface, and `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import plumbtwist

SRC = Path(plumbtwist.__file__).parent
TESTS = Path(__file__).parent


def _modules() -> dict[str, ast.Module]:
    """Each scanned module's tree under the name it is imported by."""
    found = {f"plumbtwist.{path.stem}": path for path in SRC.glob("*.py")}
    found.update({path.stem: path for path in TESTS.glob("*.py")})
    return {name: ast.parse(path.read_text(encoding="utf-8")) for name, path in found.items()
            if not name.endswith("__init__")}


def _source(node: ast.ImportFrom) -> str:
    """The module an import-from reads; a relative import is within the package."""
    if node.level:
        return ".".join(["plumbtwist"] + ([node.module] if node.module else []))
    return node.module


def _bindings(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Each name a module-level import binds: (source module, imported name or None for a module)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = _source(node)
            for alias in node.names:
                bound[alias.asname or alias.name] = (source, alias.name)
    return bound


def test_every_module_level_import_is_read():
    modules = _modules()
    bindings = {name: _bindings(tree) for name, tree in modules.items()}
    reexported = {name: set() for name in modules}  # names other modules take from each module

    def module_of(source: str, imported: str | None) -> str:
        """The scanned module a binding names, if any: `import m` or `from package import m`."""
        return source if imported is None else f"{source}.{imported}"

    for name, tree in modules.items():
        for bound, (source, imported) in bindings[name].items():
            if imported is not None and source in reexported:
                reexported[source].add(imported)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bindings[name]:
                target = module_of(*bindings[name][node.value.id])
                if target in reexported:
                    reexported[target].add(node.attr)

    unused = []
    for name, tree in modules.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= reexported[name]
        unused += [f"{name}: {bound}" for bound in bindings[name] if bound not in read]
    assert not unused, "imported and never read: " + ", ".join(unused)
