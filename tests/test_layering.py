"""Layering: no rolealign module touches another module's private names.

Every ``src/rolealign/*.py`` file is parsed with ``ast``.  A module may not
import a ``_``-prefixed name from another rolealign module, nor read one
as an attribute of an imported rolealign module (``_disc._e_step``).
Dunder names such as ``__version__`` are public.
"""

import ast
from pathlib import Path

PACKAGE = "rolealign"
SOURCE = Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _absolute(node):
    """The dotted module an ImportFrom node reads from, or None when it is
    outside the package (the files are direct children of it)."""
    if node.level == 0:
        name = node.module or ""
        return name if name.split(".")[0] == PACKAGE else None
    if node.level == 1:
        return PACKAGE + (f".{node.module}" if node.module else "")
    return None


def violations(path):
    """(line, text) for each private name of another rolealign module that
    the file at ``path`` imports or reads."""
    module = f"{PACKAGE}.{path.stem}"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    modules = {}   # local name -> the rolealign module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else PACKAGE
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node)
            if source is None or source == module:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno,
                                  f"imports {source}.{alias.name}"))
                elif source == PACKAGE:   # from . import discovery
                    modules[alias.asname or alias.name] = \
                        f"{PACKAGE}.{alias.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain, base = [node.attr], node.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name) or base.id not in modules:
            continue
        chain.reverse()
        target = modules[base.id]
        if target == PACKAGE:   # rolealign.discovery._x
            if len(chain) < 2:
                continue
            target, chain = f"{PACKAGE}.{chain[0]}", chain[1:]
        if target != module and _private(chain[0]):
            found.append((node.lineno, f"reads {target}.{chain[0]}"))
    return sorted(set(found))


def test_no_module_touches_another_modules_private_names():
    files = sorted(SOURCE.glob("*.py"))
    assert len(files) > 5
    bad = [f"{path.name}:{line}: {what}" for path in files
           for line, what in violations(path)]
    assert not bad, "cross-module private access:\n" + "\n".join(bad)


def test_the_checker_sees_each_kind_of_access(tmp_path):
    src = tmp_path / "alignment.py"
    src.write_text(
        "from . import discovery as _disc\n"
        "from .discovery import Formation, _e_step\n"
        "from rolealign.geometry import _LOG_2PI\n"
        "import rolealign.ingest\n"
        "from .version import __version__\n"
        "from ._private_module import thing\n"
        "x = _disc._component_log_pdfs\n"
        "y = _disc.Formation\n"
        "z = rolealign.ingest._chunks\n"
        "w = _disc.__name__\n"
        "from .alignment import _own\n")
    assert violations(src) == [
        (2, "imports rolealign.discovery._e_step"),
        (3, "imports rolealign.geometry._LOG_2PI"),
        (7, "reads rolealign.discovery._component_log_pdfs"),
        (9, "reads rolealign.ingest._chunks"),
    ]
