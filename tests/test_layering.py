"""Layering: no rolealign module touches another module's private names,
and no public name is there for tests alone.

Every ``src/rolealign/*.py`` file is parsed with ``ast``.  A module may not
import a ``_``-prefixed name from another rolealign module, nor read one
as an attribute of an imported rolealign module (``_disc._e_step``).
Dunder names such as ``__version__`` are public.  Every name the package
exports must be read by the package itself, a demo or the README.  Only
``alignment.assign_positions`` and ``assignment.hungarian`` call
``assign_batch``, so assignment costs are built in one place.
"""

import ast
import re
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


def callers(source, name):
    """The top-level definitions of module text ``source`` that call
    ``name``, as a plain name or as an attribute."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                found.add(top.name)
    return found


def names_used(source):
    """Every name a module text imports, reads or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_assignment_costs_are_built_in_one_place():
    # the cost expression lives in alignment.assign_positions alone, so
    # the soft pipeline and the hard baseline cannot quietly fork it
    calls = {(path.stem, f) for path in sorted(SOURCE.glob("*.py"))
             for f in callers(path.read_text(), "assign_batch")}
    assert calls == {("alignment", "assign_positions"),
                     ("assignment", "hungarian")}
    baseline = names_used((SOURCE / "baseline.py").read_text())
    assert not baseline & {"assign_batch", "component_log_pdfs"}


def test_the_call_checker_sees_each_kind_of_call():
    source = (
        "from .assignment import assign_batch\n"
        "from . import assignment as a\n"
        "def direct(c):\n"
        "    return assign_batch(c)\n"
        "def nested(c):\n"
        "    return [a.assign_batch(x) for x in c]\n"
        "class Holder:\n"
        "    def method(self, c):\n"
        "        return assign_batch(c)\n"
        "def unrelated(c):\n"
        "    return assign_batch\n")
    assert callers(source, "assign_batch") == {"direct", "nested", "Holder"}
    assert {"assign_batch", "a", "c"} <= names_used(source)


# Public names that only tests read.  Acceptance check 9 measures role
# overlap with differential_entropy, so it stays public with no caller.
READ_BY_TESTS_ONLY = {"differential_entropy"}


def unread_public_names(public, modules, others):
    """The names of ``public`` that nothing reads but tests.

    ``modules`` are package sources and ``others`` texts that read names
    (demos, README).  A name counts as read when its word appears in an
    ``others`` text, in a module line outside every top-level definition
    of a public name, or in the definition of another public name that is
    itself read; its own definition never reads it.
    """
    words = {name: re.compile(rf"\b{re.escape(name)}\b") for name in public}
    live = list(others)       # text read whatever is public
    owned = {}                # public name -> the text of its definition
    for source in modules:
        lines = source.splitlines()
        kept = set(range(len(lines)))
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name in words:
                start = min(d.lineno for d in [node, *node.decorator_list])
                span = range(start - 1, node.end_lineno)
                owned[node.name] = "\n".join(lines[i] for i in span)
                kept -= set(span)
        live.append("\n".join(lines[i] for i in sorted(kept)))
    read = {name for name in public
            if any(words[name].search(text) for text in live)}
    grown = True
    while grown:
        grown = False
        for name in set(public) - read:
            if any(words[name].search(owned[other])
                   for other in read & owned.keys() if other != name):
                read.add(name)
                grown = True
    return sorted(set(public) - read)


def test_every_public_name_is_read_outside_the_tests():
    import rolealign
    root = SOURCE.parents[1]
    modules = [p.read_text() for p in sorted(SOURCE.glob("*.py"))
               if p.name != "__init__.py"]
    others = [p.read_text() for p in sorted((root / "demos").glob("*.py"))]
    others.append((root / "README.md").read_text())
    unread = unread_public_names(rolealign.__all__, modules, others)
    assert set(unread) == READ_BY_TESTS_ONLY, \
        "public names that no command, demo or README section reads: " \
        f"{sorted(set(unread) - READ_BY_TESTS_ONLY)}"


def test_unread_names_follow_definitions():
    module = (
        "def used():\n"
        "    return Helper()\n"
        "\n"
        "class Helper:\n"
        "    def again(self):\n"
        "        return Helper()\n"
        "\n"
        "def dead():\n"
        "    return Orphan(), used()\n"
        "\n"
        "class Orphan:\n"
        "    pass\n"
        "\n"
        "def mentioned():\n"
        "    pass\n")
    assert unread_public_names(
        ["used", "Helper", "dead", "Orphan", "mentioned"], [module],
        ["call used() and see mentioned"]) == ["Orphan", "dead"]
