"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "transport_nare"

#: Imported but never called in their module: perfbench's span tracer patches
#: these names there, so they must exist in it.
PINNED = {"modified_sda_ls.py": {"orthonormalize_against", "truncated_svd"}}


def unused_imports(source):
    """Names bound by an import in ``source`` that nothing else there reads.

    A read is any load of the name, or the name as a string in ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    source = ("import os\nimport sys as system\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(system.argv, pi)\n")
    assert unused_imports(source) == [(1, "os")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    found = [(line, name) for line, name in unused_imports(path.read_text())
             if name not in PINNED.get(path.name, ())]
    assert not found, "%s: unused imports %s" % (path.name, found)


def test_pinned_imports_are_still_unused():
    # once a pinned name is called in its module, it needs no exemption
    for module, names in PINNED.items():
        unused = {name for _, name in unused_imports((SRC / module).read_text())}
        assert names <= unused, module
