"""Every imported name is used in the module that imports it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "motivic").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree):
    """Names bound by import statements and never read in the module.

    Names listed in a literal __all__ count as read (re-exports); a dotted
    `import a.b` binds and is read as `a`.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_sees_unused_and_used_names():
    src = "import os\nimport a.b\nfrom x import y, z as w\nfrom v import q\n__all__ = ['q']\nprint(a, w)\n"
    assert unused_imports(ast.parse(src)) == [(1, "os"), (3, "y")]


def test_no_unused_imports():
    assert SOURCES
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue  # the package namespace: every import is a re-export
        for line, name in unused_imports(ast.parse(path.read_text(), str(path))):
            found.append("%s:%d: %s" % (path.relative_to(ROOT), line, name))
    assert not found, "unused imports:\n" + "\n".join(found)
