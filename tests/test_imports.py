"""Every imported name is used in the module that imports it, the package
namespace is exactly the public lists of its modules, and the library
imports nothing beyond the standard library and its declared
dependencies."""

import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import motivic
from motivic import coefficients, errors, groups, ratfield, stackcalc, subgroups

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


def test_package_namespace_is_the_module_lists():
    expected = {n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)}
    for mod in (ratfield, subgroups, groups, coefficients, stackcalc):
        expected.update(mod.__all__)
    expected.update(("eval_class", "parse", "render"))
    public = {
        n for n, v in vars(motivic).items() if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert public == expected


def names_polynomial(tree):
    """Lines where a module imports the name Polynomial, reads it as a
    plain name or reaches it as an attribute."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == "Polynomial" for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "Polynomial":
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Polynomial":
            lines.add(node.lineno)
    return sorted(lines)


def test_polynomial_scan_sees_imports_names_and_attributes():
    src = "from .ratfield import Polynomial as P\nx = ratfield.Polynomial\ny = Polynomial(())\nz = 1\n"
    assert names_polynomial(ast.parse(src)) == [1, 2, 3]


def test_only_ratfield_builds_polynomials():
    # every other module builds Q(l) values from ELL, ONE, ZERO and field
    # arithmetic, so the polynomial kernel can change inside one module
    found = []
    for path in sorted((ROOT / "src" / "motivic").glob("*.py")):
        if path.name == "ratfield.py":
            continue
        for line in names_polynomial(ast.parse(path.read_text(), str(path))):
            found.append("%s:%d" % (path.relative_to(ROOT), line))
    assert not found, "Polynomial named outside ratfield:\n" + "\n".join(found)


def defines_guard(tree):
    """Lines where a module binds a module-level name ending in _GUARD or
    _MAX by assignment."""
    lines = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if any(n.id.endswith(("_GUARD", "_MAX")) for n in names):
            lines.append(node.lineno)
    return lines


def test_guard_scan_sees_module_level_assignments():
    src = (
        "from .guards import E_GUARD\nA_GUARD = 1\nB_MAX: int = 2\nC, D_MAX = 3, 4\n"
        "E_GUARD += 1\nlimit = E_GUARD\ndef f():\n    F_GUARD = 5\n"
    )
    assert defines_guard(ast.parse(src)) == [2, 3, 4, 5]


def test_only_guards_defines_size_guards():
    # one table owns the size policy, so a guard moves with one edit there
    found = []
    for path in sorted((ROOT / "src" / "motivic").glob("*.py")):
        if path.name == "guards.py":
            continue
        for line in defines_guard(ast.parse(path.read_text(), str(path))):
            found.append("%s:%d" % (path.relative_to(ROOT), line))
    assert not found, "size guard defined outside guards.py:\n" + "\n".join(found)


def declared_dependencies():
    """Import names of the runtime dependencies listed in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    return {name.replace("-", "_") for name in re.findall(r'"([A-Za-z0-9_.-]+)', listed)}


def foreign_imports(tree, allowed):
    """(line, module) for each absolute import whose top-level package is
    neither in the standard library nor in `allowed`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in allowed:
                found.append((node.lineno, name))
    return found


def test_dependency_scan_sees_foreign_imports():
    src = (
        "import os.path\nimport sympy\nfrom sympy.polys import x\nfrom . import ratfield\n"
        "from .errors import E\nimport numpy as np\nfrom motivic import guards\n"
    )
    allowed = {"motivic", "numpy"}
    assert foreign_imports(ast.parse(src), allowed) == [(2, "sympy"), (3, "sympy.polys")]


def test_library_imports_only_stdlib_and_declared_dependencies():
    # sympy and the like are sources of technique, not dependencies
    allowed = {"motivic"} | declared_dependencies()
    assert "numpy" in allowed
    found = []
    for path in sorted((ROOT / "src" / "motivic").glob("*.py")):
        for line, name in foreign_imports(ast.parse(path.read_text(), str(path)), allowed):
            found.append("%s:%d: %s" % (path.relative_to(ROOT), line, name))
    assert not found, "imports outside the standard library and pyproject.toml:\n" + "\n".join(found)
