"""Every imported name is used in the module that imports it, the package
namespace is exactly the public lists of its modules, the library
imports nothing beyond the standard library and its declared
dependencies, and numpy loads only with the posets."""

import ast
import json
import os
import re
import subprocess
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


# the names that load numpy with motivic.subgroups on first use
POSET_NAMES = frozenset(("SubgroupPoset", "poset_close", "PartitionLattice", "q_lattice_gl"))


def test_package_namespace_is_the_module_lists():
    expected = {n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)}
    for mod in (ratfield, subgroups, groups, coefficients, stackcalc):
        expected.update(mod.__all__)
    expected.update(("eval_class", "parse", "render"))
    assert sorted(motivic.__all__) == sorted(expected)
    # bound at import, but for the posets, which resolve to subgroups'
    public = {
        n for n, v in vars(motivic).items() if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert public == expected - POSET_NAMES
    for name in POSET_NAMES:
        assert getattr(motivic, name) is getattr(subgroups, name)


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


# the parts of a stored Q(l) value: RatFunc.num and .den, Polynomial.coeffs
# (derived) and its stored content and ints
STORED_FORM = frozenset(("num", "den", "coeffs", "content", "ints"))


def reads_stored_form(tree):
    """(line, attribute) for each attribute access that reads a part of
    the stored form of a Q(l) value."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in STORED_FORM:
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_stored_form_scan_sees_attribute_reads():
    src = (
        "a = f.num.degree\nb = g.den\nc = p.coeffs[0]\nd = num + den\n"
        "e = x.content, y.ints\nh = q.numerator, q.denominator\n"
    )
    expected = [(1, "num"), (2, "den"), (3, "coeffs"), (5, "content"), (5, "ints")]
    assert reads_stored_form(ast.parse(src)) == expected


def test_only_ratfield_reads_the_stored_form():
    # every other module reads Q(l) values through the RatFunc methods and
    # ratfield's functions (canonical_str, specialize, pi_eval), so the
    # stored form is one module's decision
    found = []
    for path in sorted((ROOT / "src" / "motivic").glob("*.py")):
        if path.name == "ratfield.py":
            continue
        for line, attr in reads_stored_form(ast.parse(path.read_text(), str(path))):
            found.append("%s:%d: .%s" % (path.relative_to(ROOT), line, attr))
    assert not found, "stored form read outside ratfield:\n" + "\n".join(found)


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


def imports_numpy(tree):
    """Whether a module imports numpy or a submodule of it."""
    return any(name.split(".")[0] == "numpy" for _, name in foreign_imports(tree, {"motivic"}))


def test_numpy_scan_sees_plain_aliased_and_from_imports():
    for src in ("import numpy as np\n", "import os, numpy.linalg\n", "from numpy import zeros\n"):
        assert imports_numpy(ast.parse(src))
    assert not imports_numpy(ast.parse("import os\nfrom .subgroups import np\nnumpy = 1\n"))


def test_only_subgroups_imports_numpy():
    # the README's dependency note: numpy only stores the poset tables, so
    # dropping it is a change to one module
    importers = [
        path.name
        for path in sorted((ROOT / "src" / "motivic").glob("*.py"))
        if imports_numpy(ast.parse(path.read_text(), str(path)))
    ]
    assert importers == ["subgroups.py"]


def module_level_nodes(tree):
    """The nodes a module runs when imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def imports_posets(tree):
    """Lines of module-level imports that load subgroups or bind one of the
    poset names, from any module."""
    lines = []
    for node in module_level_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("subgroups" in n.split(".") or n in POSET_NAMES for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_poset_import_scan_sees_module_level_imports_only():
    src = (
        "from .subgroups import x\nfrom . import subgroups\nimport motivic.subgroups\n"
        "from .groups import PartitionLattice\nfrom motivic import poset_close\n"
        "class C:\n    from .groups import q_lattice_gl\n"
        "def f():\n    from .subgroups import SubgroupPoset\n"
        "from .groups import TorusSubgroup\nsubgroups = 1\n"
    )
    assert imports_posets(ast.parse(src)) == [1, 2, 3, 4, 5, 7]


def test_only_subgroups_loads_the_posets_at_import():
    # numpy loads with subgroups, so a module that imports it, or a poset
    # name, at load time puts numpy on every command's start-up
    found = []
    for path in sorted((ROOT / "src" / "motivic").glob("*.py")):
        if path.name == "subgroups.py":
            continue
        for line in imports_posets(ast.parse(path.read_text(), str(path))):
            found.append("%s:%d" % (path.relative_to(ROOT), line))
    assert not found, "subgroups or a poset imported at module level:\n" + "\n".join(found)


# each command line call builds no poset; the last six are one refusal of
# each kind the benchmark's cli workload makes, exit status 2
NO_POSET_CALLS = [
    (["eval", "[P^2 / GL(2)] + [pt / Gm^2]"], 0),
    (["eval", "[P^2 / GL(2)] + [pt / Gm^2]", "--json"], 0),
    (["eff-table", "--max", "3"], 0),
    (["abelianize", "3"], 0),
    (["euler", "3"], 0),
    (["check", "consistency", "--max", "2"], 0),
    (["check", "eff-recursion", "--max", "2"], 0),
    (["check", "model-pi1", "--max", "2"], 0),
    (["check", "operator-algebra", "--max", "1"], 0),
    (["eval", "GL(17)", "--json"], 2),
    (["eval", "A^65", "--json"], 2),
    (["eval", "[pt / GL(2)", "--json"], 2),
    (["eval", "P^2 +", "--json"], 2),
    (["eff-table", "--max", "8", "--json"], 2),
    (["check", "mobius-crosscut", "--max", "0", "--json"], 2),
]

# runs each argv in turn, printing exit status and whether numpy is loaded
_CALLS_SCRIPT = """
import contextlib, io, json, sys
from motivic.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    print(json.dumps([rc, "numpy" in sys.modules]))
"""


def fresh_python(*argv):
    """stdout lines of a new interpreter run on the source tree."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_commands_that_build_no_poset_never_load_numpy():
    argvs = [argv for argv, _ in NO_POSET_CALLS] + [["check", "mobius-crosscut", "--max", "1"]]
    seen = [json.loads(line) for line in fresh_python("-c", _CALLS_SCRIPT, json.dumps(argvs))]
    assert seen[:-1] == [[rc, False] for _, rc in NO_POSET_CALLS]
    # the first poset suite loads it
    assert seen[-1] == [0, True]


def test_importing_subgroups_loads_numpy():
    # at import, never inside a timed poset build
    script = "import sys, motivic.subgroups; print('numpy' in sys.modules)"
    assert fresh_python("-c", script) == ["True"]
