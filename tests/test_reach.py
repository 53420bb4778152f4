"""Every top-level name and method of ``src/ldikit`` is reached from
``cli.main``, the README's python blocks, the acceptance gate, perfbench or
the python the CI workflow runs (not from ``conftest.py`` or ``oracles.py``).

A name resolves to its module's definition or package import, ``module.name``
through a module alias, any other ``x.name`` to every method so named; in a
root, a one-word string names that attribute of the package modules it
imports (perfbench wraps by name).  A class reaches its dunders, and all its
methods when it has a base class.
"""

import ast
import re
import textwrap
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Graph:
    """Keys are (module, name) and (module, "Class.method")."""

    def __init__(self, package):
        self.parts = defaultdict(list)    # key -> AST parts it refers from
        self.links = defaultdict(set)     # key -> keys it reaches outright
        self.lines = {}
        self.aliases = defaultdict(dict)  # module -> {name: package module}
        self.imported = defaultdict(set)  # module -> package modules it imports
        self.methods = defaultdict(set)   # method name -> keys
        self.package = [p.stem for p in sorted(package.glob("*.py"))]
        self.always = [(m, stmt) for m in self.package for stmt in self.add(
            m, ast.parse((package / f"{m}.py").read_text()))]

    def define(self, key, node, parts=()):
        self.parts[key] += parts
        self.lines[key] = node.end_lineno - node.lineno + 1

    def add(self, module, tree):
        """Define a module's names; returns its other top-level statements."""
        for node in ast.walk(tree):
            name = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and (
                    node.level or name.startswith("ldikit")):
                source = name.removeprefix("ldikit").lstrip(".")
                for alias in node.names:
                    key = (module, alias.asname or alias.name)
                    self.define(key, node)
                    if not source and alias.name in self.package:
                        self.aliases[module][key[1]] = alias.name
                    self.links[key].add((source, alias.name))
                    self.imported[module].add(source or alias.name)
        rest = []
        for stmt in tree.body:
            if isinstance(stmt, FUNCTIONS):
                self.define((module, stmt.name), stmt, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                key = (module, stmt.name)
                self.define(key, stmt, [*stmt.bases, *stmt.decorator_list] + [
                    s for s in stmt.body if not isinstance(s, FUNCTIONS)])
                for fn in filter(lambda s: isinstance(s, FUNCTIONS), stmt.body):
                    method = (module, f"{stmt.name}.{fn.name}")
                    self.define(method, fn, [fn])
                    self.methods[fn.name].add(method)
                    if stmt.bases or fn.name.startswith("__"):
                        self.links[key].add(method)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in getattr(stmt, "targets", None) or [stmt.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.define((module, name.id), stmt,
                                        [stmt.value] if stmt.value else [])
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                rest.append(stmt)
        return rest

    def references(self, module, part):
        found = set()
        for node in ast.walk(part):
            if isinstance(node, ast.Name):
                found.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", None)
                if owner in self.aliases[module]:
                    found.add((self.aliases[module][owner], node.attr))
                found |= self.methods[node.attr]
            elif (module not in self.package and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and node.value.isidentifier()):
                for target in self.imported[module]:
                    found.add((target, node.value))
                    found |= {m for m in self.methods[node.value]
                              if m[0] == target}
        return {key for key in found if key in self.parts}


def root_sources(repo=REPO):
    """{name: python source} of the entry points outside the package."""
    readme = (repo / "README.md").read_text().split("```python\n")[1:]
    sources = {f"README[{i}]": b.split("```")[0] for i, b in enumerate(readme)}
    for path in [repo / "tests" / "test_acceptance.py",
                 *sorted(repo.glob("perfbench/*.py")),
                 *sorted(repo.glob("perfbench/tests/*.py"))]:
        sources[str(path)] = path.read_text()
    workflow = (repo / ".github" / "workflows" / "tests.yml").read_text()
    snippets = re.findall(r'python3? -c "([^"]*)"', workflow) + re.findall(
        r"<<'EOF'\n(.*?)\n\s*EOF\n", workflow, re.S)
    for i, snippet in enumerate(snippets):
        sources[f"tests.yml[{i}]"] = textwrap.dedent(snippet)
    return sources


def unreached(package=REPO / "src" / "ldikit", repo=REPO):
    """[(module.name, lines)] of every package definition no root reaches;
    module-level dunders (``__version__``) are exempt."""
    graph = _Graph(package)
    todo = [("cli", "main")]
    for name, source in root_sources(repo).items():
        tree = ast.parse(source)
        graph.add(name, tree)
        todo += graph.references(name, tree)
    for module, stmt in graph.always:
        todo += graph.references(module, stmt)
    seen = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo += graph.links[key]
            for part in graph.parts[key]:
                todo += graph.references(key[0], part)
    return [(f"{module}.{name}", graph.lines[(module, name)])
            for module, name in sorted(graph.parts)
            if module in graph.package and (module, name) not in seen
            and not name.startswith("__")]


def test_every_definition_is_reached_from_an_entry_point():
    missing = unreached()
    assert not missing, "reached by no entry point:\n" + "\n".join(
        f"  {name} ({lines} lines)" for name, lines in missing)


def test_a_name_only_tests_use_is_reported(tmp_path):
    for name, text in {
            "ldikit/cli.py": "from .corpus import f, spare\ndef main(): f()",
            "ldikit/corpus.py": "def f(): 0\ndef spare(): 0\ndef hooked(): 0",
            "tests/test_acceptance.py": "from ldikit import corpus\n'hooked'",
            "README.md": "", ".github/workflows/tests.yml": ""}.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unreached(tmp_path / "ldikit", tmp_path) == [
        ("cli.spare", 1), ("corpus.spare", 1)]
