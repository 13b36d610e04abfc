import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def declared_floor() -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def sources() -> list[Path]:
    return sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_every_source_parses_with_the_grammar_of_the_declared_floor():
    """Every ``.py`` under src/, tests/ and bench/ parses with ``ast.parse``
    at ``feature_version`` equal to the ``requires-python`` floor.

    This checks grammar only, such as ``except*`` (3.11). It does not catch a
    standard-library API newer than the floor, such as ``tomllib`` (3.11):
    that needs a run on the floor's interpreter.
    """
    floor = declared_floor()
    assert floor == (3, 10)
    assert len(sources()) > 20
    refused = []
    for path in sources():
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []


def stdlib_uses(tree: ast.Module) -> set[tuple[str, tuple[str, ...]]]:
    """Each standard-library module a source imports, with the names it takes
    from it: ``import m`` gives ``(m, ())``, ``from m import n`` gives
    ``(m, (n,))``, and ``m.a.b`` on a name an import bound gives ``(m, (a, b))``."""
    bound, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                if top in sys.stdlib_module_names:
                    uses.add((alias.name, ()))
                    bound[alias.asname or top] = (alias.name if alias.asname else top, ())
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.partition(".")[0] in sys.stdlib_module_names):
            for alias in node.names:
                uses.add((node.module, (alias.name,)))
                bound[alias.asname or alias.name] = (node.module, (alias.name,))
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id in bound:
            module, first = bound[node.id]
            uses.add((module, first + tuple(reversed(names))))
    return uses


# run on the floor interpreter: prints each use whose names do not resolve. A
# name under a package is imported as its submodule if it is one, so that
# importlib.resources is found whether or not importlib has loaded it yet;
# names after the first object that is not a module are not followed
RESOLVE = """
import importlib, importlib.util, inspect, json, sys
missing = []
for module, names in json.load(sys.stdin):
    try:
        obj = importlib.import_module(module)
        for name in names:
            if not inspect.ismodule(obj) or name == "*":
                break
            dotted = f"{obj.__name__}.{name}"
            if hasattr(obj, "__path__") and importlib.util.find_spec(dotted):
                obj = importlib.import_module(dotted)
            else:
                obj = getattr(obj, name)
    except (ImportError, AttributeError):
        missing.append(".".join([module, *names]))
print(json.dumps(missing))
"""


def test_every_standard_library_name_resolves_on_the_floor_interpreter():
    """Every standard-library module, ``from`` name and module attribute that
    src/, tests/ and bench/ use exists on the ``requires-python`` floor, such
    as no ``tomllib`` (3.11) or ``datetime.UTC`` (3.11) on 3.10. Skipped
    where no interpreter of the floor's version runs as ``pythonX.Y``."""
    assert stdlib_uses(ast.parse(
        "import os.path as p, numpy\nfrom importlib import resources as r\nimport json\n"
        "r.files().joinpath\np.join\njson.dumps\nnumpy.pi\nx.y\n"
    )) == {("os.path", ()), ("os.path", ("join",)), ("importlib", ("resources",)),
           ("importlib", ("resources", "files")), ("json", ()), ("json", ("dumps",))}
    python = "python{}.{}".format(*declared_floor())
    try:
        runs = subprocess.run([python, "-c", "pass"], capture_output=True).returncode == 0
    except OSError:
        runs = False
    if not runs:
        pytest.skip(f"{python} does not run here")
    uses = sorted(set().union(*(stdlib_uses(ast.parse(p.read_text())) for p in sources())))
    out = subprocess.run([python, "-I", "-c", RESOLVE], input=json.dumps(uses),
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
