import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_floor() -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_every_source_parses_with_the_grammar_of_the_declared_floor():
    """Every ``.py`` under src/, tests/ and bench/ parses with ``ast.parse``
    at ``feature_version`` equal to the ``requires-python`` floor.

    This checks grammar only, such as ``except*`` (3.11). It does not catch a
    standard-library API newer than the floor, such as ``tomllib`` (3.11):
    that needs a run on the floor's interpreter.
    """
    floor = declared_floor()
    assert floor == (3, 10)
    sources = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) > 20
    refused = []
    for path in sources:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []
