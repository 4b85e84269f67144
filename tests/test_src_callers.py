"""Every public function and class of the package has a caller outside the unit tests.

A name that only unit tests call is a second implementation kept for them; its
job belongs in the test file that needs it (aim 2 of ROADMAP.md: one
implementation per operation). The callers that count are the package itself,
the acceptance suite and the benchmark.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "rotavg").glob("*.py"))
CALLERS = SRC + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def referenced_names(path: Path) -> set[str]:
    """Names read, attributes taken and names imported in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    referenced = set().union(*map(referenced_names, CALLERS))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = [
        f"{path.stem}.{node.name}"
        for path in SRC
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, defs) and not node.name.startswith("_") and node.name not in referenced
    ]
    assert unused == []
