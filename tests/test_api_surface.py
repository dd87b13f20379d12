"""Every name the engine defines has a caller outside the tests.

A top-level function or class, or a method that is not a dunder, whose
only callers are tests is API kept alive for its tests. Each one in
src/socdfn/*.py must be named somewhere outside its own definition in
src/, README.md, tools/ or socbench/.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "socdfn"


def user_files():
    yield from (ROOT / "src").rglob("*.py")
    yield ROOT / "README.md"
    yield from (ROOT / "tools").rglob("*.py")
    for path in (ROOT / "socbench").rglob("*"):
        if path.suffix in (".py", ".md"):
            yield path


def definitions(path):
    """(label, node) of each top-level def and class and each non-dunder method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def unreferenced():
    texts = {path: path.read_text().splitlines() for path in user_files()}
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, node in definitions(path):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            word = re.compile(rf"(?<!\w){re.escape(node.name)}(?!\w)")
            if not any(
                word.search(line)
                for other, lines in texts.items()
                for number, line in enumerate(lines, 1)
                if not (other == path and number in own)
            ):
                missing.append(f"{path.name}: {label}")
    return missing


def test_every_engine_name_has_a_caller_outside_the_tests():
    assert unreferenced() == []
