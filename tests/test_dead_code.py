"""Every public module-level function and class in `src/peblab`, and every
public method and property of its classes, is named somewhere other than
its own definition: in the package, the benchmark harness, or the
end-to-end tests.  Unit tests alone do not count, so a function or method
that only its own unit tests call is flagged as dead code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "peblab"
END_TO_END_TESTS = ("test_acceptance.py", "test_golden_traces.py", "test_cli.py")


def public_definitions(source: str):
    """(name, first line, last line) of each public top-level def and class,
    and of each public def in a top-level class's body."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member.name, member.lineno, member.end_lineno


def unnamed_definitions(package: Path, others) -> list[str]:
    sources = {path: path.read_text() for path in sorted(package.glob("*.py"))}
    elsewhere = "\n".join(path.read_text() for path in others)
    unnamed = []
    for path, source in sources.items():
        lines = source.splitlines()
        rest = [text for other, text in sources.items() if other != path]
        for name, first, last in public_definitions(source):
            outside = "\n".join(lines[:first - 1] + lines[last:] + rest) + "\n" + elsewhere
            if not re.search(rf"\b{re.escape(name)}\b", outside):
                unnamed.append(f"{path.stem}.{name}")
    return unnamed


def test_every_public_definition_is_named_outside_itself():
    others = sorted((ROOT / "perfbench").glob("*.py"))
    others += [ROOT / "tests" / name for name in END_TO_END_TESTS]
    assert unnamed_definitions(PACKAGE, others) == []
