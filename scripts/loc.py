"""Line counts of the ttsynth package, per module and in total.

For each module of src/ttsynth this prints all its lines and its code
lines: the lines left once docstrings, comments and blank lines are taken
out. A docstring is the string that opens a module, class or function
body (found with ast); a comment line holds nothing but a comment.

Usage: python scripts/loc.py [PACKAGE_DIR]   (default: src/ttsynth)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    lines = source.splitlines()
    docstrings = _docstring_lines(ast.parse(source))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "ttsynth"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no modules in {package}", file=sys.stderr)
        return 2
    width = max(len(m.name) for m in modules)
    print(f"{'module'.ljust(width)}  {'lines':>6}  {'code':>6}")
    total_lines = total_code = 0
    for module in modules:
        lines, code = count(module.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{module.name.ljust(width)}  {lines:>6,}  {code:>6,}")
    print(f"{'total'.ljust(width)}  {total_lines:>6,}  {total_code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
