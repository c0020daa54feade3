"""Count the code lines of the package: lines that are not blank, not
comments and not docstrings.

    python3 tools/code_lines.py [directory]

prints each module's count and the total, for ``src/diagideal`` unless a
directory is given.  A line counts when a token other than a comment
starts on it or runs across it, outside the docstrings of modules,
classes and functions, which ``ast`` locates.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _SKIP and token.type != tokenize.ENCODING:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, filename=str(path))))


def main(argv: list) -> None:
    directory = Path(argv[0]) if argv else ROOT / "src" / "diagideal"
    counts = {path.name: code_lines(path) for path in sorted(directory.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
