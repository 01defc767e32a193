"""Count the code lines of each ``src/gols/`` module.

A code line holds at least one token that is not a comment and not part of
a docstring (the string that opens a module, class or function body), so
blank lines, comments and docstrings are left out.  Prints one
``<module> <lines>`` line per module, largest first, then the total.

    python tools/code_lines.py [package directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            string = node.body[0]
            lines.update(range(string.lineno, string.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    source = Path(path).read_text()
    skipped = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src" / "gols"
    counts = {path.stem: code_lines(path) for path in package.glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
