"""Count the code lines of each module of a package directory.

A code line holds at least one token that is not a comment, a line
break, an indent or a docstring.  A docstring is the string literal that
opens a module, class or function body.

    python tools/code_lines.py src/crossdiff
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that a docstring of the tree spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in one module's source text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.start[0] in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: python tools/code_lines.py PACKAGE_DIR")
    total = 0
    for path in sorted(Path(args[0]).glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:20} {n:6}")
    print(f"{'total':20} {total:6}")


if __name__ == "__main__":
    main()
