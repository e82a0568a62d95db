"""Count raw and code lines of every module of a Python package.

A code line is one that holds a token other than a comment, a docstring or
whitespace; a line inside a multi-line string that is not a docstring counts.
A docstring is the string literal that opens a module, class or function body.

    python tools/src_lines.py [package directory, default src/objreloc]

prints one `raw code path` row per file, sorted by path, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree):
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(source):
    """(raw lines, code lines) of one module's source text."""
    spans = _docstring_spans(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/objreloc")
    total_raw = total_code = 0
    for path in sorted(root.rglob("*.py")):
        raw, code = count_lines(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{raw:6d} {code:6d} {path}")
    print(f"{total_raw:6d} {total_code:6d} total")


if __name__ == "__main__":
    main(sys.argv)
