"""Print the line counts of each source file of the package.

    python tools/loc.py [SRC_DIR]

For each `*.py` file under SRC_DIR (default `src/myoarm`), print its
physical lines and its code lines, then the totals. Code lines are the
lines that hold some code: blank lines, comment lines and docstrings do
not count, and neither do the lines a docstring spans. This is the count
a change reports as its net source LOC. The script only reports; it
exits 0 whatever the counts are.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree) -> set:
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str):
    """(physical lines, code lines) of one Python source text."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docs)
    return len(source.splitlines()), len(code)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/myoarm")
    total_physical = total_code = 0
    print(f"{'physical':>9} {'code':>6}  file")
    for path in sorted(root.rglob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{physical:>9} {code:>6}  {path.as_posix()}")
    print(f"{total_physical:>9} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
