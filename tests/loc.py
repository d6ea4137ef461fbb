"""Print the code lines of each src/divmax module and their total.

A code line is one that is not blank, not a comment alone and not inside a
docstring. Run from the repository root: python tests/loc.py
"""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "divmax"


def code_lines(source: str) -> int:
    skip = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


if __name__ == "__main__":
    total = 0
    for path in sorted(ROOT.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
