"""Code lines of the hippasus package: no blank lines, comments or docstrings.

Usage (from the repository root): python bench/code_lines.py

ast finds the docstrings, tokenize the rest.  Prints each module's count,
then the total.  Standard library only; it reads the source and imports
nothing from the package.
"""
import ast
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
total = 0
for path in sorted(Path("src/hippasus").glob("*.py")):
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_text())):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    with path.open("rb") as source:
        code = {line for token in tokenize.tokenize(source.readline)
                if token.type not in NOT_CODE
                for line in range(token.start[0], token.end[0] + 1)}
    total += len(code - docstrings)
    print(f"{len(code - docstrings):6} {path}")
print(f"{total:6} code lines")
