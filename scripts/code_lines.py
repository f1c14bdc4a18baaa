"""Count the code lines of each module of src/localex, and the classes that
build a dataclass at import.

    python3 scripts/code_lines.py

A code line holds a token. Blank lines, comments and docstrings (the string
that opens a module, class or function body) are left out; a line of a string
that spans lines is a code line unless the string is a docstring. Prints one
line per module, then the total, then how many localex classes build a
dataclass at import: those whose own __dict__ holds __dataclass_params__ once
localex.cli is imported (a subclass that inherits its parent's generated
methods does not count).
"""
from __future__ import annotations

import ast
import importlib
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
PACKAGE = os.path.join(SRC, "localex")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def dataclass_count() -> int:
    sys.path.insert(0, SRC)
    importlib.import_module("localex.cli")
    classes = {obj for name, module in sys.modules.items()
               if name.split(".")[0] == "localex"
               for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == name}
    return sum("__dataclass_params__" in vars(cls) for cls in classes)


def main() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:5d}  {name}")
    print(f"{total:5d}  total")
    print(f"{dataclass_count():5d}  classes built as dataclasses at import")
    return 0


if __name__ == "__main__":
    sys.exit(main())
