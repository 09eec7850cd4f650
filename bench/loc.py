#!/usr/bin/env python3
"""Line counts of the ``nupolar`` package, printed as one JSON line.

``lines`` counts every line of every ``.py`` file under ``src/nupolar``;
``code_lines`` leaves out blank lines, comment-only lines and the lines of
docstrings (the string that opens a module, class or function body).

    python3 bench/loc.py [--src DIR]
"""

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(lines, code_lines)`` of one Python source text."""
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    has_token = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            has_token.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), len(has_token - skip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src directory (default: this checkout)")
    args = parser.parse_args(argv)
    files = sorted((args.src / "nupolar").glob("*.py"))
    if not files:
        parser.error(f"no nupolar package under {args.src}")
    totals = [count(path.read_text()) for path in files]
    print(json.dumps({"package": "src/nupolar", "files": len(files),
                      "lines": sum(t[0] for t in totals), "code_lines": sum(t[1] for t in totals)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
