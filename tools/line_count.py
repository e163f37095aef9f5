"""Count the code lines of each module of src/cdsplit.

    python3 tools/line_count.py [REV]

A code line holds at least one token that is not a comment, and is not part
of a docstring (the string that opens a module, class or function body);
blank lines do not count.  The lines of a multi-line expression each count.
Without REV the script prints the count of each module of the checkout and
the total.  With REV, any git revision of this repository, it reads the
same directory at REV with ``git show`` and prints both counts and their
difference per module; a module present on one side only counts 0 on the
other.  Exit code 2 means a usage error or a revision git cannot read.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/cdsplit"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def counts_at(rev: str | None) -> dict[str, int]:
    """Code lines per module of src/cdsplit, in the checkout or at ``rev``."""
    if rev is None:
        return {p.name: code_lines(p.read_text()) for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: code_lines(_git("show", f"{rev}:{PACKAGE}/{name}"))
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print("usage: python3 tools/line_count.py [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else None
    try:
        base = counts_at(rev) if rev is not None else None
    except subprocess.CalledProcessError as exc:
        print(f"error: git cannot read {rev}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    here = counts_at(None)
    if base is None:
        for name, n in here.items():
            print(f"{name:24} {n:6}")
        print(f"{'total':24} {sum(here.values()):6}")
        return 0
    print(f"{'module':24} {rev[:12]:>12} {'checkout':>9} {'change':>7}")
    for name in sorted(set(base) | set(here)):
        a, b = base.get(name, 0), here.get(name, 0)
        print(f"{name:24} {a:12} {b:9} {b - a:+7}")
    a, b = sum(base.values()), sum(here.values())
    print(f"{'total':24} {a:12} {b:9} {b - a:+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
