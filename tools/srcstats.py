"""Split the lines of src/qrsgame into code, docstring, comment and blank.

Run from anywhere in a git checkout:

    python tools/srcstats.py

It prints one table for the working tree (HEAD), one for the first parent
(HEAD^1, read with git show) and their per-column difference, so deleted
comments and moved code can be told apart from code removed. ast finds the
docstrings and tokenize the comments; a line with code and a comment is code.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/qrsgame"
COLUMNS = ("code", "doc", "comment", "blank", "total")
_SKIP = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def split(text):
    """[code, doc, comment, blank, total] line counts of one module's source."""
    doc, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= code | doc
    total = len(text.splitlines())
    return [len(code), len(doc), len(comment), total - len(code | doc | comment), total]


def _git(*args):
    return subprocess.run(("git", *args), capture_output=True, text=True, check=True,
                          cwd=ROOT).stdout


def modules(rev=None):
    """{module: split} of the package in the checkout, or at a commit read with git show."""
    if rev is None:
        return {p.name: split(p.read_text(encoding="utf-8"))
                for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = [n for n in _git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
             if n.endswith(".py")]
    return {Path(n).name: split(_git("show", f"{rev}:{n}")) for n in names}


def table(title, rows):
    """The rows as a fixed-width table under its title, with a total row."""
    lines = [title, f"{'module':<12}" + "".join(f"{c:>9}" for c in COLUMNS)]
    sums = [0] * len(COLUMNS)
    for name, row in sorted(rows.items()):
        sums = [a + b for a, b in zip(sums, row)]
        lines.append(f"{name:<12}" + "".join(f"{v:>9}" for v in row))
    lines.append(f"{'total':<12}" + "".join(f"{v:>9}" for v in sums))
    return "\n".join(lines)


def main():
    head = modules()
    print(table("HEAD", head))
    try:
        parent = modules("HEAD^1")
    except subprocess.CalledProcessError:
        print("HEAD^1: not in this checkout")
        return 0
    print(table("HEAD^1", parent))
    zero = [0] * len(COLUMNS)
    print(table("HEAD - HEAD^1", {
        name: [a - b for a, b in zip(head.get(name, zero), parent.get(name, zero))]
        for name in head.keys() | parent.keys()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
