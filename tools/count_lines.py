"""Line counts of the package's modules: ``wc -l`` and an ``ast`` split.

Each line of a module under src/triform is counted once, as

* docstring: a line of a module, class or function docstring;
* comment: a line that holds only a comment;
* blank: an empty or whitespace-only line outside docstrings;
* code: every other line.

Run from anywhere: ``python tools/count_lines.py``.  It prints one row per
module and a total row; ROADMAP.md quotes the total's code count.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "triform"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def split(source: str) -> dict:
    """{kind: number of lines} of one module's source."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        kind = ("docstring" if number in docs else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main() -> int:
    rows = {path.name: split(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}  {'wc -l':>6}" + "".join(f"  {k:>9}" for k in KINDS))
    for name, counts in rows.items():
        print(f"{name:<{width}}  {sum(counts.values()):>6}"
              + "".join(f"  {counts[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
