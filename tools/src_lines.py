"""Count code lines under src/repro: per package, and per file or class on request.

    python tools/src_lines.py                         # per package + ROWS
    python tools/src_lines.py --count core/tuner.py   # one more row
    python tools/src_lines.py --markdown              # GitHub-flavoured table

A code line holds at least one token that is not a comment, a docstring or
whitespace; a statement spanning several lines counts each of them.
Docstrings are the leading string statement of a module, class or function.
Stdlib only (``ast`` + ``tokenize``), so it runs before any dependency is
installed.  The report is informational: the exit code is 0 unless a named
file or class does not exist.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from typing import Dict, List, Set, Tuple

#: Files and classes (``FILE[:CLASS]`` relative to src/repro) listed after
#: the per-package table by every run: ``make loc`` and CI print the same.
ROWS = (
    "core/async_engine.py",
    "core/async_engine.py:AsyncExecutionEngine",
    "core/async_engine.py:ClusterEventLoop",
    "core/tuner.py",
    "core/tuner.py:TuningLoop",
    "obs/metrics.py",
    "experiments/makespan_study.py",
)

ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(ROOT, "repro")

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, (body[0].end_lineno or body[0].lineno) + 1))
    return lines


def code_lines(source: str) -> Set[int]:
    """Line numbers of ``source`` that hold code."""
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstring_lines(ast.parse(source))


def count(path: str, name: str = "") -> int:
    """Code lines of a file, or of the class ``name`` in it."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = code_lines(source)
    if not name:
        return len(lines)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == name:
            span = range(node.lineno, (node.end_lineno or node.lineno) + 1)
            return sum(1 for line in span if line in lines)
    raise LookupError(f"no class {name!r} in {path}")


def package_files() -> Dict[str, List[str]]:
    """Python files per top-level entry of src/repro (modules count alone)."""
    groups: Dict[str, List[str]] = {}
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, PACKAGE)
            top = rel.split(os.sep)[0]
            groups.setdefault(top, []).append(path)
    return dict(sorted(groups.items()))


def table(rows: List[Tuple[str, int]], markdown: bool) -> str:
    width = max(len(name) for name, _ in rows)
    if markdown:
        out = ["| path | code lines |", "| --- | ---: |"]
        out += [f"| `{name}` | {n:,} |" for name, n in rows]
    else:
        out = [f"{name:<{width}}  {n:>7,}" for name, n in rows]
    return "\n".join(out)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--count",
        action="append",
        default=[],
        metavar="FILE[:CLASS]",
        help="add a row for one file or class after ROWS; FILE is relative to src/repro",
    )
    parser.add_argument("--markdown", action="store_true", help="emit a markdown table")
    args = parser.parse_args(argv)

    rows: List[Tuple[str, int]] = []
    total = 0
    for top, paths in package_files().items():
        subtotal = sum(count(path) for path in paths)
        total += subtotal
        rows.append((f"repro/{top}", subtotal))
    rows.append(("src/ total", total))
    for spec in ROWS + tuple(args.count):
        rel, _, name = spec.partition(":")
        try:
            rows.append((f"repro/{spec}", count(os.path.join(PACKAGE, rel), name)))
        except (OSError, LookupError) as exc:
            print(f"src_lines: {exc}", file=sys.stderr)
            return 1
    print(table(rows, args.markdown))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
