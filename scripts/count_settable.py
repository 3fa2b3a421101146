#!/usr/bin/env python3
"""Count the settable values of the seltrace library.

A settable value is a function parameter with a default, or a field with a
default in a `@dataclass` class body.  Prints one line per module of
`src/seltrace` and the total.

Usage: python scripts/count_settable.py [package_dir]
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count_settable(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None for stmt in node.body
            )
    return count


def main() -> int:
    pkg = sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src", "seltrace")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            n = count_settable(fh.read())
        total += n
        print(f"{name:<20} {n:>4}")
    print(f"{'total':<20} {total:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
