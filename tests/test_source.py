"""Checks on the library source itself."""

import ast
from pathlib import Path

import balhyp


def test_no_assert_statements():
    # post-conditions must be explicit checks: python -O strips assert
    found = []
    for path in sorted(Path(balhyp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
