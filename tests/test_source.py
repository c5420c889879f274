"""Checks over the qcycle source text."""

import ast
import pathlib

import qcycle


def test_no_assert_statements():
    # python -O strips assert, so invariants must raise explicitly
    root = pathlib.Path(qcycle.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
