"""Rules about the package source itself."""

import ast
from pathlib import Path

import finlat

PACKAGE = Path(finlat.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no runtime contract may rest
    # on one
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = [
        "%s:%d" % (path.relative_to(PACKAGE), node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
