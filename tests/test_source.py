"""Rules about the package source itself."""

import ast
import inspect
import textwrap
from pathlib import Path

import finlat
from finlat import comphom

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


def _unused_imports(tree):
    """The names that the module's top-level imports bind and that nothing
    in the module reads, `__all__` aside."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_package_imports_only_what_it_uses():
    found = [
        "%s:%d %s" % (path.relative_to(PACKAGE), line, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_order_continuity_conditions_never_apply_one_vector_at_a_time():
    # the conditions map each per-dimension vector table through
    # HomMatrix.images in one pass; HomMatrix.apply is for outside callers
    found = [
        "%s:%d" % (name, node.lineno)
        for name, check in comphom.HOC_CONDITIONS.items()
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(check))))
        if isinstance(node, ast.Attribute) and node.attr == "apply"
    ]
    assert found == []
