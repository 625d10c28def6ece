"""Rules about the package source itself."""

import ast
import inspect
import textwrap
from pathlib import Path

import finlat
from finlat import comphom
from finlat.verify import mutations

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
    # the conditions map each per-dimension vector table in one pass, through
    # HomMatrix.image_rows; HomMatrix.apply is for outside callers
    found = [
        "%s:%d" % (name, node.lineno)
        for name, check in comphom.HOC_CONDITIONS.items()
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(check))))
        if isinstance(node, ast.Attribute) and node.attr == "apply"
    ]
    assert found == []


# Every process-wide memo in the package, as module.name: its bound, and
# whether verify.mutations.apply_mutation clears it on install and restore.
MEMOS = {
    "cli._parser": ("one argument parser", False),
    "comphom._coordinate_ideals": (
        "one table per dimension, 2^n entries each; its closed dict keeps "
        "every (TG)^dd image-dd closes", True),
    "comphom._probe_positives": ("one table of 2n + 1 probes per dimension", False),
    "comphom._directed_sup_table": (
        "one table per dimension, 2^n indicators up to n = 12", False),
    "funclat._full_space": ("one lattice per dimension", False),
    "verify.properties._sign_pairs": ("3^n pairs per row length", False),
    "verify.properties._row_breaks_some_sign_vector": (
        "one verdict per distinct scaled row the P-hom streams draw", False),
    "verify.properties._space": (
        "the 389 labelled topologies on 1-4 points", False),
    "verify.properties._topologies": ("one tuple per n in 1..4", False),
}


def _is_memo(node):
    """cache, functools.cache or lru_cache, called or not."""
    while isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def _memos_in(module, tree):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(map(_is_memo, node.decorator_list))):
            yield "%s.%s" % (module, node.name)
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and _is_memo(node.value):
            for target in node.targets:
                yield "%s.%s" % (module, target.id)


def test_every_process_wide_memo_is_in_the_census():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found.update(_memos_in(module, ast.parse(path.read_text(), str(path))))
    assert sorted(found) == sorted(MEMOS)
    # the second column: the memos apply_mutation clears by name
    source = textwrap.dedent(inspect.getsource(mutations.apply_mutation))
    cleared = {
        "%s.%s" % (node.func.value.value.id, node.func.value.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cache_clear"
    }
    assert cleared == {name for name, (_, clears) in MEMOS.items() if clears}
