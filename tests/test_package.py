"""package surface: the import list and __all__ name the same objects,
and every public name but a pinned few is used by the package itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import immersions

# Public names that no package module uses: pure API for callers.  Code
# only the tests need belongs in tests/, not in this set.  A sweep row
# takes alpha from the complement it also matches in, so no module calls
# independence_number.  Enumeration refines each child once and passes
# the colors to the search, so no module calls canonical_form either.
# The builder reads a live vertex's non-neighborhood off its adjacency
# row, so no module calls non_neighborhood.  It extends its own
# certificates past extension_step's input checks, so no module calls
# extension_step, and makes its clique certificates past
# clique_certificate's, so no module calls clique_certificate.  The
# builder and the search test cliqueness on vertex sets they built from
# adjacency rows, past is_clique's argument checks, so no module calls
# is_clique.  Enumeration builds each class from a form its own search
# made, past graph_from_canonical_form's checks, so no module calls
# graph_from_canonical_form.
API_ONLY = {
    "STRONG", "ODD", "canonical_form", "clique_certificate", "enumerate_triangle_free", "extension_step",
    "graph_from_canonical_form", "independence_number", "is_clique", "non_neighborhood",
}


def test_all_matches_public_attributes():
    public = {
        name
        for name, value in vars(immersions).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(immersions.__all__) == len(set(immersions.__all__))
    assert set(immersions.__all__) == public


def _defined_names(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def _used_names(statement: ast.stmt) -> set[str]:
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_but_the_api_only_ones_is_used_by_the_package():
    package = Path(immersions.__file__).parent
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= _used_names(statement) - _defined_names(statement)
    assert set(immersions.__all__) - used == API_ONLY


def test_every_private_name_is_read_by_another_statement():
    """A private module-level name with no reader is dead code: each is
    read by some package statement other than the one that defines it."""
    package = Path(immersions.__file__).parent
    defined, used = set(), set()
    for path in sorted(package.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _defined_names(statement)
            defined |= {(path.name, name) for name in names if name.startswith("_") and not name.endswith("__")}
            used |= _used_names(statement) - names
    assert defined
    assert sorted(f"{module}: {name}" for module, name in defined if name not in used) == []


def test_no_module_imports_a_name_it_never_uses():
    """A deletion takes its imports along: each name a package module
    imports is read in that module or listed in its __all__."""
    package = Path(immersions.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        exported = {
            node.value
            for statement in tree.body
            if "__all__" in _defined_names(statement)
            for node in ast.walk(statement)
            if isinstance(node, ast.Constant)
        }
        unused += [f"{path.name}: {name}" for name in sorted(imported - _used_names(tree) - exported)]
    assert not unused


def test_import_leaves_the_pool_machinery_unloaded():
    """A serial run never starts a pool, so a fresh import of the package
    must not load multiprocessing: run_batch imports it only for one."""
    env = dict(os.environ, PYTHONPATH=str(Path(immersions.__file__).parent.parent))
    code = "import immersions, sys; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
