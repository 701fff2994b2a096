"""The package holds what its CLI runs, and exports only what exists.

A top-level function or class in ``src/casimirspec``, or a non-dunder
method of such a class, must be referenced by name somewhere in the
package outside its own body.  A definition that only tests call belongs
beside those tests.  The check is by name over the syntax trees, so a
method counts as used when any attribute of that name is read.
"""

import ast
from pathlib import Path

import casimirspec

PACKAGE = Path(casimirspec.__file__).parent

# definitions kept with no caller in the package, each with its reason
NO_CALLER_IN_PACKAGE = {
    "exactalg.resultant": (
        "perfbench/tracer.py looks it up by name and counts its calls; it is "
        "the Sylvester-determinant resultant the tests hold resultant_from_roots to"
    ),
}


def _definitions(tree):
    """(qualified name, node) of each top-level def and class, and their non-dunder methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not (
                item.name.startswith("__") and item.name.endswith("__")
            ):
                yield f"{node.name}.{item.name}", item


def _layout():
    """Each definition as (module, qualified name, node), each name read as (name, module, line)."""
    definitions, references = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _definitions(tree):
            definitions.append((path.stem, name, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.append((node.id, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                references.append((node.attr, path.stem, node.lineno))
    return definitions, references


def _unreferenced():
    """Qualified names of the definitions read nowhere outside their own body."""
    definitions, references = _layout()
    return [
        f"{module}.{name}"
        for module, name, node in definitions
        if not any(
            ref == name.rpartition(".")[2]
            and not (ref_module == module and node.lineno <= line <= node.end_lineno)
            for ref, ref_module, line in references
        )
    ]


def test_every_definition_has_a_caller_in_the_package():
    unused = [name for name in _unreferenced() if name not in NO_CALLER_IN_PACKAGE]
    assert unused == [], f"only tests call {unused}; move them beside their tests"


def test_allow_list_names_only_definitions_without_a_caller():
    # an entry whose definition is gone or has gained a caller is stale
    assert set(NO_CALLER_IN_PACKAGE) <= set(_unreferenced())


def test_every_export_resolves():
    missing = [name for name in casimirspec.__all__ if not hasattr(casimirspec, name)]
    assert missing == []
    assert len(set(casimirspec.__all__)) == len(casimirspec.__all__)
