"""The paper's transcriptions stay apart from the code they check, by import.

nilbu.paper holds every statement of the paper that a computed result is
compared with.  This test reads the source of every module of the package
with ast, so the rule holds on every branch, not only on those a sweep
reaches (test_independence.py checks the shared helpers at run time):

* paper imports, of the package, only seifert and epimorphisms, and reads
  only validate_char from epimorphisms (a type in an annotation is never
  evaluated, so it reads nothing);
* only the modules in IMPORTERS import paper, and bu_index reads what it
  imports from paper only inside index_report;
* no other module defines any of the seven transcriptions.
"""

import ast
import pathlib

import pytest

import nilbu

TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(pathlib.Path(nilbu.__file__).parent.glob("*.py"))}
PAPER = ("h1_closed_form", "h1_stated_relations", "expected_epi_count",
         "expected_partition_shape", "index_one_case", "index_three_case",
         "expected_quotient_diagram")

# module -> the one function that may read paper's names, or None for any
IMPORTERS = {
    "__init__": None,  # re-exports the seven under the package's names
    "verify": None,  # compares every computed result with the paper's
    "bu_index": "index_report",  # prints the catalog case that matches
}


def _imports(tree):
    """(module, name) per name that tree imports from the package; name is
    None where a module itself is imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {(alias.name.partition(".")[2] or "__init__", None)
                      for alias in node.names
                      if alias.name.partition(".")[0] == "nilbu"}
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if not node.level:  # absolute: only nilbu and its modules count
            if source.partition(".")[0] != "nilbu":
                continue
            source = source.partition(".")[2]
        for alias in node.names:
            if source:
                found.add((source, alias.name))
            elif alias.name in TREES:  # from . import module
                found.add((alias.name, None))
            else:  # from nilbu import name: a re-export of __init__
                found.add(("paper" if alias.name in PAPER else "__init__",
                           alias.name))
    return found


def _annotation_nodes(tree):
    roots = [getattr(node, field, None) for node in ast.walk(tree)
             for field in ("annotation", "returns")]
    return {id(node) for root in roots if isinstance(root, ast.AST)
            for node in ast.walk(root)}


def _defined(tree):
    return {node.name if hasattr(node, "name") else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_paper_imports_only_seifert_and_epimorphisms():
    assert {module for module, _ in _imports(TREES["paper"])} \
        <= {"seifert", "epimorphisms"}


def test_paper_reads_only_validate_char_from_epimorphisms():
    tree = TREES["paper"]
    in_annotation = _annotation_nodes(tree)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "epimorphisms"
            and id(node) not in in_annotation}
    read |= {name for module, name in _imports(tree)
             if module == "epimorphisms" and name}
    assert read == {"validate_char"}


def test_only_the_listed_modules_import_paper():
    importers = {name for name, tree in TREES.items()
                 if any(module == "paper" for module, _ in _imports(tree))}
    assert importers == set(IMPORTERS)


@pytest.mark.parametrize("module", [m for m, f in IMPORTERS.items() if f])
def test_an_importer_reads_paper_only_in_its_function(module):
    tree = TREES[module]
    names = {name for source, name in _imports(tree)
             if source == "paper" and name} | {"paper"}
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == IMPORTERS[module]
              for node in ast.walk(fn)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in names]
    assert reads and all(id(node) in inside for node in reads)


def test_no_other_module_defines_a_transcription():
    assert set(PAPER) <= _defined(TREES["paper"])
    elsewhere = {name: _defined(tree) & set(PAPER)
                 for name, tree in TREES.items() if name != "paper"}
    assert {name: found for name, found in elsewhere.items() if found} == {}
