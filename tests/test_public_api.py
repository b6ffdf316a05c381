"""Every public function and method of trimodal has a reader outside the tests.

A reader is the library itself (outside the name's own definition, and not
`__init__.py`, which only re-exports), the demos, the README or the
benchmark in `perfbench/`.  Python readers count the identifiers their code
uses, including those spelled in non-docstring strings (perfbench names
the `Family` methods it wraps that way); Markdown readers count the words
of their text.  A name is matched by spelling alone, so a method shares its
readers with every other definition of the same name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trimodal"

# name -> the README phrase that documents it: the README names these
# features in prose, not by the function's name, so the scan cannot see them
ALLOWED = {
    "basis.permute_cavities": "cavity permutations, symmetrization (`trimodal.basis`)",
    "dynamics.sector_block": "sector and symmetry block extraction (`trimodal.dynamics`",
    "dynamics.permutation_symmetric_block":
        "sector and symmetry block extraction (`trimodal.dynamics`",
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def _code_tokens(tree: ast.AST) -> Counter:
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(_WORD.findall(node.value))
    return out


def _definitions(tree: ast.Module):
    """(qualified name, def node) of each public module-level function and
    each public method of a public module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _unread_names() -> list[str]:
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    readers = Counter()
    for tree in modules.values():
        readers += _code_tokens(tree)
    for pattern in ("demos/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            readers += _code_tokens(ast.parse(path.read_text(encoding="utf-8")))
    for pattern in ("README.md", "perfbench/*.md"):
        for path in sorted(ROOT.glob(pattern)):
            readers.update(_WORD.findall(path.read_text(encoding="utf-8")))
    unread = []
    for path, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if readers[name] - _code_tokens(node)[name] <= 0:
                unread.append(f"{path.stem}.{qualname}")
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    unread = _unread_names()
    assert [name for name in unread if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unread_and_documented():
    assert sorted(set(ALLOWED) - set(_unread_names())) == []
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert [name for name, phrase in ALLOWED.items() if phrase not in readme] == []
