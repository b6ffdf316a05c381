"""Every public name, member and keyword of trimodal has a reader outside the tests.

A reader is the library itself (outside the definition being read, and not
`__init__.py`, which only re-exports), the demos, the README or the
benchmark in `perfbench/`.  Three rules:

- A public module-level function is read when a Python reader uses its
  identifier, including in a non-docstring string, or the README or
  perfbench's Markdown names it.
- A dataclass field, property or method of a public class is read only
  through an attribute load (`x.name`) or a `getattr(x, "name")` string.  A
  member name is ambiguous when another class of the library defines it
  too, or when a reader assigns it as an attribute (perfbench's
  `self.phases = ...`): a load then cannot say which member it reads.  An
  ambiguous member needs an entry in READERS naming a reader that loads it.
- A keyword with a default, of a public function or method, needs a call
  outside the tests that passes it, by keyword or by position.  A call that
  only forwards its own caller's parameter counts when that parameter is
  passed in turn.

A name, member or keyword the README documents only in prose sits in
ALLOWED, with the phrase that documents it.

The same parse checks the package's layering: a module imports its
siblings at module level only.
"""

import ast
import re
from collections import Counter, defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trimodal"

# name, Class.member or function(keyword) -> the README phrase that documents
# it: the README names these features in prose, so the scans cannot see them
ALLOWED = {
    "basis.permute_cavities": "cavity permutations, symmetrization (`trimodal.basis`)",
    "analytic.Family.amplitudes_from_state": "`amplitudes_from_state` reads the labels back off a manifold state",
    "dynamics.Block.embedding": "keeps its columns as its `embedding`",
    "entanglement.OverlapResult.start_index": "ties still go to the lowest start index",
    "entanglement.OverlapResult.row_sweeps": "`row_sweeps`",
    "entanglement.OverlapResult.unconverged_starts": "`unconverged_starts`",
    "evolve.sector_probabilities(by)": "per-pattern sector probabilities",
    "scan.dwell_time(quadrature_points)": "`quadrature_points` sets another count, 1 to 1024",
    "scan.dwell_times(quadrature_points)": "`quadrature_points` sets another count, 1 to 1024",
}

# module.Class.member -> "path::qualified name" of a reader that loads it,
# for each member whose name is ambiguous
READERS = {
    "analytic.AmplitudeSet.family": "src/trimodal/analytic.py::n2_exchange_symmetric",
    "analytic.AmplitudeSet.labels": "src/trimodal/analytic.py::AmplitudeSet.__getitem__",
    "analytic.Family.labels": "src/trimodal/scan.py::family_objective",
    "analytic.Family.manifold": "src/trimodal/verification.py::_invariants",
    "analytic.Family.modulus_period": "demos/03_closed_form_families.py::main",
    "analytic.Family.patterns": "src/trimodal/analytic.py::Family.labels",
    "analytic.Family.n_total": "src/trimodal/analytic.py::Family.amplitudes_from_state",
    "basis.BasisState.levels": "src/trimodal/cli.py::_cmd_basis",
    "basis.Manifold.levels": "src/trimodal/dynamics.py::_hopping_matrix",
    "basis.Manifold.patterns": "src/trimodal/evolve.py::sector_probabilities",
    "basis.Manifold.n_total": "src/trimodal/dynamics.py::build_full_generator",
    "basis.StateVector.amplitudes": "src/trimodal/evolve.py::propagate",
    "basis.StateVector.manifold": "src/trimodal/evolve.py::propagate",
    "cli.RunConfig.delta": "src/trimodal/cli.py::_generator",
    "cli.RunConfig.family": "src/trimodal/cli.py::_cmd_scan",
    "cli.RunConfig.r": "src/trimodal/cli.py::_generator",
    "cli.RunConfig.seed": "src/trimodal/cli.py::_cmd_entangle",
    "cli.RunConfig.times": "src/trimodal/cli.py::_cmd_evolve",
    "cli.RunConfig.xi": "src/trimodal/cli.py::_generator",
    "dressed.DressedParams.delta": "src/trimodal/dressed.py::splitting",
    "dressed.DressedParams.r": "src/trimodal/dressed.py::splitting",
    "dynamics.Block.manifold": "src/trimodal/dynamics.py::symmetry_blocks",
    "dynamics.Block.matrix": "src/trimodal/dynamics.py::symmetry_blocks",
    "dynamics.Generator.blocks": "src/trimodal/evolve.py::spectrum",
    "dynamics.Generator.manifold": "src/trimodal/evolve.py::propagate",
    "dynamics.Generator.matrix": "src/trimodal/cli.py::_cmd_dynamics",
    "dynamics.Generator.xi": "src/trimodal/evolve.py::propagate",
    "entanglement.ProductState.manifold":
        "src/trimodal/entanglement.py::ProductState.__post_init__",
    "evolve.Spectrum.blocks": "src/trimodal/evolve.py::_live_blocks",
    "evolve.Trajectory.amplitudes": "src/trimodal/cli.py::_cmd_evolve",
    "evolve.Trajectory.manifold": "src/trimodal/evolve.py::sector_probabilities",
    "evolve.Trajectory.times":
        "perfbench/test_checks.py::test_mode_expansion_check_rejects_a_wrong_coefficient",
    "scan.DwellTime.value": "src/trimodal/verification.py::_dwell",
    "scan.Extremum.value": "src/trimodal/cli.py::_cmd_scan",
    "scan.PeriodInfo.modulus_period": "demos/05_recurrence_and_scans.py::main",
    "verification.CheckResult.check_id": "src/trimodal/verification.py::render_table",
    "verification.CheckResult.detail": "src/trimodal/verification.py::render_table",
    "verification.CheckResult.expected": "src/trimodal/verification.py::render_table",
    "verification.CheckResult.tolerance": "src/trimodal/verification.py::render_table",
}

_WORD = re.compile(r"[A-Za-z_]\w*")


@cache
def _parse(path: Path) -> ast.Module:
    """One tree per file, so a node found twice is the same object."""
    return ast.parse(path.read_text(encoding="utf-8"))


def _modules() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _python_readers() -> dict[str, ast.Module]:
    """Every Python reader by its path from the repository root."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("demos/*.py")),
             *sorted(ROOT.glob("perfbench/*.py"))]
    return {str(p.relative_to(ROOT)): _parse(p) for p in paths if p.name != "__init__.py"}


def _docstrings(tree: ast.AST) -> set[int]:
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}


def _code_tokens(tree: ast.AST) -> Counter:
    docstrings = _docstrings(tree)
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


def _loads(tree: ast.AST) -> Counter:
    """Attribute names loaded as `x.name` or `getattr(x, "name", ...)`."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            out[node.args[1].value] += 1
    return out


def _public_classes(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]


def _members(cls: ast.ClassDef):
    """(name, node) of each public field, property and method of a class."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        elif isinstance(node, ast.FunctionDef):
            name = node.name
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def _is_property(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")).endswith("property")
        for d in node.decorator_list)


def _unread_names() -> list[str]:
    """Public module-level functions no reader names."""
    modules = _modules()
    readers = Counter()
    for tree in _python_readers().values():
        readers += _code_tokens(tree)
    for pattern in ("README.md", "perfbench/*.md"):
        for path in sorted(ROOT.glob(pattern)):
            readers.update(_WORD.findall(path.read_text(encoding="utf-8")))
    return [f"{stem}.{node.name}" for stem, tree in modules.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and readers[node.name] - _code_tokens(node)[node.name] <= 0]


def _all_members() -> dict[str, tuple[str, ast.AST]]:
    """module.Class.member -> (member name, its node)."""
    return {f"{stem}.{cls.name}.{name}": (name, node)
            for stem, tree in _modules().items() for cls in _public_classes(tree)
            for name, node in _members(cls)}


def _ambiguous_names() -> set[str]:
    """Member names defined by two classes of the library, private ones
    too, or assigned as an attribute by a reader."""
    defined = Counter(name for tree in _modules().values() for cls in tree.body
                      if isinstance(cls, ast.ClassDef) for name, _ in _members(cls))
    stored = {node.attr for tree in _python_readers().values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    return {name for name, n in defined.items() if n > 1} | stored


def _unread_members() -> list[str]:
    """Unambiguous members with no attribute load outside their own
    definition, and ambiguous ones with no READERS entry."""
    members = _all_members()
    ambiguous = _ambiguous_names()
    loads = Counter()
    for tree in _python_readers().values():
        loads += _loads(tree)
    return [key for key, (name, node) in members.items()
            if key not in READERS
            and (name in ambiguous or loads[name] - _loads(node)[name] <= 0)]


def _find(tree: ast.Module, qualname: str) -> ast.AST | None:
    """The function or class at a dotted name."""
    node = tree
    for part in qualname.split("."):
        node = next((child for child in node.body
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     and child.name == part), None)
        if node is None:
            return None
    return node


def _defaulted(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(keyword, position or None for keyword-only) of each defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(a.arg, k) for k, a in enumerate(positional) if k >= first]
            + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def _calls():
    """(callee name, call, enclosing function) of every call in a Python
    reader; the enclosing function is its node, and its key `module.name` or
    `module.Class.name` in the library, or None at module level."""
    def visit(node, stem, qual, fn):
        for child in ast.iter_child_nodes(node):
            inner_qual, inner_fn = qual, fn
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner_qual = [*qual, child.name]
                if isinstance(child, ast.FunctionDef):
                    inner_fn = (child, stem and ".".join([stem, *inner_qual]))
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name:
                    yield name, child, fn
            yield from visit(child, stem, inner_qual, inner_fn)

    for path, tree in _python_readers().items():
        stem = Path(path).stem if path.startswith("src/") else None
        yield from visit(tree, stem, [], None)


def _public_functions() -> dict[str, tuple[ast.FunctionDef, int]]:
    """`module.function` or `module.Class.method` -> (node, leading
    parameters a call through an attribute does not pass: 1 for self)."""
    functions = {}
    for stem, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions[f"{stem}.{node.name}"] = (node, 0)
        for cls in _public_classes(tree):
            for name, node in _members(cls):
                if isinstance(node, ast.FunctionDef) and not _is_property(node):
                    functions[f"{stem}.{cls.name}.{name}"] = (node, 1)
    return functions


def _unpassed_keywords() -> list[str]:
    """`module.function(keyword)` for each defaulted keyword of a public
    function or method that no call outside the tests passes."""
    functions = _public_functions()
    by_name = defaultdict(list)
    for key, (node, skip) in functions.items():
        by_name[node.name].append((key, node, skip))
    passed: set[str] = set()
    forwards = defaultdict(set)   # keyword -> the enclosing keywords it forwards
    for name, call, enclosing in _calls():
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        starred = len(positional) < len(call.args)
        given = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        # a library function's own defaulted keyword, handed on unchanged
        own = set()
        if enclosing is not None and enclosing[1] in functions:
            own = {arg for arg, _ in _defaulted(enclosing[0])}
        for key, node, skip in by_name.get(name, ()):
            if enclosing is not None and enclosing[0] is node:
                continue
            for arg, at in _defaulted(node):
                value = given.get(arg)
                if value is None and at is not None and not starred:
                    k = at - (skip if isinstance(call.func, ast.Attribute) else 0)
                    value = positional[k] if 0 <= k < len(positional) else None
                if value is None:
                    continue
                if isinstance(value, ast.Name) and value.id in own:
                    forwards[f"{key}({arg})"].add(f"{enclosing[1]}({value.id})")
                else:
                    passed.add(f"{key}({arg})")
    while True:
        more = {target for target, sources in forwards.items()
                if target not in passed and sources & passed}
        if not more:
            break
        passed |= more
    return [f"{key}({arg})" for key, (node, _) in functions.items()
            for arg, _ in _defaulted(node) if f"{key}({arg})" not in passed]


def _unread() -> list[str]:
    return _unread_names() + _unread_members() + _unpassed_keywords()


def test_every_public_name_has_a_reader_outside_the_tests():
    assert [name for name in _unread() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unread_and_documented():
    assert sorted(set(ALLOWED) - set(_unread())) == []
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert [name for name, phrase in ALLOWED.items() if phrase not in readme] == []


def test_every_reader_entry_names_an_ambiguous_member_its_reader_loads():
    members = _all_members()
    ambiguous = _ambiguous_names()
    trees = _python_readers()
    wrong = []
    for key, reader in READERS.items():
        path, _, qualname = reader.partition("::")
        node = _find(trees[path], qualname) if path in trees else None
        name = key.rpartition(".")[2]
        if not (key in members and name in ambiguous and node is not None
                and node is not members[key][1] and _loads(node)[name] > 0):
            wrong.append(key)
    assert wrong == []


def _sibling_import(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").partition(".")[0] == "trimodal"
    return isinstance(node, ast.Import) and any(
        alias.name.partition(".")[0] == "trimodal" for alias in node.names)


def test_no_module_imports_a_sibling_inside_a_function():
    # the package's layering is its module-level imports: a sibling import
    # run at call time hides an edge of that graph
    inner = {f"{stem}.py:{node.lineno}" for stem, tree in _modules().items()
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if _sibling_import(node)}
    assert sorted(inner) == []
