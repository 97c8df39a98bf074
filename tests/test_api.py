"""The package's public surface: top-level names, the names the bench wraps,
and the report shapes its checks read."""

import ast
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import polysect
from polysect.bodies import BodyOracle
from polysect.cones import ConeOracle

ROOT = Path(__file__).resolve().parent.parent


def test_top_level_names_are_the_readme_example_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Library example", 1)[1].split("```python", 1)[1]
    example = example.split("```", 1)[0]
    imports = re.search(r"^from polysect import (.+)$", example, re.MULTILINE)
    names = [n.strip() for n in imports.group(1).split(",")]
    assert sorted(polysect.__all__) == sorted(names)
    for name in names:
        assert getattr(polysect, name) is not None


def _perfbench_module(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _perfbench_module("tracer")


def _tracer_tables():
    module = _tracer_module()
    return module.FUNCTIONS, module.METHODS


@pytest.mark.parametrize("seed", [1, 9001])
@pytest.mark.parametrize("name", ["oracle-scan", "exact-sections", "exact-queries"])
def test_benchmark_checks_pass_on_one_request_of_each_kind(name, seed, tmp_path):
    # the in-process workloads' own checks read verdicts, witnesses and
    # budgets; a report change that breaks them must fail here
    workload = _perfbench_module("workloads").WORKLOADS[name](str(ROOT), seed, str(tmp_path))
    workload.setup()
    kinds = set()
    for request in workload.pass_requests(0):
        if request.kind not in kinds:
            kinds.add(request.kind)
            request.check(request.call())
    assert len(kinds) >= 5


def test_traced_functions_and_methods_exist():
    # the benchmark's --trace run wraps these by name; a deletion must fail here
    functions, methods = _tracer_tables()
    for short, names in functions.items():
        module = importlib.import_module(f"polysect.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"polysect.{short}.{name}"
    for short, cls_name, meth in methods:
        cls = getattr(importlib.import_module(f"polysect.{short}"), cls_name)
        assert meth in cls.__dict__, f"polysect.{short}.{cls_name}.{meth}"


def test_tracer_round_trip_reaches_the_exact_layers():
    # a --trace 1 run installs the tracer after importing polysect.cli; the
    # exact queries must still pass through the wrapped layers, and
    # uninstalling must put every original back
    importlib.import_module("polysect.cli")
    mod = {m: importlib.import_module(f"polysect.{m}") for m in (
        "geometry", "polytope", "cones", "silhouette",
    )}
    functions, methods = _tracer_tables()
    originals = {
        (short, name): getattr(importlib.import_module(f"polysect.{short}"), name)
        for short, names in functions.items() for name in names
    }
    raw_methods = {
        key: getattr(importlib.import_module(f"polysect.{key[0]}"), key[1]).__dict__[key[2]]
        for key in methods
    }
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        cube = mod["polytope"].convex_hull(
            [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        )
        plane = mod["geometry"].AffineFlat.spanning((0, 0, 0), [(1, 2, 0), (0, 1, 1)])
        mod["polytope"].project(cube, plane)
        mod["cones"].visual_cone((3, 1, 2), cube)
        mod["silhouette"].shadow_walk(cube, (1, 2, 3))
        assert mod["polytope"].Polytope.contains(cube, (0, 0, 0)) == "interior"
    finally:
        tracer.uninstall()
    calls = {name: st[0] for name, st in tracer.snapshot()["stats"].items()}
    for name in (
        "polytope.convex_hull", "hull.hull_full_dim", "polytope.project",
        "cones.visual_cone", "silhouette.shadow_walk", "geometry.flat_spanning",
        "polytope.contains",
    ):
        assert calls.get(name, 0) >= 1, name
    for (short, name), fn in originals.items():
        assert getattr(importlib.import_module(f"polysect.{short}"), name) is fn
    for (short, cls_name, meth), raw in raw_methods.items():
        cls = getattr(importlib.import_module(f"polysect.{short}"), cls_name)
        assert cls.__dict__[meth] is raw


def _readme_table_rows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## What's inside", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert rows, "the README's module table is missing"
    return rows


def _readme_table_names():
    rows = _readme_table_rows()
    return sorted({name for row in rows for name in re.findall(r"`([^`]+)`", row)})


README_CELL_LIMIT = 600


def _long_readme_cells(rows):
    """(module, length) of each row whose contents cell is over the limit."""
    out = []
    for row in rows:
        module, cell = (c.strip() for c in row.strip().strip("|").split("|", 1))
        if len(cell) > README_CELL_LIMIT:
            out.append((module, len(cell)))
    return out


def test_readme_module_table_cells_say_what_not_how():
    # a cell names what its module offers; how it works lives in docstrings,
    # so a row that grows into a route history fails here
    assert not _long_readme_cells(_readme_table_rows())


def test_long_readme_cell_is_caught():
    short = "| `polysect.svg` | " + "x" * README_CELL_LIMIT + " |"
    assert _long_readme_cells([short]) == []
    assert _long_readme_cells([short.replace("x |", "xx |")]) == [
        ("`polysect.svg`", README_CELL_LIMIT + 1)
    ]


def _resolves(name: str) -> bool:
    """Is a README name a polysect module, a name in one, an attribute of a
    class defined in one (each possibly followed by attributes), or a
    builtin?  A call such as `edges()` is looked up without its arguments."""
    import builtins
    import pkgutil

    name = name.split("(", 1)[0]
    if name == "polysect" or name.startswith("polysect."):
        return importlib.util.find_spec(name) is not None
    modules = [
        importlib.import_module(f"polysect.{m.name}")
        for m in pkgutil.iter_modules(polysect.__path__)
    ]
    head, *rest = name.split(".")
    found = [vars(m)[head] for m in modules if head in vars(m)]
    found += [
        vars(cls)[head]
        for m in modules
        for cls in vars(m).values()
        if isinstance(cls, type) and cls.__module__ == m.__name__ and head in vars(cls)
    ]
    if hasattr(builtins, head):
        found.append(getattr(builtins, head))
    for attr in rest:
        found = [getattr(obj, attr) for obj in found if hasattr(obj, attr)]
    return bool(found)


def test_readme_module_table_names_resolve():
    # a name deleted from the package must leave the README's table too
    missing = [name for name in _readme_table_names() if not _resolves(name)]
    assert not missing, missing


COUNT_WORDS = ("no", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine")


def _field_list_mismatches(readme: str, classes) -> list[str]:
    """Names of the classes whose README sentence "A `C` has <n> fields:
    `a`, ... and `z`." is missing, or does not name exactly the class's
    dataclass fields, in order and with the right count."""
    sentences = {
        name: (count, re.findall(r"`(\w+)`", names))
        for name, count, names in re.findall(r"A `(\w+)` has (\w+) fields: ([^.]+)\.", readme)
    }
    out = []
    for cls in classes:
        fields = [f.name for f in dataclasses.fields(cls)]
        if sentences.get(cls.__name__) != (COUNT_WORDS[len(fields)], fields):
            out.append(cls.__name__)
    return out


def test_readme_field_lists_match_the_oracle_classes():
    # a field added to or deleted from an oracle class must move its README sentence
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _field_list_mismatches(readme, (BodyOracle, ConeOracle)) == []


def test_stale_field_list_is_caught():
    listed = "A `ConeOracle` has four fields: `dim`, `member`, `axis_hint` and\n`ray_interval`."
    assert _field_list_mismatches(listed, (ConeOracle,)) == []
    stale = "A `ConeOracle` has five fields: `dim`, `member`, `axis_hint`, `exact` and `ray_interval`."
    assert _field_list_mismatches(stale, (ConeOracle,)) == ["ConeOracle"]
    assert _field_list_mismatches(listed.replace("four", "five"), (ConeOracle,)) == ["ConeOracle"]
    assert _field_list_mismatches(listed, (BodyOracle,)) == ["BodyOracle"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads (a name in `__all__` counts
    as read: the package re-exports it)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # the repo has no linter; an import orphaned by a deletion must fail here
    orphans = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "polysect").glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not orphans, orphans


def _private_definitions(stmt) -> list[str]:
    """Module-level `_name`s a top-level statement defines (dunders aside)."""
    return [n for n in _defined_names(stmt) if n.startswith("_") and not n.startswith("__")]


def _defined_names(stmt) -> list[str]:
    """The names a top-level def, class or assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced_names(node) -> set[str]:
    """Names a statement reads: plain names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _unreached_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no public statement of any module
    reads, directly or through private definitions that one reads (a
    definition's reads of itself do not count): the src counterpart of
    `_unused_helpers`."""
    refs, defined, todo = {}, [], set()
    for module, text in sorted(sources.items()):
        for stmt in ast.parse(text).body:
            private = _private_definitions(stmt)
            read = _referenced_names(stmt) - {*private}
            if private and len(private) == len(_defined_names(stmt)):
                for name in private:
                    refs.setdefault(name, set()).update(read)
                    defined.append((module, name))
            else:
                todo |= read
    reached = set()
    while todo:
        name = todo.pop()
        if name in refs and name not in reached:
            reached.add(name)
            todo |= refs[name]
    return [f"{module}: {name}" for module, name in defined if name not in reached]


def test_every_private_src_name_has_a_src_caller():
    # a route moved to tests/helpers.py, or replaced, must not leave a copy
    # (or a chain of private helpers) that only tests still call
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in (ROOT / "src" / "polysect").glob("*.py")
    }
    unreached = _unreached_private_names(sources)
    assert not unreached, unreached


def test_private_src_check_follows_private_names_that_call_private_names():
    sources = {
        "a.py": (
            "def public(): return _used()\n"
            "def _used(): return _rec()\n"
            "def _rec(): return _rec()\n"
            "def _self(): return _self()\n"
            "def _head(): return _tail()\n"
            "def _tail(): pass\n"
            "def _ping(): return _pong()\n"
            "def _pong(): return _ping()\n"
            "class _Lonely: pass\n"
            "class _Imported: pass\n"
            "_TABLE = {}\n"
            "_SEEN: int = 0\n"
            "def __dunder__(): pass\n"
        ),
        "b.py": "from a import _Imported\nprint(_SEEN)\n",
    }
    assert _unreached_private_names(sources) == [
        "a.py: _self", "a.py: _head", "a.py: _tail", "a.py: _ping", "a.py: _pong",
        "a.py: _Lonely", "a.py: _TABLE",
    ]


def test_unused_import_check_sees_plain_dotted_and_aliased_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom math import gcd, lcm as l\n"
        "__all__ = ['gcd']\n"
    )
    assert _unused_imports(tree) == ["l", "os", "system"]


def _unused_helpers(helpers_text: str, test_sources) -> list[str]:
    """Top-level definitions of a helpers module that no test module reads,
    directly or through another definition that one reads."""
    refs = {
        name: _referenced_names(stmt) - {*_defined_names(stmt)}
        for stmt in ast.parse(helpers_text).body
        for name in _defined_names(stmt)
    }
    todo = set().union(*(_referenced_names(ast.parse(t)) for t in test_sources))
    reached = set()
    while todo:
        name = todo.pop()
        if name in refs and name not in reached:
            reached.add(name)
            todo |= refs[name]
    return sorted(refs.keys() - reached)


def test_every_helper_is_used_by_a_test_module():
    # a deleted test must not leave its reference behind in tests/helpers.py
    tests = ROOT / "tests"
    sources = [path.read_text(encoding="utf-8") for path in sorted(tests.glob("test_*.py"))]
    unused = _unused_helpers((tests / "helpers.py").read_text(encoding="utf-8"), sources)
    assert not unused, unused


def test_unused_helper_check_follows_helpers_that_call_helpers():
    helpers = (
        "def a(): return b()\n"
        "def b(): return b()\n"
        "def c(): return d()\n"
        "def d(): pass\n"
        "E = F = 1\n"
        "def g(): return E\n"
    )
    tests = ["from helpers import a\n", "import helpers\nhelpers.g()\n"]
    assert _unused_helpers(helpers, tests) == ["F", "c", "d"]
