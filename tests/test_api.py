"""The package's public surface: top-level names and the names the bench wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import polysect

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


def _tracer_tables():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS, module.METHODS


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
