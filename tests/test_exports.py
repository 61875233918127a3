"""Every public name the package lists resolves, so a removed name cannot
linger in an `__all__`, in the package's own imports or in README's
library tour."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import matchlab

MODULES = sorted(p.stem for p in Path(matchlab.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"matchlab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(matchlab.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"matchlab.{module}")
        assert hasattr(source, name) and hasattr(matchlab, name), f"{module}.{name}"


def test_readme_library_tour_runs():
    # the tour as README shows it, on 200 agents a side instead of 2000
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert "2000" in tour
    exec(tour.replace("2000", "200"), {})
