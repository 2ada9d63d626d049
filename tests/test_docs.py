"""The README's module map, and the names the README and the
docstrings give, against the package they describe."""

import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taildiag"


def test_readme_library_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library layout\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = sorted(p.name for p in PACKAGE.glob("*.py")
                     if not p.name.startswith("__"))
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))


def _documents():
    """(where, text) of README.md and of every docstring in the package."""
    yield "README.md", (ROOT / "README.md").read_text(encoding="utf-8")
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                if doc := ast.get_docstring(node):
                    yield path.name, doc


def test_backticked_names_of_modules_and_classes_exist():
    # `module.name` or `Class.name`, say `ingest.RawLog` or `RawLog.of`,
    # where the first part is a taildiag module or class.
    modules = {p.stem: importlib.import_module(f"taildiag.{p.stem}")
               for p in PACKAGE.glob("*.py") if not p.name.startswith("__")}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__.startswith("taildiag.")}
    checked, stale = 0, []
    for where, text in _documents():
        for ref in re.findall(r"`(\w+(?:\.\w+)+)`", text):
            head, *names = ref.split(".")
            obj = modules.get(head) or classes.get(head)
            if obj is None:
                continue
            checked += 1
            for name in names:
                if not hasattr(obj, name):
                    stale.append(f"{where}: {ref}")
                    break
                obj = getattr(obj, name)
    assert stale == []
    assert checked > 20
