"""The README's module map against the package it describes."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library layout\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "taildiag").glob("*.py")
                     if not p.name.startswith("__"))
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))
