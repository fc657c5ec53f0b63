"""The README's "Public API" list against the names ``cliffproxy`` imports.

Each bullet of that section names a module and the names the package takes
from it; both sides must list the same names, and each name must be in its
module's ``__all__``.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import cliffproxy

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_api() -> dict[str, set[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    api: dict[str, set[str]] = {}
    module = None
    for line in section.splitlines():
        bullet = re.match(r"- `(\w+)`:(.*)", line)
        if bullet:
            module, rest = bullet.groups()
        elif module is not None and line.startswith("  "):
            rest = line
        else:
            module = None
            continue
        api.setdefault(module, set()).update(re.findall(r"`(\w+)`", rest))
    return api


def _package_api() -> dict[str, set[str]]:
    tree = ast.parse(Path(cliffproxy.__file__).read_text(encoding="utf-8"))
    return {
        node.module: {alias.name for alias in node.names}
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_readme_lists_the_package_imports():
    readme = _readme_api()
    assert readme, "README has no Public API list"
    assert readme == _package_api()


def test_public_names_are_in_module_all():
    for module, names in _package_api().items():
        exported = set(importlib.import_module(f"cliffproxy.{module}").__all__)
        assert names <= exported, (module, sorted(names - exported))
